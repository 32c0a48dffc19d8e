"""Mass functions over a product frame: belief evaluation, Dempster's rule
of conditioning, surprise, the commitment order, and the consonant and
conjunctive classifiers.

A mass function is a sparse map from focal subsets (held as bitmasks) to
strictly positive weights summing to one, with nothing on the empty set.
``Bel(B)`` is the total mass of focal elements contained in ``B``; the
surprise at an event is the belief that it would not happen.
"""

from __future__ import annotations

from math import fsum
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import (
    ConditioningUndefined,
    EmptyEvidence,
    FrameMismatch,
    FrameTooLarge,
    InvalidMassFunction,
)
from .frames import ProductFrame, SubsetOfTheta

#: Tolerance on the normalization of a mass assignment.
MASS_TOL = 1e-9
#: Conditioning drops output focal elements below this weight.
PRUNE_TOL = 1e-12


class MassFunction:
    """An immutable mass function and the belief function it induces."""

    __slots__ = ("frame", "_masses")

    def __init__(self, frame: ProductFrame,
                 masses: Mapping[SubsetOfTheta | int, float] | Iterable[tuple[SubsetOfTheta | int, float]]):
        items = masses.items() if isinstance(masses, Mapping) else masses
        acc: dict[int, float] = {}
        for key, value in items:
            bits = key.bits if isinstance(key, SubsetOfTheta) else int(key)
            if isinstance(key, SubsetOfTheta) and key.frame != frame:
                raise FrameMismatch("focal element belongs to a different frame")
            if not 0 <= bits <= frame.full_bits:
                raise InvalidMassFunction(f"focal bitmask {bits:#x} outside the frame")
            value = float(value)
            if value == 0.0:
                continue
            if value < 0.0:
                raise InvalidMassFunction(f"negative mass {value} on {frame.subset(bits).label()}")
            if bits == 0:
                raise InvalidMassFunction("mass assigned to the empty set")
            acc[bits] = acc.get(bits, 0.0) + value
        total = fsum(acc.values())
        if abs(total - 1.0) > MASS_TOL:
            raise InvalidMassFunction(f"masses sum to {total!r}, not 1")
        self.frame = frame
        self._masses = dict(sorted(acc.items()))

    # -- constructors ------------------------------------------------------

    @classmethod
    def vacuous(cls, frame: ProductFrame) -> "MassFunction":
        """Total ignorance: all mass on the whole space."""
        return cls(frame, {frame.full_bits: 1.0})

    @classmethod
    def from_vector(cls, frame: ProductFrame, vector: np.ndarray, *,
                    clip: float = 1e-7, subsets: Sequence[int] | None = None) -> "MassFunction":
        """Build from a mass vector: entry ``i`` is the mass of the subset
        with bitmask ``subsets[i]``, by default of the subset with bitmask
        ``i``.

        Entries within ``clip`` of zero are treated as solver noise: small
        negatives are clamped, weights below :data:`PRUNE_TOL` dropped, and
        the remainder renormalized.
        """
        vec = np.asarray(vector, dtype=float)
        if subsets is None:
            subsets = range(1 << frame.theta_size)
        if vec.shape != (len(subsets),):
            raise InvalidMassFunction(f"vector length {vec.shape} does not match the frame")
        if vec.min() < -clip:
            raise InvalidMassFunction(f"vector entry {vec.min()} is significantly negative")
        masses = {int(bits): float(v) for bits, v in zip(subsets, vec) if bits and v > PRUNE_TOL}
        total = fsum(masses.values())
        if abs(total - 1.0) > 1e-6:
            raise InvalidMassFunction(f"vector sums to {total!r}, not 1")
        return cls(frame, {b: v / total for b, v in masses.items()})

    # -- raw access --------------------------------------------------------

    def focal_elements(self) -> Iterator[tuple[SubsetOfTheta, float]]:
        """Focal elements in deterministic (bitmask) order."""
        for bits, v in self._masses.items():
            yield self.frame.subset(bits), v

    def focal_bits(self) -> dict[int, float]:
        return dict(self._masses)

    def mass(self, subset: SubsetOfTheta) -> float:
        self._check(subset)
        return self._masses.get(subset.bits, 0.0)

    def to_vector(self) -> np.ndarray:
        vec = np.zeros(1 << self.frame.theta_size)
        for bits, v in self._masses.items():
            vec[bits] = v
        return vec

    def __len__(self) -> int:
        return len(self._masses)

    def _check(self, subset: SubsetOfTheta) -> None:
        if subset.frame != self.frame:
            raise FrameMismatch("subset belongs to a different frame")

    # -- belief and surprise -------------------------------------------------

    def belief(self, subset: SubsetOfTheta) -> float:
        """Total mass of focal elements contained in ``subset``."""
        self._check(subset)
        s = subset.bits
        return fsum(v for bits, v in self._masses.items() if bits & ~s == 0)

    def surprise(self, event: SubsetOfTheta) -> float:
        """Surprise at the event occurring: belief in its complement."""
        return self.belief(~event)

    def conditional_surprise(self, event: SubsetOfTheta, given: SubsetOfTheta) -> float:
        """Surprise at the event after conditioning on ``given``."""
        return self.condition(given).belief(~event)

    # -- Dempster's rule of conditioning -------------------------------------

    def condition(self, evidence: SubsetOfTheta) -> "MassFunction":
        """Revise on evidence ``B``: each focal element is cut down to its
        part inside ``B`` and the lost weight (the mass of ``B``'s
        complement) is renormalized away.

        Raises :class:`EmptyEvidence` for ``B`` empty and
        :class:`ConditioningUndefined` when ``Bel(B complement) = 1``.
        """
        self._check(evidence)
        if evidence.bits == 0:
            raise EmptyEvidence("cannot condition on the empty set")
        outside = self.belief(~evidence)
        if outside > 1.0 - MASS_TOL:
            raise ConditioningUndefined(
                f"belief in the complement of {evidence.label()} is 1")
        k = 1.0 - outside
        acc: dict[int, float] = {}
        for bits, v in self._masses.items():
            cut = bits & evidence.bits
            if cut:
                acc[cut] = acc.get(cut, 0.0) + v
        scaled = {bits: v / k for bits, v in acc.items() if v / k >= PRUNE_TOL}
        total = fsum(scaled.values())
        return MassFunction(self.frame, {b: v / total for b, v in scaled.items()})

    # -- classifiers ----------------------------------------------------------

    def is_vacuous(self) -> bool:
        return len(self._masses) == 1 and self.frame.full_bits in self._masses

    def is_consonant(self) -> bool:
        """True when the focal elements form a chain under inclusion."""
        focals = sorted(self._masses, key=lambda b: (b.bit_count(), b))
        return all(a & ~b == 0 for a, b in zip(focals, focals[1:]))

    def is_conjunctive(self, *, max_theta: int = 8) -> bool:
        """True when, under every defined conditioning, the fully believed
        propositions are closed under intersection.

        ``A`` counts as fully believed given ``B`` when ``Bel(A|B) > 0``
        and ``Bel(complement of A | B) = 0``.  That family is
        upward-closed, so it is closed under intersection iff the
        intersection of all its members is in it.  Exhaustive over all
        evidences, so capped at small frames.
        """
        n = self.frame.theta_size
        if n > max_theta:
            raise FrameTooLarge(f"conjunctive test is exhaustive; frame has {n} points, cap {max_theta}")
        full = self.frame.full_bits
        for b in range(1, full + 1):
            try:
                conditioned = self.condition(self.frame.subset(b))
            except ConditioningUndefined:
                continue
            bel = belief_table(conditioned)
            believed = (bel > 0) & (bel[::-1] == 0)  # the complement full ^ A is full - A
            members = np.flatnonzero(believed)
            if members.size and not believed[np.bitwise_and.reduce(members)]:
                return False
        return True

    # -- misc -----------------------------------------------------------------

    def approx_equal(self, other: "MassFunction", tol: float = MASS_TOL) -> bool:
        if self.frame != other.frame:
            return False
        keys = set(self._masses) | set(other._masses)
        return all(abs(self._masses.get(k, 0.0) - other._masses.get(k, 0.0)) <= tol for k in keys)

    def __repr__(self):
        inner = ", ".join(f"{self.frame.subset(b).label()}: {v:.6g}" for b, v in self._masses.items())
        return f"MassFunction({inner})"


def belief_table(m: MassFunction) -> np.ndarray:
    """Dense table of ``Bel`` over every subset bitmask of the frame.

    Computed with the subset-sum (zeta) transform over the lattice,
    one pass per point of the frame.
    """
    n = m.frame.theta_size
    table = np.zeros(1 << n)
    for bits, v in m._masses.items():
        table[bits] += v
    return zeta_transform(table, n)


def zeta_transform(values: np.ndarray, theta_size: int) -> np.ndarray:
    """Subset sums over the lattice: ``out[S] = sum of values[A] for A
    contained in S``."""
    out = np.array(values, dtype=float)
    for i in range(theta_size):
        step = 1 << i
        view = out.reshape(-1, 2 * step)
        view[:, step:] += view[:, :step]
    return out


def mobius_transform(values: np.ndarray, theta_size: int) -> np.ndarray:
    """Inverse of :func:`zeta_transform`: recover the sparse weights whose
    subset sums are ``values`` (signed inclusion-exclusion)."""
    out = np.array(values, dtype=float)
    for i in range(theta_size):
        step = 1 << i
        view = out.reshape(-1, 2 * step)
        view[:, step:] -= view[:, :step]
    return out


def leq_committed(sigma: MassFunction, tau: MassFunction, *,
                  max_theta: int = 16, tol: float = MASS_TOL) -> bool:
    """Pointwise commitment order on beliefs: ``Bel_sigma(A) <= Bel_tau(A)``
    for every subset ``A``.  Exhaustive over the subset lattice."""
    if sigma.frame != tau.frame:
        raise FrameMismatch("mass functions over different frames")
    n = sigma.frame.theta_size
    if n > max_theta:
        raise FrameTooLarge(f"commitment order is exhaustive; frame has {n} points, cap {max_theta}")
    return bool(np.all(belief_table(sigma) <= belief_table(tau) + tol))
