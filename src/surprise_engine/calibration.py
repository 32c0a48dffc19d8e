"""The canonical measurement device for surprise.

A user calibrates once against announced black/white ball ratios: the
even ratio carries zero surprise, the billion-to-one ratio saturates the
scale at ten, and interior entries are recorded on a 0-10 scale.  The
resulting curve converts any announced ratio into a surprise degree on
[0, 1], usable directly as a belief value.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, log

from .errors import DuplicateRatio, MonotonicityViolation, RatioOutOfRange

#: Ratio treated as "practically infinite": the saturation anchor.
SATURATION_RATIO = 10 ** 9


@dataclass(frozen=True)
class CalibrationCurve:
    """Monotone piecewise-linear map from log-ratio to surprise in [0, 1].

    Always contains the anchors ``(log 1, 0)`` and ``(log 10^9, 1)``.
    """

    anchors: tuple[tuple[float, float], ...]

    def to_surprise(self, x: int, y: int) -> float:
        """Surprise at the announced ratio ``x`` versus ``y``.

        Symmetric in its arguments, exact at calibration anchors, and
        interpolated linearly in log-ratio space between them.
        """
        r = _log_ratio(x, y)
        anchors = self.anchors
        if r > anchors[-1][0]:
            raise RatioOutOfRange(f"ratio {x} versus {y} lies beyond {SATURATION_RATIO}:1")
        if r == 0.0:
            return anchors[0][1]
        lo = anchors[0]
        for hi in anchors[1:]:
            if r == hi[0]:
                return hi[1]
            if r < hi[0]:
                t = (r - lo[0]) / (hi[0] - lo[0])
                return lo[1] + t * (hi[1] - lo[1])
            lo = hi
        raise AssertionError("unreachable: r is bracketed by the endpoint anchors")


def _normalize(x: int, y: int) -> tuple[int, int]:
    if not (isinstance(x, int) and isinstance(y, int)) or x <= 0 or y <= 0:
        raise ValueError(f"ratio entries must be positive integers, got {x!r} versus {y!r}")
    hi, lo = (x, y) if x >= y else (y, x)
    g = gcd(hi, lo)
    return hi // g, lo // g


def _log_ratio(x: int, y: int) -> float:
    hi, lo = _normalize(x, y)
    if hi > SATURATION_RATIO * lo:
        raise RatioOutOfRange(f"ratio {x} versus {y} lies beyond {SATURATION_RATIO}:1")
    return log(hi) - log(lo)


def build_curve(entries) -> CalibrationCurve:
    """Build a curve from ``(x, y, surprise_on_0_10)`` measurement entries.

    Entries are rescaled to [0, 1] and merged with the two mandatory
    endpoint anchors.  Entries repeating a ratio are rejected rather than
    averaged; surprise degrees must not decrease as the ratio grows.
    """
    seen: dict[tuple[int, int], tuple] = {}
    anchors: list[tuple[float, float, str]] = [
        (0.0, 0.0, "1 versus 1"),
        (log(SATURATION_RATIO), 1.0, f"{SATURATION_RATIO} versus 1"),
    ]
    endpoint_keys = {(1, 1): 0.0, (SATURATION_RATIO, 1): 1.0}
    for x, y, s in entries:
        s = float(s)
        if not 0.0 <= s <= 10.0:
            raise ValueError(f"surprise {s} for {x} versus {y} is outside the 0-10 scale")
        key = _normalize(x, y)
        r = _log_ratio(x, y)
        if key in seen:
            raise DuplicateRatio(f"{x} versus {y} repeats the ratio of {seen[key][0]}")
        seen[key] = (f"{x} versus {y}", s)
        scaled = s / 10.0
        if key in endpoint_keys:
            if scaled != endpoint_keys[key]:
                raise MonotonicityViolation(
                    f"{x} versus {y} must carry surprise {endpoint_keys[key] * 10:g}, got {s:g}")
            continue
        anchors.append((r, scaled, f"{x} versus {y}"))
    anchors.sort(key=lambda a: a[0])
    for (r1, s1, n1), (r2, s2, n2) in zip(anchors, anchors[1:]):
        if s2 < s1:
            raise MonotonicityViolation(
                f"surprise decreases from {n1!r} ({s1 * 10:g}) to {n2!r} ({s2 * 10:g})")
    return CalibrationCurve(tuple((r, s) for r, s, _ in anchors))
