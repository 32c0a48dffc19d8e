"""Fast tests of the benchmark itself: its arithmetic, its generators, and
that each of its answer checks rejects a deliberately wrong answer.

    python3 -m pytest -q perfbench
"""

import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import inputs  # noqa: E402
import ops  # noqa: E402
import oracle  # noqa: E402
from inputs import BUNKER, Frame, Row, Term  # noqa: E402

WINDOW = Frame(("X",), (("T", "J", "P", "O"),))


def test_window_conditional_belief():
    # m({T,J,P}) = 0.6, m(Theta) = 0.4; learning "neither T nor J" leaves
    # Bel({P}) = 0.6, the worked example of the paper's window story.
    pt = {v: 1 << i for i, v in enumerate("TJPO")}
    mass = {pt["T"] | pt["J"] | pt["P"]: 0.6, WINDOW.full: 0.4}
    value, norm = inputs.cond(mass, pt["P"], pt["P"] | pt["O"], WINDOW.full)
    assert value == pytest.approx(0.6, abs=1e-15)
    assert norm == 1.0
    assert inputs.bel(mass, pt["T"] | pt["J"] | pt["P"]) == pytest.approx(0.6)
    assert inputs.bel(mass, pt["O"]) == 0.0


def _product_combination(c, d):
    """The two pieces of evidence combined as independent: focal sets within
    G = (M => P) and (M => E), evidence P holding with weight c to the part
    of G in M or not P, evidence E with weight d to the part in M or not E."""
    m, p, e = inputs._bunker_sets()
    full = BUNKER.full
    g = ((full ^ m) | p) & ((full ^ m) | e)
    s1, s2 = g & (m | (full ^ p)), g & (m | (full ^ e))
    return {s1 & s2: c * d, s1: c * (1 - d), s2: (1 - c) * d, g: (1 - c) * (1 - d)}


@pytest.mark.parametrize("c,d", [(0.6, 0.7), (0.25, 0.4)])
def test_bunker_combined_confidence(c, d):
    mass = _product_combination(c, d)
    rows = inputs.bunker_rows(c, d, 2)
    assert [oracle.row_violation(mass, r, BUNKER.full) for r in rows] == [None] * 16
    value, _ = oracle.term_value(mass, inputs.bunker_query(), BUNKER.full)
    assert value == pytest.approx(c + d - c * d, abs=1e-12)
    # moving weight between the two evidence sets breaks both equalities
    m, p, e = inputs._bunker_sets()
    g = max(mass)
    s1 = g & (m | (BUNKER.full ^ p))
    tilted = {**mass, s1: mass[s1] + 0.05, g: mass[g] - 0.05}
    assert oracle.row_violation(tilted, rows[12], BUNKER.full) is not None


def test_bunker_rows_match_the_bundled_file():
    from surprise_engine.scenario import load_scenario
    sc = load_scenario(ROOT / "src" / "surprise_engine" / "data" / "bunker.bel")
    assert [con.render(sc.frame) for con in sc.constraints] == \
        [r.text for r in inputs.bunker_rows(0.6, 0.7, 2)]


def test_points_and_formulas_agree_with_the_engine():
    from surprise_engine.frames import ProductFrame, extension_bits, parse_formula
    frame = inputs.shape_frame((2, 3))
    engine = ProductFrame(list(zip(frame.names, frame.values)))
    for p in range(frame.size):
        names = dict(zip(frame.names, (v[d] for v, d in zip(frame.values, frame.digits(p)))))
        assert engine.point(**names) == p
    for bits in (1, 0b101010, frame.full - 1):
        assert extension_bits(engine, parse_formula(frame.formula(bits), engine)) == bits


def _texts(folder: Path) -> dict[str, str]:
    return {p.name: p.read_text() for p in sorted(folder.glob("*.bel"))}


@pytest.mark.parametrize("workload", ["lattice", "elicit"])
def test_generation_is_a_function_of_the_seed(tmp_path, workload):
    gen = getattr(inputs, workload)
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        (tmp_path / name).mkdir()
        gen(seed, tmp_path / name)
    a, b, c = (_texts(tmp_path / n) for n in "abc")
    assert a == b
    assert a.keys() == c.keys() and a != c


def test_fusion_generation_is_a_function_of_the_seed(tmp_path):
    bundled = ROOT / "src" / "surprise_engine" / "data" / "bunker.bel"
    runs = []
    for name, seed in (("a", 3), ("b", 3), ("c", 4)):
        (tmp_path / name).mkdir()
        runs.append([(o.label, o.expect) for o in inputs.fusion(seed, tmp_path / name, bundled)])
    assert runs[0] == runs[1] != runs[2]


def test_generated_rows_hold_at_the_anchor(tmp_path):
    for op in inputs.lattice(1, tmp_path):
        bad = [oracle.row_violation(op.anchor, r, op.frame.full) for r in op.rows]
        if op.planted is None:
            assert bad == [None] * len(op.rows)
        else:
            assert bad[op.planted] is not None and bad[:op.planted] == [None] * op.planted


# ---------------------------------------------------------------------------
# Each check rejects a perturbed answer


@pytest.fixture(scope="module")
def small_system(tmp_path_factory):
    """Engine answers on the smallest lattice system and its planted copy."""
    folder = tmp_path_factory.mktemp("lattice")
    items = [o for o in inputs.lattice(1, folder) if o.label.startswith("r0_sys1_")]
    eng = ops.Engine()
    answers = [ops.plain(o, ops.run_op(eng, o)[1]) for o in items]
    return {o.label.split(".")[1]: (o, a) for o, a in zip(items, answers)}


def test_answers_pass_unperturbed(small_system):
    for op, ans in small_system.values():
        assert ops.check_op(op, ans) == []
    ops_, answers = zip(*small_system.values())
    assert ops.check_groups(list(ops_), list(answers)) == []


def test_check_rejects_a_wrong_witness(small_system):
    op, ans = small_system["check"]
    frame_full = op.frame.full
    bad = {frame_full: 1.0}  # the vacuous function meets no row with Bel > 0
    assert ops.check_op(op, {**ans, "witness": bad})


def test_check_rejects_wrong_feasibility_and_cores(small_system):
    op, ans = small_system["check"]
    assert ops.check_op(op, {**ans, "feasible": False, "core": [0]})
    planted_op, planted = small_system["check_planted"]
    assert ops.check_op(planted_op, {**planted, "feasible": True})
    core = [i for i in planted["core"] if i != planted_op.planted]
    assert ops.check_op(planted_op, {**planted, "core": core})


@pytest.mark.parametrize("label", ["bounds", "bounds_cond"])
def test_bounds_reject_unattained_or_misplaced_ends(small_system, label):
    op, ans = small_system[label]
    assert ops.check_op(op, {**ans, "hi": ans["hi"] + 1e-3})
    assert ops.check_op(op, {**ans, "lo": ans["lo"] - 1e-3})
    v, _ = oracle.term_value(op.anchor, op.query, op.frame.full)
    assert ops.check_op(op, {**ans, "lo": v + 1e-3, "hi": v + 1e-3,
                             "w_lo": ans["w_hi"], "w_hi": ans["w_hi"]})


def test_highs_rejects_a_moved_end(small_system):
    pytest.importorskip("scipy")
    op, ans = small_system["bounds"]
    assert ops.check_highs([op], [ans]) == []
    assert ops.check_highs([op], [{**ans, "hi": ans["hi"] - 1e-4}])


def test_mincommit_rejects_commitment_above_a_witness(small_system):
    op, ans = small_system["mincommit"]
    check_op, check = small_system["check"]
    above = oracle.bel_table(check["witness"], op.frame.size) + 0.01
    assert ops.check_groups([op, check_op], [{"mass": None, "env": above}, check]) != []
    assert ops.check_op(op, {"mass": None, "env": np.minimum(above + 0.5, 1.0)})


def test_envelope_refusal_is_checked():
    # Bel(A) >= 0.5 alone: its least committed function exists
    frame = Frame(("X",), (("a", "b", "c"),))
    rows = [Row((Term(1.0, 0b001),), ">=", 0.5, "Bel(X=a) >= 0.5")]
    mass = {0b001: 0.5, frame.full: 0.5}
    env = oracle.bel_table(mass, frame.size)
    assert oracle.check_envelope_refusal(env, rows, frame)
    assert oracle.check_envelope_refusal(env, rows + [
        Row((Term(1.0, 0b001),), "<=", 0.4, "Bel(X=a) <= 0.4")], frame) == []


def test_classify_flags_are_checked():
    op = inputs.Op("classify", "c", Path("x"), WINDOW, [])
    chain = {0b0001: 0.5, 0b0011: 0.3, WINDOW.full: 0.2}
    ok = {"mass": chain, "classes": (False, True, oracle.conjunctive(chain, WINDOW.full))}
    assert ops.check_op(op, ok) == []
    assert ops.check_op(op, {**ok, "classes": (True, True, ok["classes"][2])})
    assert ops.check_op(op, {**ok, "classes": (False, False, ok["classes"][2])})
    assert ops.check_op(op, {**ok, "classes": (False, True, not ok["classes"][2])})


def test_fusion_interval_is_checked():
    c, d = 0.6, 0.7
    combined = c + d - c * d
    assert ops._fusion_interval({"c": c, "d": d, "params": 2}, combined, combined) == []
    assert ops._fusion_interval({"c": c, "d": d, "params": 2}, combined - 0.01, combined)
    assert ops._fusion_interval({"c": c, "d": d, "params": 0}, 0.7, 1.0) == []
    assert ops._fusion_interval({"c": c, "d": d, "params": 0}, 0.75, 1.0)


@pytest.fixture(scope="module")
def session(tmp_path_factory):
    folder = tmp_path_factory.mktemp("elicit")
    sess = inputs.elicit(1, folder)[0]
    eng = ops.Engine()
    records, result = ops.run_session(eng, sess)
    assert [r.error for r in records] == [None] * len(records)
    return eng, sess, result


def test_session_passes_unperturbed(session):
    eng, sess, result = session
    assert ops.check_session(eng, sess, result) == []


def _edit(result: dict, kind_index: int, old: str, new: str) -> dict:
    segs = list(result["segments"])
    assert old in segs[kind_index]
    segs[kind_index] = segs[kind_index].replace(old, new)
    return {**result, "segments": segs}


def test_session_rejects_widening_and_lost_cores(session):
    eng, sess, result = session
    kinds = ["start"] + [k for k, _, _ in sess.script]
    last_bounds = len(kinds) - 2  # the final bounds, before save
    seg = result["segments"][last_bounds]
    hi = ops._QUERY_RE.match(seg.splitlines()[0]).group(3)
    widened = _edit(result, last_bounds, f", {hi}]", f", {float(hi) + 1e-3:.9g}]")
    assert ops.check_session(eng, sess, widened)
    planted = kinds.index("assume_planted")
    core_line = next(ln for ln in result["segments"][planted].splitlines()
                     if ln.startswith("CONFLICT") and ln.split(":")[0].endswith(
                         str(len(sess.base) + 5 + 1)))
    lost = _edit(result, planted, core_line, "CONFLICT 1: x")
    assert ops.check_session(eng, sess, lost)
    infeasible = _edit(result, 0, "CHECK feasible", "CHECK infeasible")
    assert ops.check_session(eng, sess, infeasible)


def test_session_rejects_a_saved_file_that_differs(session, tmp_path):
    eng, sess, result = session
    text = sess.saved.read_text()
    try:
        sess.saved.write_text(text.replace("[constraints]\n", "[constraints]\nBel(RAIN=Yes) >= 0\n"))
        assert ops.check_session(eng, sess, result)
    finally:
        sess.saved.write_text(text)
