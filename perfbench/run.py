"""Benchmark of the surprise engine: one workload per run, one request at a
time, every answer checked.

    python3 perfbench/run.py --workload fusion --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the engine is imported from
``src/``.  The run generates its inputs from the seed, then repeats whole
passes over the same operations while the next pass still fits in
``--seconds`` (at least one pass), and reports per-pass command totals as
the median over passes.  The last line of standard output is a JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics, or with ``--trace 1`` the per-layer metrics of one extra traced
pass.  See README.md.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("fusion", "lattice", "elicit")
SETUP_REPEATS = 5
CATEGORIES = ("check", "bounds", "mincommit")


def _engine_present() -> bool:
    return (SRC / "surprise_engine" / "__init__.py").is_file()


def set_up(workload: str, seed: int, workdir: Path):
    """Imports and input generation: everything before the first timed op."""
    sys.path.insert(0, str(SRC))
    import inputs
    import ops
    engine = ops.Engine()
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "fusion":
        bundled = SRC / "surprise_engine" / "data" / "bunker.bel"
        return engine, inputs.fusion(seed, workdir, bundled)
    return engine, getattr(inputs, workload)(seed, workdir)


def measure_setup(workload: str, seed: int, scratch: Path) -> float:
    """Median, over fresh interpreters, of the time from spawning the
    process to the point where it would start the first op."""
    times = []
    for k in range(SETUP_REPEATS):
        workdir = scratch / f"setup{k}"
        t0 = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed), "--workdir", str(workdir)],
            capture_output=True, text=True, timeout=60, check=True)
        times.append(float(done.stdout.split()[-1]) - t0)
        shutil.rmtree(workdir, ignore_errors=True)
    return statistics.median(times)


def run_pass(engine, workload: str, items, tracer=None):
    import ops
    records, answers = [], []
    t0 = time.perf_counter()
    for item in items:
        if workload == "elicit":
            recs, ans = ops.run_session(engine, item, tracer)
        else:
            recs, ans = ops.run_op(engine, item, tracer)
        records += recs
        answers.append(ans)
    return time.perf_counter() - t0, records, answers


def verify_pass(engine, workload: str, items, answers) -> tuple[list[str], list]:
    """Checks every answer; returns the messages and the plain answers."""
    import ops
    errs: list[str] = []
    plain = []
    for item, ans in zip(items, answers):
        if workload == "elicit":
            plain.append(None)
            if ans is not None:
                errs += [f"{item.label}: {e}" for e in ops.check_session(engine, item, ans)]
            continue
        p = None if ans is None else ops.plain(item, ans)
        plain.append(p)
        if p is not None:
            errs += [f"{item.label}: {e}" for e in ops.check_op(item, p)]
    if workload != "elicit":
        errs += ops.check_groups(items, plain)
    return errs, plain


def same_answers(a: list, b: list) -> bool:
    """Two passes over the same inputs give the same answers."""
    def key(p):
        if p is None:
            return None
        return {k: (v.tolist() if hasattr(v, "tolist") else v) for k, v in p.items()}
    return [key(p) for p in a] == [key(p) for p in b]


def totals(seconds: float, records) -> dict[str, float]:
    out = {"pass_s": seconds}
    for cat in CATEGORIES:
        out[f"{cat}_s"] = sum(r.seconds for r in records if r.category == cat)
    return out


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def environment(args) -> dict:
    import numpy
    return {"workload": args.workload, "seed": args.seed, "src_lines": src_lines(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not _engine_present():
        print(f"error: no engine sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        set_up(args.workload, args.seed, args.workdir)
        print(time.perf_counter())
        return 0

    run_dir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return _run(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _run(args, run_dir: Path) -> int:
    setup_s = measure_setup(args.workload, args.seed, run_dir)
    engine, items = set_up(args.workload, args.seed, run_dir / "inputs")
    import ops

    passes = []
    wrong: list[str] = []  # answers that failed a check
    errors: list[str] = []  # operations that raised or printed an error
    attempted = 0
    first_plain = None
    measured = 0.0
    while True:
        seconds, records, answers = run_pass(engine, args.workload, items)
        attempted += len(records)
        errors += [f"{r.label}: {r.error}" for r in records if r.error]
        errs, plain = verify_pass(engine, args.workload, items, answers)
        wrong += errs
        if first_plain is None:
            first_plain = plain
        elif not same_answers(first_plain, plain):
            wrong.append("a later pass gave other answers than the first")
        passes.append((totals(seconds, records), records))
        measured += seconds
        if measured + seconds > args.seconds:
            break

    extra: dict = {"passes": [t for t, _ in passes],
                   "per_op_s": {r.label: r.seconds for r in passes[-1][1]}}
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
        try:
            seconds, records, answers = run_pass(engine, args.workload, items, tracer)
        finally:
            tracer.uninstall()
        attempted += len(records)
        errors += [f"{r.label}: {r.error}" for r in records if r.error]
        wrong += verify_pass(engine, args.workload, items, answers)[0]
        values = tracer.metrics()
        untraced = statistics.median(t["pass_s"] for t, _ in passes)
        values["trace.overhead"] = 100.0 * (seconds / untraced - 1.0)
        extra["per_op_traced_s"] = {r.label: r.seconds for r in records}
        _write_spans(args, tracer.spans)
        kind = "per_layer"
    else:
        values = {"setup_s": setup_s,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        values.update({k: statistics.median(t[k] for t, _ in passes) for k in passes[0][0]})
        kind = "end_to_end"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in _declared(kind)}

    if args.workload == "lattice":  # after the peak RSS is read: scipy is large
        highs = ops.check_highs(items, first_plain)
        extra["highs_check"] = "skipped: scipy not importable" if highs is None else "done"
        wrong += highs or []

    env = environment(args)
    _write_record(args, metrics, env, extra, errors, wrong)
    for msg in (errors + wrong)[:20]:
        print(f"problem: {msg}", file=sys.stderr)
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": len(errors),
                      "metrics": metrics}))
    return 0


def _declared(kind: str) -> list[dict]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())[kind]


def _write_record(args, metrics, env, extra, errors, wrong) -> None:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({"env": env, "metrics": metrics, "failed_ops": errors,
                                "wrong_answers": wrong, **extra}, indent=1, sort_keys=True))


def _write_spans(args, spans) -> None:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-spans.jsonl"
    with path.open("w") as fh:
        for name, start, end, parent, attrs in spans:
            fh.write(json.dumps([name, start, end, parent, attrs]) + "\n")


if __name__ == "__main__":
    sys.exit(main())
