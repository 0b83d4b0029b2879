"""Benchmark of ``lpcq solve``: run one workload, check it, report its metrics.

    python3 perfbench/run.py --workload natural [--seed 1] [--seconds 25] [--trace 0]

Each pass of the workload runs in a fresh process (``worker.py``), one pass
at a time, for ``--seconds`` seconds but at least MIN_PASSES passes.  With
``--trace 0`` no pass is traced and the run reports the end-to-end metrics;
with ``--trace 1`` untraced and traced passes alternate and the run reports
the per-layer metrics of the traced passes, plus the tracing overhead.
Every invocation of every pass is checked against the reference answers of
``reference.py`` after the timed passes.  The last line of standard output
is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import reference
import workloads

HERE = workloads.HERE
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = workloads.WORK

MIN_PASSES = 3
# one pass of any workload ends well within this; a slower one is a hang
PASS_TIMEOUT_S = 120

END_TO_END_UNITS = {"solve_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "lp_vars": "count", "lp_rows": "count"}


def run_pass(pass_no: int, argvs: list[list[str]], traced: bool) -> dict:
    spec = {"src": str(SRC), "invocations": argvs, "trace": traced, "pass": pass_no}
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
            cwd=ROOT, capture_output=True, text=True, timeout=PASS_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"traced": traced, "crashed": f"pass {pass_no} timed out"}
    if proc.returncode != 0:
        return {"traced": traced, "crashed": proc.stderr[-2000:]}
    result = json.loads(proc.stdout)
    result["setup_s"] = result["ready"] - spawned
    result["traced"] = traced
    return result


def file_digest(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def measure(invs, db_dirs, label: str, seconds: float, trace: bool) -> list[dict]:
    """Timed passes, one process each, until *seconds* would be overrun."""
    out_dir = WORK / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    passes: list[dict] = []
    begin = time.monotonic()
    while True:
        pass_no = len(passes) + 1
        weights = [out_dir / f"{label}-p{pass_no}-i{i}.csv" for i in range(len(invs))]
        argvs = [inv.argv(db_dirs[inv.instance], path) for inv, path in zip(invs, weights)]
        result = run_pass(pass_no, argvs, traced=trace and pass_no % 2 == 0)
        # weights files are hashed here and checked after the timed passes
        result["weights"] = [(file_digest(path), path) if path.exists() else None
                             for path in weights]
        passes.append(result)
        if "crashed" in result:
            break
        elapsed = time.monotonic() - begin
        done = len(passes) >= MIN_PASSES + (1 if trace else 0)
        if done and elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    return passes


def verify(invs, db_dirs, refs, passes):
    """Failures, disagreements with the reference, and the first report of
    each invocation that did not fail."""
    failures: list[str] = []
    problems: list[str] = []
    sizes: dict[int, dict] = {}
    verified_weights: dict[str, list[str]] = {}
    for p in passes:
        if "crashed" in p:
            failures += [f"{inv.label}: pass crashed: {p['crashed']}" for inv in invs]
            continue
        for i, (inv, out, written) in enumerate(zip(invs, p["outputs"], p["weights"])):
            report, found = checks.check_output(inv, out, refs[inv.instance])
            if report is None and not found:
                failures.append(f"{inv.label}: exit {out['rc']} {out['error'] or ''}")
                continue
            problems += [f"{inv.label}: {msg}" for msg in found]
            if report is None:
                continue
            sizes.setdefault(i, {})[(report["variables"]["total"],
                                     report["constraints"]["total"])] = report
            if inv.weights:
                if written is None:
                    problems.append(f"{inv.label}: no weights file written")
                    continue
                digest, path = written
                if digest not in verified_weights:
                    verified_weights[digest] = checks.check_weights(
                        path, inv, db_dirs[inv.instance], refs[inv.instance])
                problems += [f"{inv.label}: {m}" for m in verified_weights[digest]]
    for i, seen in sizes.items():
        if len(seen) > 1:
            problems.append(f"{invs[i].label}: LP sizes differ between passes: {sorted(seen)}")
    return failures, problems, [next(iter(seen.values())) for seen in sizes.values()]


def end_to_end(passes, reports) -> dict:
    plain = [p for p in passes if "crashed" not in p and not p["traced"]]
    values = {
        "solve_s": statistics.median(p["pass_s"] for p in plain),
        "setup_s": statistics.median(p["setup_s"] for p in plain),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        "lp_vars": sum(r["variables"]["total"] for r in reports),
        "lp_rows": sum(r["constraints"]["total"] for r in reports),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def per_layer(passes) -> dict:
    """The layers of the traced pass with the median time, so that its self
    times plus its unattributed remainder add up to its ``trace.solve_s``."""
    ok = [p for p in passes if "crashed" not in p]
    traced = sorted((p for p in ok if p["traced"]), key=lambda p: p["pass_s"])
    middle = traced[(len(traced) - 1) // 2]
    out = {name: {"value": value, "unit": "s" if name.endswith("_s") else "count"}
           for name, value in sorted(middle["layers"].items())}
    untraced = statistics.median_low(p["pass_s"] for p in ok if not p["traced"])
    out["trace.overhead_s"] = {"value": middle["pass_s"] - untraced, "unit": "s"}
    return out


def write_trace(passes, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        for p in passes:
            for span in p.get("spans", ()):
                handle.write(json.dumps(span) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "lpcq" / "cli.py").is_file():
        print(f"error: no lpcq sources under {SRC}", file=sys.stderr)
        return 2
    # bytecode is written once here, so that no timed pass compiles lpcq
    compileall.compile_dir(str(SRC / "lpcq"), quiet=1)

    invs = workloads.invocations(args.workload, args.seed)
    db_dirs = {inv.instance: workloads.materialize(inv.instance) for inv in invs}
    # in a process of its own, so that this one stays small while passes run
    subprocess.run(
        [sys.executable, str(HERE / "reference.py"), "--workload", args.workload,
         "--seed", str(args.seed)],
        check=True, timeout=PASS_TIMEOUT_S,
    )
    refs = {inv.instance: reference.load(inv.instance) for inv in invs}

    label = f"{args.workload}-s{args.seed}"
    passes = measure(invs, db_dirs, label, args.seconds, bool(args.trace))
    failures, problems, reports = verify(invs, db_dirs, refs, passes)
    for p in passes:
        for written in p["weights"]:
            if written is not None:
                written[1].unlink()
    for msg in dict.fromkeys(failures):
        print(f"failed: {msg}", file=sys.stderr)
    for msg in dict.fromkeys(problems):
        print(f"incorrect: {msg}", file=sys.stderr)

    attempted = len(passes) * len(invs)
    timed = [p for p in passes if "crashed" not in p and p["traced"] == bool(args.trace)]
    if len(failures) == attempted or not timed:
        print("error: no pass to report", file=sys.stderr)
        return 1
    if args.trace:
        missing = sorted({t for p in passes for t in p.get("missing_targets", ())})
        if missing:
            print(f"tracer: no such targets, their metrics are absent: {', '.join(missing)}",
                  file=sys.stderr)
        metrics = per_layer(passes)
        write_trace(passes, WORK / "trace" / f"{label}.jsonl")
    else:
        metrics = end_to_end(passes, reports)
    summary = " ".join(f"{name}={m['value']:.6g}" for name, m in metrics.items())
    times = " ".join(f"{p['setup_s']:.3f}+{p['pass_s']:.3f}{'t' if p['traced'] else ''}"
                     for p in passes if "crashed" not in p)
    print(f"{label}: passes (setup+solve s) {times}\n{label}: {summary}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
