"""The check set, run in process, one JSON line per run.

The check set is every seed-1 invocation of the benchmark's workloads
(``perfbench.workloads.invocations``, instances from
``workloads.materialize``), the three demos in all three modes (the
delivery demo factorized over ``decomp.json``, the others over the
min-fill tree), and the delivery demo factorized over
``decomp_coarse.json`` and over the min-fill tree; and ``lpcq width`` on
the delivery demo's two trees and the benchmark's, whose cover LPs go to
HiGHS too.  Each solve goes through ``lpcq.cli.main`` with ``--json
--emit-lp --weights --explain``, each width run with its plain argv,
while ``scipy.optimize.linprog`` is wrapped, and prints one line, keys
sorted: the argv (paths relative to the repository root, outputs under
``OUT``) and the exit code; the sha256 of each output file, of the
``--explain`` lines (for ``width``, of its output) and of the report
without ``seconds`` and ``solver``; the report's ``solver`` block itself;
the optimum, ``lp_vars`` and ``lp_rows``; and for each ``linprog`` call
the sha256 of each argument, the shape sent (``<=`` rows, equality rows,
columns) and the simplex iteration count, so that a run whose vertex
moved shows.  Compare two trees with a plain ``diff``:

    PYTHONPATH=src python tests/check_set.py > after.jsonl

pytest does not collect this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy.optimize

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import workloads  # noqa: E402

from lpcq import cli  # noqa: E402

DEMOS = ROOT / "demos"


def argvs(out: Path) -> list[list[str]]:
    """The argv of every run of the check set, writing its files to *out*."""
    runs = []
    for workload in workloads.WORKLOADS:
        for invocation in workloads.invocations(workload, 1):
            db = workloads.materialize(invocation.instance)
            runs.append(invocation.argv(db, out / "weights.csv"))
    for name in ("delivery", "privacy", "smeasure"):
        here = DEMOS / name
        base = ["solve", str(here / f"{name}.lpcq"), str(here / "data"), "--json"]
        runs.append([*base, "--mode", "natural"])
        runs.append([*base, "--mode", "replacement"])
        if name == "delivery":
            for decomp in ("decomp.json", "decomp_coarse.json"):
                runs.append([*base, "--mode", "factorized", "--decomp", str(here / decomp)])
        runs.append([*base, "--mode", "factorized", "--heuristic-decomp"])
    for argv in runs:
        if "--weights" not in argv:
            argv += ["--weights", str(out / "weights.csv")]
        argv += ["--emit-lp", str(out / "program.lp"), "--explain"]
    decomps = [DEMOS / "delivery" / "decomp.json", DEMOS / "delivery" / "decomp_coarse.json",
               ROOT / "perfbench" / "programs" / "throughput_decomp.json"]
    return runs + [["width", str(path)] for path in decomps]


def digest(value) -> str:
    """The sha256 of a ``linprog`` argument: an array's dtype, shape and
    bytes, a sparse matrix's arrays and shape, or the ``repr`` of the rest."""
    h = hashlib.sha256()
    if value is not None and hasattr(value, "tocsr"):
        value = value.tocsr()
        h.update(repr(value.shape).encode())
        parts = (value.data, value.indices, value.indptr)
    elif isinstance(value, np.ndarray):
        parts = (value,)
    else:
        return hashlib.sha256(repr(value).encode()).hexdigest()
    for part in parts:
        part = np.ascontiguousarray(part)
        h.update(f"{part.dtype.str}{part.shape}".encode())
        h.update(part.tobytes())
    return h.hexdigest()


def without_seconds(report):
    if isinstance(report, dict):
        return {k: without_seconds(v) for k, v in report.items() if k != "seconds"}
    if isinstance(report, list):
        return [without_seconds(v) for v in report]
    return report


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(argv: list[str], out: Path) -> dict:
    for path in out.iterdir():
        path.unlink()
    calls = []
    original = scipy.optimize.linprog

    def recording(c, **kwargs):
        call = {key: digest(value) for key, value in dict(kwargs, c=c).items()}
        call["shape"] = [0 if kwargs[key] is None else kwargs[key].shape[0]
                         for key in ("A_ub", "A_eq")] + [len(c)]
        res = original(c, **kwargs)
        calls.append(dict(call, nit=int(res.nit)))
        return res

    stdout, stderr = io.StringIO(), io.StringIO()
    scipy.optimize.linprog = recording
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        scipy.optimize.linprog = original
    lines = stdout.getvalue().splitlines(keepends=True)
    at = next((i for i, line in enumerate(lines) if line == "{\n"), len(lines))  # the report
    explain = "".join(lines[:at])
    report = json.loads("".join(lines[at:])) if at < len(lines) else None
    record = {
        "argv": [arg.replace(str(out), "OUT").replace(str(ROOT) + "/", "") for arg in argv],
        "exit": code,
        "files": {path.name: sha(path.read_bytes()) for path in sorted(out.iterdir())},
        "explain": sha(explain.encode()),
        "solver": None if report is None else report.pop("solver", None),
        "report": sha(json.dumps(without_seconds(report), sort_keys=True).encode()),
        "linprog": calls,
        "stderr": sha(stderr.getvalue().encode()),
    }
    if report is not None:
        record["value"] = report.get("value")
        record["lp_vars"] = report["variables"]["total"]
        record["lp_rows"] = report["constraints"]["total"]
    return record


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        for argv in argvs(out):
            print(json.dumps(run(argv, out), sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
