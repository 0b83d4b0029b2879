"""Checks of every ``lpcq solve`` output against the reference answers."""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

import reference

EXIT_CODE = {"optimal": 0, "infeasible": 1, "unbounded": 2}
VALUE_TOL = 1e-6
WEIGHT_TOL = 1e-9


def close_to(value: float, target: float, tol: float = VALUE_TOL) -> bool:
    return abs(value - target) <= tol * max(1.0, abs(target))


def check_output(inv, out: dict, ref: dict) -> tuple[dict | None, list[str]]:
    """The report of one invocation, or None when the invocation failed, and
    what disagrees with the reference.

    An invocation fails when it crashes or reports an input error (exit 3);
    any other disagreement makes the run incorrect.
    """
    rc = out["rc"]
    if rc is None or rc == 3 or not isinstance(rc, int):
        return None, []
    problems = []
    if rc != EXIT_CODE[ref["status"]]:
        problems.append(f"exit code {rc}, reference status {ref['status']}")
    try:
        report = json.loads(out["stdout"])
    except ValueError:
        return None, [f"no JSON report: {out['stdout'][:200]!r}"]
    if report.get("status") != ref["status"]:
        problems.append(f"status {report.get('status')}, reference {ref['status']}")
    elif ref["status"] == "optimal" and not close_to(report["value"], ref["value"]):
        problems.append(f"value {report['value']!r}, reference {ref['value']!r}")
    n_vars = report["variables"]["total"]
    if inv.mode == "natural" and n_vars != ref["answers"]:
        problems.append(f"{n_vars} variables, reference has {ref['answers']} answers")
    if inv.decomp == "bench" and not n_vars < ref["answers"]:
        problems.append(f"factorized LP has {n_vars} variables, "
                        f"not fewer than the {ref['answers']} answers")
    return report, problems


def check_weights(path: Path, inv, db_dir: Path, ref: dict) -> list[str]:
    """The weights CSV is an optimal plan: exactly the reference answers,
    nonnegative, within every program constraint, summing to the optimum."""
    lp_vars = None
    rows, weights = [], []
    with path.open(newline="", encoding="utf-8") as handle:
        for cells in csv.reader(handle):
            if not cells or cells[0].startswith("#"):
                continue
            pairs = dict(cell.split("=", 1) for cell in cells[:-1])
            if lp_vars is None:
                lp_vars = tuple(sorted(pairs))
            if tuple(sorted(pairs)) != lp_vars:
                return [f"ragged weights row {cells!r}"]
            rows.append(tuple(pairs[v] for v in lp_vars))
            weights.append(float(cells[-1]))

    lp = reference.build_lp(inv.instance.program, db_dir, answers=rows)
    if rows and lp_vars != lp.variables:
        return [f"weights columns {lp_vars}, reference {lp.variables}"]
    if len(set(rows)) != len(rows):
        return ["weights rows repeat an answer"]
    if len(rows) != ref["answers"] or reference.answers_digest(rows) != ref["answers_sha256"]:
        return [f"weights rows ({len(rows)}) are not the reference answer set "
                f"({ref['answers']} answers)"]
    x = np.asarray(weights)
    problems = []
    if x.size and x.min() < -WEIGHT_TOL:
        problems.append(f"negative weight {float(x.min())!r}")
    lhs = lp.matrix() @ x
    slack = lhs - lp.rhs - VALUE_TOL * np.maximum(1.0, np.abs(lp.rhs))
    if slack.size and slack.max() > 0:
        worst = int(slack.argmax())
        problems.append(f"constraint {worst} violated: "
                        f"{float(lhs[worst])!r} > {float(lp.rhs[worst])!r}")
    total = float(lp.objective @ x)
    if not close_to(total, ref["value"]):
        problems.append(f"weights reach {total!r}, optimum {ref['value']!r}")
    return problems
