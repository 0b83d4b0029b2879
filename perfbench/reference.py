"""Reference answers computed apart from lpcq.

For each benchmark program this module joins the CSV tables itself, builds
the natural LP (one variable per answer of the quantifier-free query, the
LP that ``lpcq solve --mode natural`` compiles) with numpy and scipy, and
solves it with ``scipy.optimize.linprog`` directly.  It imports nothing from
lpcq.  Results are cached per instance under ``perfbench/work/ref``;
recompute them with

    python3 perfbench/reference.py --workload plan --seed 1 --force
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np

import workloads

# bump when the reference changes, so cached results are recomputed
VERSION = 1


def read_tables(db_dir: Path) -> dict[str, set[tuple[str, ...]]]:
    """Every ``<name>.csv`` as a set of rows (relations are sets)."""
    out = {}
    for path in sorted(db_dir.glob("*.csv")):
        with path.open(newline="", encoding="utf-8") as handle:
            out[path.stem] = {tuple(row) for row in csv.reader(handle)}
    return out


class NaturalLp:
    """maximize c.x subject to A x <= b, x >= 0, one column per answer."""

    def __init__(self, variables, answers, objective, rows, rhs):
        self.variables = variables  # answer columns, sorted by name
        self.answers = answers  # list of tuples of value texts
        self.objective = objective  # np.ndarray, one entry per answer
        self.rows = rows  # list of index arrays into answers
        self.rhs = np.asarray(rhs, dtype=float)

    def matrix(self):
        from scipy.sparse import csr_matrix

        cols = np.concatenate([np.asarray(r, dtype=np.int64) for r in self.rows]) \
            if self.rows else np.zeros(0, dtype=np.int64)
        lengths = np.fromiter((len(r) for r in self.rows), dtype=np.int64, count=len(self.rows))
        indptr = np.concatenate([[0], np.cumsum(lengths)])
        data = np.ones(len(cols))
        return csr_matrix((data, cols, indptr), shape=(len(self.rows), len(self.answers)))


def _groups(answers, positions):
    out = defaultdict(list)
    for i, row in enumerate(answers):
        out[tuple(row[p] for p in positions)].append(i)
    return out


# --- the three programs, read off programs/*.lpcq ---------------------------------

THROUGHPUT_VARS = ("b'", "c", "c2", "f'", "o'", "q", "q2", "w'")


def throughput_answers(t) -> list[tuple[str, ...]]:
    """prod(f', o', q) /\\ order(b', o', q2) /\\ route(f', w', c) /\\ route(w', b', c2)."""
    order_by_o = defaultdict(list)
    for b, o, q2 in t["order"]:
        order_by_o[o].append((b, q2))
    route_from = defaultdict(list)
    for src, dst, cost in t["route"]:
        route_from[src].append((dst, cost))
    route_pair = defaultdict(list)
    for src, dst, cost in t["route"]:
        route_pair[(src, dst)].append(cost)
    answers = []
    for f, o, q in t["prod"]:
        for b, q2 in order_by_o.get(o, ()):
            for w, c in route_from.get(f, ()):
                for c2 in route_pair.get((w, b), ()):
                    answers.append((b, c, c2, f, o, q, q2, w))
    answers.sort()
    return answers


def throughput_lp(t, answers) -> NaturalLp:
    """maximize the total weight; caps per production, order and store row."""
    by_fo = _groups(answers, (3, 4))
    by_bo = _groups(answers, (0, 4))
    by_w = _groups(answers, (7,))
    rows, rhs = [], []
    for f, o, q in sorted(t["prod"]):
        rows.append(by_fo.get((f, o), []))
        rhs.append(float(q))
    for b, o, q in sorted(t["order"]):
        rows.append(by_bo.get((b, o), []))
        rhs.append(float(q))
    for w, limit in sorted(t["store"]):
        rows.append(by_w.get((w,), []))
        rhs.append(float(limit))
    return NaturalLp(THROUGHPUT_VARS, answers, np.ones(len(answers)), rows, rhs)


def privacy_answers(t) -> list[tuple[str, ...]]:
    """Test(pat', test') /\\ St(test', st), columns (pat', st, test')."""
    studies = defaultdict(list)
    for test, st in t["St"]:
        studies[test].append(st)
    return sorted((pat, st, test) for pat, test in t["Test"] for st in studies.get(test, ()))


def privacy_lp(t, answers) -> NaturalLp:
    """Utility of disclosed tests under per-patient and per-hospital budgets."""
    by_test = _groups(answers, (2,))
    by_pat = _groups(answers, (0,))
    c = np.zeros(len(answers))
    for _st, test, val in t["Sens"]:
        for i in by_test.get((test,), ()):
            c[i] += float(val)
    patients_of = defaultdict(list)
    for pat, hosp in t["H"]:
        patients_of[hosp].append(pat)
    rows, rhs = [], []
    for obj, eps in sorted(t["Priv"]):
        rows.append(by_pat.get((obj,), []))
        rhs.append(float(eps))
    for obj, eps in sorted(t["Priv"]):
        rows.append([i for pat in sorted(patients_of.get(obj, ())) for i in by_pat.get((pat,), ())])
        rhs.append(float(eps))
    return NaturalLp(("pat'", "st", "test'"), answers, c, rows, rhs)


def smeasure_answers(t) -> list[tuple[str, ...]]:
    """edge(x1, x2) /\\ edge(x2, x3)."""
    succ = defaultdict(list)
    for a, b in t["edge"]:
        succ[a].append(b)
    return sorted((a, b, c) for a, b in t["edge"] for c in succ.get(b, ()))


def smeasure_lp(t, answers) -> NaturalLp:
    """Overlap-aware support: unit budget per node and pattern position."""
    nodes = sorted(v for (v,) in t["node"])
    node_set = set(nodes)
    c = np.array([1.0 if row[0] in node_set else 0.0 for row in answers])
    groups = [_groups(answers, (p,)) for p in range(3)]
    rows, rhs = [], []
    for v in nodes:
        for g in groups:
            rows.append(g.get((v,), []))
            rhs.append(1.0)
    return NaturalLp(("x1", "x2", "x3"), answers, c, rows, rhs)


PROGRAMS = {
    "throughput": (throughput_answers, throughput_lp),
    "privacy": (privacy_answers, privacy_lp),
    "smeasure": (smeasure_answers, smeasure_lp),
}


def answers_digest(answers) -> str:
    """sha256 over the sorted answer rows, one comma-joined row per line."""
    h = hashlib.sha256()
    for row in sorted(answers):
        h.update(",".join(row).encode())
        h.update(b"\n")
    return h.hexdigest()


def build_lp(program: str, db_dir: Path, answers=None) -> NaturalLp:
    t = read_tables(db_dir)
    answers_of, lp_of = PROGRAMS[program]
    if answers is None:
        answers = answers_of(t)
    return lp_of(t, answers)


def solve_lp(lp: NaturalLp) -> tuple[str, float | None]:
    from scipy.optimize import linprog

    if not lp.answers:
        feasible = bool(np.all(lp.rhs >= 0))
        return ("optimal", 0.0) if feasible else ("infeasible", None)
    res = linprog(-lp.objective, A_ub=lp.matrix(), b_ub=lp.rhs, bounds=(0, None),
                  method="highs")
    if res.status == 0:
        return "optimal", float(-res.fun)
    if res.status == 2:
        return "infeasible", None
    if res.status == 3:
        return "unbounded", None
    raise RuntimeError(f"reference LP not solved: {res.message}")


def compute(instance: workloads.Instance, db_dir: Path) -> dict:
    lp = build_lp(instance.program, db_dir)
    status, value = solve_lp(lp)
    return {
        "version": VERSION,
        "instance": instance.key,
        "status": status,
        "value": value,
        "answers": len(lp.answers),
        "answers_sha256": answers_digest(lp.answers),
    }


def cache_path(instance: workloads.Instance) -> Path:
    return workloads.WORK / "ref" / f"{instance.key}.json"


def load(instance: workloads.Instance) -> dict | None:
    try:
        ref = json.loads(cache_path(instance).read_text())
    except (OSError, ValueError):
        return None
    return ref if ref.get("version") == VERSION else None


def ensure(workload: str, seed: int, force: bool = False) -> None:
    for inv in workloads.invocations(workload, seed):
        inst = inv.instance
        if not force and load(inst) is not None:
            continue
        ref = compute(inst, workloads.materialize(inst))
        path = cache_path(inst)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(ref, indent=1) + "\n")
        os.replace(tmp, path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--force", action="store_true", help="recompute cached references")
    args = parser.parse_args(argv)
    ensure(args.workload, args.seed, force=args.force)
    return 0


if __name__ == "__main__":
    sys.exit(main())
