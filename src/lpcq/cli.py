"""Command-line driver: solve, gen, bench, width, check-decomp.

Exit codes: 0 solved (or command succeeded), 1 infeasible, 2 unbounded,
3 input error, usage errors included, 4 the solver's optimum failed its
primal certificate (``linprog.certify``), so no optimum is printed.
``--decomp`` and ``--heuristic-decomp`` outside factorized mode are input
errors.  ``LPCQ_TOL`` overrides the 1e-6 tolerance used when the benchmark
asserts that both interpretations agree; it must be a positive finite
number.  ``bench --sizes`` and ``--reps`` take integers of at least 1,
checked as usage errors before any instance runs.

``solve --weights`` writes one CSV row per answer from the integer columns
(``weightings.AnswerColumns``) that ``weightings.lift_answers`` reads in
every mode: a natural or replacement run's θ values, or the answers a
factorized run enumerates from its bag projections with their lifted
masses.  Each ``var=value`` cell is quoted by the ``csv`` module once per
distinct value and each distinct mass is formatted once; the rows go out
in blocks, so any number of answers can be written.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .decomp import (
    attach_target_bags,
    fractional_bag_width,
    heuristic_decompose,
    load_decompositions,
    match_tree_to_query,
    tree_width,
    validate,
)
from .errors import (
    CertificateError,
    IncompatibleTargetError,
    LpcqError,
    MissingDecompositionError,
    ParseError,
)
from .interpret import InterpretedLp, factorized, natural, quantifier_eliminate, replacement
from .language import ClosedProgram, LpcqProgram, SWeight, close, normal_form, parse
from .lpformat import export_lp
from .linprog import solve
from .queries import qf
from .relations import Database, load_database
from .synth import DEFAULT_SELECTIVITY, GenSpec, generate_delivery, write_delivery
from .weightings import AnswerColumns, lift_answers
# not called here; it stays importable because the benchmark's tracer
# (perfbench/tracer.py) wraps lpcq.cli.solution_to_weights
from .weightings import solution_to_weights  # noqa: F401

DEFAULT_TOL = 1e-6

# grid fill fraction for benchmark instances: dense enough that answer sets
# dwarf their bag projections, sparse enough that the answer-variable
# interpretation stays buildable at the largest benchmark size
BENCH_SELECTIVITY = 0.04


def reporting_tolerance() -> float:
    raw = os.environ.get("LPCQ_TOL")
    if not raw:
        return DEFAULT_TOL
    try:
        tol = float(raw)
    except ValueError:
        tol = math.nan
    if not (math.isfinite(tol) and tol > 0):
        raise LpcqError(f"LPCQ_TOL must be a positive finite number, got {raw!r}")
    return tol


@dataclass
class RunReport:
    mode: str
    status: str
    value: float | None = None
    theta_vars: int = 0
    xi_vars: int = 0
    nu_vars: int = 0
    user_constraints: int = 0
    weight_constraints: int = 0
    soundness_constraints: int = 0
    nonzeros: int = 0
    seconds: dict = field(default_factory=dict)
    projection_sizes: dict = field(default_factory=dict)
    solver: dict | None = None  # linprog.SolverReport.as_dict(); --json only

    @property
    def total_vars(self) -> int:
        return self.theta_vars + self.xi_vars + self.nu_vars

    @property
    def total_constraints(self) -> int:
        return self.user_constraints + self.weight_constraints + self.soundness_constraints

    def lines(self) -> list[str]:
        out = [f"mode: {self.mode}", f"status: {self.status}"]
        if self.value is not None:
            out.append(f"value: {self.value:.9g}")
        out.append(
            "variables: theta=%d xi=%d nu=%d total=%d"
            % (self.theta_vars, self.xi_vars, self.nu_vars, self.total_vars)
        )
        out.append(
            "constraints: user=%d weight=%d soundness=%d total=%d"
            % (
                self.user_constraints,
                self.weight_constraints,
                self.soundness_constraints,
                self.total_constraints,
            )
        )
        if self.seconds:
            stamped = " ".join(f"{k}={v:.3f}" for k, v in self.seconds.items())
            out.append(f"phase seconds: {stamped}")
        for qname, sizes in self.projection_sizes.items():
            listed = ", ".join(f"n{node}:{count}" for node, count in sorted(sizes.items()))
            out.append(f"projections[{qname}]: {listed}")
        return out

    def as_dict(self) -> dict:
        return {
            "mode": self.mode,
            "status": self.status,
            "value": self.value,
            "variables": {
                "theta": self.theta_vars,
                "xi": self.xi_vars,
                "nu": self.nu_vars,
                "total": self.total_vars,
            },
            "constraints": {
                "user": self.user_constraints,
                "weight": self.weight_constraints,
                "soundness": self.soundness_constraints,
                "total": self.total_constraints,
            },
            "nonzeros": self.nonzeros,
            "seconds": self.seconds,
            "projections": {
                name: dict(sizes) for name, sizes in self.projection_sizes.items()
            },
            "solver": self.solver,
        }


def _report_from(ilp: InterpretedLp, solution, value, seconds) -> RunReport:
    counts = ilp.provenance_counts()
    report = RunReport(
        mode=ilp.mode,
        status=solution.status,
        value=value,
        theta_vars=ilp.theta_count,
        xi_vars=ilp.xi_count,
        nu_vars=ilp.nu_count,
        user_constraints=counts["user"],
        weight_constraints=counts["weight"],
        soundness_constraints=counts["soundness"],
        nonzeros=solution.nonzeros,
        seconds=seconds,
        solver=solution.solver.as_dict() if solution.solver else None,
    )
    for (name, _), nodes in ilp.xi.items():
        report.projection_sizes[name] = {node: len(block.rows) for node, block in nodes.items()}
    return report


def build_decompositions(
    cp: ClosedProgram,
    cp_qf: ClosedProgram,
    decomp_path: str | None,
    use_heuristic: bool,
):
    """Decomposition per weight-bearing query of the eliminated program,
    fitted to the query's weight targets.

    The tree is the first one of *decomp_path* that matches the query, or
    else the min-fill tree when *use_heuristic* is set.
    """
    if decomp_path:
        trees = load_decompositions(decomp_path)
    elif not use_heuristic:
        raise MissingDecompositionError(
            "factorized mode needs --decomp FILE or --heuristic-decomp"
        )
    targets_by_key: dict = {}
    for f in cp_qf.families:
        targets_by_key.setdefault((f.query_name, f.query), []).append(f.variables)

    decomps = {}
    for name, query in cp.queries_w():
        key = (name, qf(query))
        targets = targets_by_key.get(key, [])
        if decomp_path:
            matches = (match_tree_to_query(t, query) for t in trees)
            tree = next((m for m in matches if m is not None), None)
            if tree is None:
                raise MissingDecompositionError(
                    f"{decomp_path} has no decomposition for query {name!r}"
                )
        else:
            tree = heuristic_decompose(key[1], targets)
        decomps[key] = attach_target_bags(tree, targets)
    return decomps


def run_pipeline(
    program: LpcqProgram,
    db: Database,
    mode: str,
    decomp_path: str | None = None,
    use_heuristic: bool = False,
):
    """parse -> normal form -> close -> eliminate quantifiers -> interpret -> solve.

    A decomposition asked for outside factorized mode is an input error,
    since no other mode would read it.
    """
    if mode != "factorized":
        given = [flag for flag, on in (("--decomp", decomp_path),
                                       ("--heuristic-decomp", use_heuristic)) if on]
        if given:
            raise LpcqError(f"{' and '.join(given)}: only factorized mode reads a "
                            f"decomposition, not {mode} mode")
    seconds: dict[str, float] = {}
    t0 = time.perf_counter()
    cp = close(normal_form(program), db)
    cp_qf = quantifier_eliminate(cp)
    seconds["evaluate"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    if mode == "natural":
        ilp = natural(cp_qf, db)
    elif mode == "replacement":
        ilp = replacement(cp_qf, db)
    elif mode == "factorized":
        decomps = build_decompositions(cp, cp_qf, decomp_path, use_heuristic)
        ilp = factorized(cp_qf, decomps, db)
    else:
        raise LpcqError(f"unknown mode {mode!r}")
    seconds["interpret"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    solution = solve(ilp.program)
    seconds["solve"] = time.perf_counter() - t0

    value = None
    if solution.status == "optimal":
        value = cp.user_value(solution.value)
    report = _report_from(ilp, solution, value, seconds)
    return cp_qf, ilp, solution, report


# rows of a weights CSV formatted and written at a time
_BLOCK_ROWS = 1 << 12


def _csv_fields(texts) -> list[str]:
    """Each text as the ``csv`` module writes it as one field of a row."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    end = len(writer.dialect.lineterminator)
    fields = []
    for text in texts:
        buffer.seek(0)
        buffer.truncate()
        writer.writerow([text])
        fields.append(buffer.getvalue()[:-end])
    return fields


def _write_rows(handle, answers: AnswerColumns) -> None:
    """``var=value,...,mass`` rows as ``csv.writer`` writes them, built
    from cells made once per value a column holds and per mass bit
    pattern."""
    values = answers.dictionary.values
    cells = []
    for j, var in enumerate(answers.variables):
        held = np.zeros(len(values), dtype=bool)
        held[answers.codes[:, j]] = True
        codes = np.flatnonzero(held)
        column = np.empty(len(values), dtype=object)
        column[codes] = [
            field + "," for field in _csv_fields(f"{var}={x.text}" for x in values[codes].tolist())
        ]
        cells.append(column)
    # by bit pattern, so that -0.0 keeps its own text
    patterns, pattern_of = np.unique(answers.masses.view(np.int64), return_inverse=True)
    end = csv.excel.lineterminator
    masses = np.array([f"{m:.12g}{end}" for m in patterns.view(np.float64).tolist()],
                      dtype=object)
    for start in range(0, len(answers), _BLOCK_ROWS):
        block = slice(start, start + _BLOCK_ROWS)
        columns = [column[answers.codes[block, j]].tolist() for j, column in enumerate(cells)]
        columns.append(masses[pattern_of[block]].tolist())
        handle.write("".join(map("".join, zip(*columns))))


def _write_weights(path: str, cp_qf, ilp: InterpretedLp, solution) -> None:
    # every weighting is lifted before the file is opened, so a lift that
    # fails leaves no partial file behind
    sections = [(key[0], lift_answers(solution, ilp, key)) for key in cp_qf.queries_w()]
    with open(path, "w", newline="", encoding="utf-8") as handle:
        for name, answers in sections:
            handle.write(f"# {name}\n")
            _write_rows(handle, answers)


def _read_program(path: str) -> LpcqProgram:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from exc
    return parse(text)


def cmd_solve(args) -> int:
    try:
        program = _read_program(args.program)
        db = load_database(args.db)
        cp_qf, ilp, solution, report = run_pipeline(
            program,
            db,
            args.mode,
            decomp_path=args.decomp,
            use_heuristic=args.heuristic_decomp,
        )
    except CertificateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (LpcqError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    try:
        if args.emit_lp:
            export_lp(ilp.program, args.emit_lp)
        if args.weights and solution.status == "optimal":
            _write_weights(args.weights, cp_qf, ilp, solution)
    except (LpcqError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if args.explain:
        for i, (row, tag) in enumerate(zip(ilp.program.row_texts(), ilp.provenance)):
            print(f"[{tag}] c{i + 1}: {row}")

    if args.json:
        print(json.dumps(report.as_dict(), indent=2))
    else:
        for line in report.lines():
            print(line)

    if solution.status == "infeasible":
        return 1
    if solution.status == "unbounded":
        return 2
    return 0


def cmd_gen(args) -> int:
    try:
        spec = GenSpec(size=args.size, seed=args.seed, selectivity=args.selectivity)
        db = write_delivery(spec, args.out)
    except (LpcqError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(f"wrote {len(db.relations)} tables, {db.size} tuples to {args.out}")
    return 0


# the benchmark's throughput program over the delivery schema; structurally
# feasible (zero ships) and bounded (every answer hits a production cap)
BENCH_PROGRAM = """
let dlr(f', w', b', o') =
  exists q, q2, c, c2.
    prod(f', o', q) /\\ order(b', o', q2) /\\ route(f', w', c) /\\ route(w', b', c2)

maximize weight[(f', w', b', o'): true](dlr)
subject to
  forall (f, o, q): prod(f, o, q).
    weight[(f', w', b', o'): f' == f /\\ o' == o](dlr) <= num(q)
  /\\ forall (b, o, q): order(b, o, q).
    weight[(f', w', b', o'): b' == b /\\ o' == o](dlr) <= num(q)
  /\\ forall (w, l): store(w, l).
    weight[(f', w', b', o'): w' == w](dlr) <= num(l)
"""

# delivery decomposition with one bag per atom plus two 3-variable
# connector bags; same fractional width as the coarse two-bag tree but far
# smaller bag projections on uniform data
BENCH_DECOMP = {
    "query": "exists q, q2, c, c2. prod(f', o', q) /\\ order(b', o', q2) "
             "/\\ route(f', w', c) /\\ route(w', b', c2)",
    "root": 1,
    "nodes": [
        {"id": 1, "bag": ["b'", "f'", "o'"]},
        {"id": 2, "bag": ["b'", "f'", "w'"]},
        {"id": 3, "bag": ["f'", "o'"]},
        {"id": 4, "bag": ["f'", "o'", "q"]},
        {"id": 5, "bag": ["b'", "o'"]},
        {"id": 6, "bag": ["b'", "o'", "q2"]},
        {"id": 7, "bag": ["f'", "w'"]},
        {"id": 8, "bag": ["c", "f'", "w'"]},
        {"id": 9, "bag": ["b'", "w'"]},
        {"id": 10, "bag": ["b'", "c2", "w'"]},
    ],
    "edges": [[1, 2], [1, 3], [3, 4], [1, 5], [5, 6], [2, 7], [7, 8], [2, 9], [9, 10]],
}

# the coarse width-2 alternative with one bag per route hop
BENCH_DECOMP_COARSE = {
    "query": BENCH_DECOMP["query"],
    "root": 1,
    "nodes": [
        {"id": 1, "bag": ["b'", "c2", "f'", "o'", "q", "w'"]},
        {"id": 2, "bag": ["b'", "c", "f'", "o'", "q2", "w'"]},
    ],
    "edges": [[1, 2]],
}

BENCH_FIELDS = [
    "size", "rep", "seed", "status",
    "natural_vars", "natural_constraints", "natural_build_s", "natural_solve_s",
    "factorized_vars", "factorized_constraints", "factorized_build_s", "factorized_solve_s",
    "value",
]


def bench_rows(sizes, seed, reps, selectivity, decomp_dict=None):
    """One row per (size, rep): both interpretations must agree."""
    import tempfile

    tol = reporting_tolerance()
    program = parse(BENCH_PROGRAM)
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        decomp_path = Path(tmp) / "delivery_decomp.json"
        decomp_path.write_text(json.dumps(decomp_dict or BENCH_DECOMP))
        for size in sizes:
            for rep in range(reps):
                inst_seed = seed + rep
                db = generate_delivery(
                    GenSpec(size=size, seed=inst_seed, selectivity=selectivity)
                )
                _, nat_ilp, nat_sol, nat_rep = run_pipeline(program, db, "natural")
                _, fac_ilp, fac_sol, fac_rep = run_pipeline(
                    program, db, "factorized", decomp_path=str(decomp_path)
                )
                if nat_sol.status != fac_sol.status:
                    raise LpcqError(
                        f"size {size} rep {rep}: status mismatch "
                        f"{nat_sol.status} vs {fac_sol.status}"
                    )
                value = None
                if nat_sol.status == "optimal":
                    gap = abs(nat_sol.value - fac_sol.value)
                    if gap > tol * max(1.0, abs(nat_sol.value)):
                        raise LpcqError(
                            f"size {size} rep {rep}: optima differ by {gap}"
                        )
                    value = nat_rep.value
                rows.append({
                    "size": size,
                    "rep": rep,
                    "seed": inst_seed,
                    "status": nat_sol.status,
                    "natural_vars": nat_rep.total_vars,
                    "natural_constraints": nat_rep.total_constraints,
                    "natural_build_s": round(
                        nat_rep.seconds["evaluate"] + nat_rep.seconds["interpret"], 4
                    ),
                    "natural_solve_s": round(nat_rep.seconds["solve"], 4),
                    "factorized_vars": fac_rep.total_vars,
                    "factorized_constraints": fac_rep.total_constraints,
                    "factorized_build_s": round(
                        fac_rep.seconds["evaluate"] + fac_rep.seconds["interpret"], 4
                    ),
                    "factorized_solve_s": round(fac_rep.seconds["solve"], 4),
                    "value": value,
                })
    return rows


def cmd_bench(args) -> int:
    try:
        # opened first, so an unwritable path fails before the benchmark runs
        out = open(args.out, "w", newline="", encoding="utf-8") if args.out else sys.stdout
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    try:
        rows = bench_rows(args.sizes, args.seed, args.reps, args.selectivity)
        writer = csv.DictWriter(out, fieldnames=BENCH_FIELDS)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    except CertificateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except LpcqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        if args.out:
            out.close()
    return 0


def cmd_width(args) -> int:
    try:
        trees = load_decompositions(args.decomp)
    except (OSError, LpcqError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    status = 0
    for i, tree in enumerate(trees):
        if tree.query is None:
            print(f"tree {i}: no query declared, cannot compute widths", file=sys.stderr)
            status = 3
            continue
        query = qf(tree.query)
        print(f"tree {i}: root={tree.root}")
        try:
            for node in tree.nodes:
                w = fractional_bag_width(tree.bags[node], query)
                listed = ",".join(sorted(tree.bags[node])) or "-"
                print(f"  node {node} bag {{{listed}}}: width {w:.6g}")
            print(f"  tree width: {tree_width(tree, query):.6g}")
        except LpcqError as exc:
            print(f"  error: {exc}", file=sys.stderr)
            status = 3
    return status


def cmd_check_decomp(args) -> int:
    try:
        trees = load_decompositions(args.decomp)
    except (OSError, LpcqError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    program = None
    if args.program:
        try:
            program = _read_program(args.program)
        except (LpcqError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3

    status = 0
    for i, tree in enumerate(trees):
        if tree.query is None:
            print(f"tree {i}: no query declared", file=sys.stderr)
            status = 3
            continue
        try:
            validate(tree, qf(tree.query))
            print(f"tree {i}: valid ({len(tree.bags)} nodes)")
        except LpcqError as exc:
            print(f"tree {i}: INVALID: {exc}", file=sys.stderr)
            status = 3
            continue
        if program is None:
            continue
        for name, query in program.queries.items():
            matched = match_tree_to_query(tree, query)
            if matched is None:
                continue
            targets = _weight_targets(program, name)
            try:
                fitted = attach_target_bags(matched, targets)
            except IncompatibleTargetError as exc:
                print(f"tree {i}: query {name!r}: INCOMPATIBLE: {exc}", file=sys.stderr)
                status = 3
                continue
            print(
                f"tree {i}: compatible with query {name!r} ({len(targets)} targets, "
                f"solve attaches {len(fitted.bags) - len(matched.bags)} bags)"
            )
    return status


def _weight_targets(program: LpcqProgram, name: str) -> list[frozenset[str]]:
    from .language import CAnd, CCompare, CForall, CTrue, SAdd, SNum, SScale, SSum

    targets: list[frozenset[str]] = []

    def walk(node):
        if isinstance(node, SWeight):
            if node.query_name == name:
                targets.append(frozenset(x for x, _ in node.targets))
        elif isinstance(node, (SScale, SSum, CForall)):
            walk(node.body)
        elif isinstance(node, (SAdd, CAnd, CCompare)):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, (SNum, CTrue)):
            pass

    walk(program.objective)
    walk(program.constraint)
    return targets


def _positive_int(text: str) -> int:
    try:
        number = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if number < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {number}")
    return number


def _sizes(text: str) -> list[int]:
    """``bench --sizes``: comma-separated table sizes, blanks skipped."""
    return [_positive_int(part) for part in text.split(",") if part.strip()]


class _ArgumentParser(argparse.ArgumentParser):
    """argparse that reports a usage error with exit code 3, input error;
    argparse's own 2 would read as "unbounded"."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def build_arg_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="lpcq",
        description="Compile and solve linear programs over conjunctive-query answer sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a program over a CSV database")
    p_solve.add_argument("program", help="program file (.lpcq)")
    p_solve.add_argument("db", help="directory of <Relation>.csv files")
    p_solve.add_argument(
        "--mode", choices=["natural", "replacement", "factorized"], default="natural"
    )
    p_solve.add_argument("--decomp", help="decomposition JSON for factorized mode")
    p_solve.add_argument(
        "--heuristic-decomp", action="store_true",
        help="derive decompositions when --decomp is omitted",
    )
    p_solve.add_argument("--emit-lp", metavar="PATH", help="export the LP in LP format")
    p_solve.add_argument("--weights", metavar="PATH", help="write per-answer weights CSV")
    p_solve.add_argument("--explain", action="store_true", help="print constraint provenance")
    p_solve.add_argument("--json", action="store_true", help="emit the report as JSON")
    p_solve.set_defaults(func=cmd_solve)

    p_gen = sub.add_parser("gen", help="generate a synthetic delivery database")
    p_gen.add_argument("--out", required=True, help="output directory")
    p_gen.add_argument("--size", type=int, required=True, help="tuples per table")
    p_gen.add_argument("--seed", type=int, default=1)
    p_gen.add_argument("--selectivity", type=float, default=DEFAULT_SELECTIVITY)
    p_gen.set_defaults(func=cmd_gen)

    p_bench = sub.add_parser("bench", help="compare natural vs factorized on synthetic data")
    p_bench.add_argument("--sizes", type=_sizes, default="", help="comma-separated table sizes")
    p_bench.add_argument("--seed", type=int, default=1)
    p_bench.add_argument("--reps", type=_positive_int, default=1)
    p_bench.add_argument(
        "--selectivity", type=float, default=BENCH_SELECTIVITY,
        help="grid fill fraction for generated tables",
    )
    p_bench.add_argument("--out", help="CSV output path (default stdout)")
    p_bench.set_defaults(func=cmd_bench)

    p_width = sub.add_parser("width", help="per-bag fractional widths of a decomposition")
    p_width.add_argument("decomp", help="decomposition JSON")
    p_width.set_defaults(func=cmd_width)

    p_check = sub.add_parser("check-decomp", help="validate a decomposition file")
    p_check.add_argument("decomp", help="decomposition JSON")
    p_check.add_argument("--program", help="program to check weight compatibility against")
    p_check.set_defaults(func=cmd_check_decomp)

    return parser


def main(argv=None) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
