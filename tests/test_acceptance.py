"""Acceptance suite: one test per release criterion, each printing a
pass/fail line.  Tolerances are fixed here, not tuned at run time."""

import json
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from lpcq.decomp import (
    DecompTree,
    bag_projections,
    fractional_bag_width,
    heuristic_decompose,
)
from lpcq.errors import UncoverableVariableError
from lpcq.interpret import factorized, natural, quantifier_eliminate, replacement
from lpcq.language import (
    CCompare,
    CForall,
    ClosedProgram,
    SWeight,
    WeightExprClosed,
    close,
    normal_form,
    parse,
)
from lpcq.linprog import solve
from lpcq.queries import AnswerSet, Var, evaluate, free_vars
from lpcq.relations import Value
from lpcq.weightings import (
    Weighting,
    collection_from_weighting,
    project_weighting,
    reconstruct,
    reconstruct_point,
    solution_to_weights,
)

from makers import (
    answer_point, certify_point, make_db, numeric_db, rand_db, rand_flagship_instance,
    rand_lpcq_program, rand_query,
)
from oracles import brute_force_answers, moved_left, normalize, size, vertex_enumeration_optimum

REL_TOL = 1e-6


def report(number: int, description: str, ok: bool) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"[{verdict}] criterion {number}: {description}", flush=True)
    assert ok, f"criterion {number} failed: {description}"


def close_rel(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


WORKED = """
let Q(x, y) = R1(x) /\\ R2(y)
maximize weight[(x, y): true](Q)
subject to weight[(x, y): x == 0](Q) <= 1
        /\\ weight[(x, y): x == 1](Q) <= 1
"""

BUDGET = """
let Q(x, y) = R1(x) /\\ R2(y)
maximize weight[(x, y): true](Q)
subject to forall (z): S(z).
    weight[(x, y): x == z](Q) <= sum{(w): T(z, w)}( num(w) )
"""

THREE_NODE = {
    "query": "R1(x) /\\ R2(y)",
    "root": 0,
    "nodes": [{"id": 0, "bag": []}, {"id": 1, "bag": ["x"]}, {"id": 2, "bag": ["y"]}],
    "edges": [[0, 1], [0, 2]],
}


def f1_db():
    return make_db(R1=[(0,), (1,)], R2=[(0,), (1,)])


def _heuristic_decomps(cp, db):
    decomps = {}
    for key in cp.queries_w():
        targets = [
            w.target_vars() for w in cp.weight_exprs()
            if (w.query_name, w.query) == key
        ]
        decomps[key] = normalize(heuristic_decompose(key[1], targets))
    return decomps


def test_criterion_1_worked_example():
    db = f1_db()
    program = parse(WORKED)
    started = time.perf_counter()
    cp = quantifier_eliminate(close(normal_form(program), db))

    values = {}
    values["natural"] = solve(natural(cp, db).program)
    values["replacement"] = solve(replacement(cp, db).program)
    (key,) = cp.queries_w()
    tree = DecompTree(
        0, {0: [], 1: ["x"], 2: ["y"]}, [(0, 1), (0, 2)], query=key[1]
    )
    values["factorized"] = solve(factorized(cp, {key: tree}, db).program)
    elapsed = time.perf_counter() - started

    ok = all(
        sol.status == "optimal" and abs(sol.value - 2.0) <= 1e-9
        for sol in values.values()
    ) and elapsed < 1.0
    report(1, f"worked example solves to 2 in all three modes ({elapsed:.3f}s)", ok)


def test_criterion_2_closure_reproduction():
    db = make_db(
        R1=[(0,), (1,)], R2=[(0,), (1,)], S=[(0,), (1,)],
        T=[(0, 0.4), (0, 0.6), (1, 0.3)],
    )
    program = parse(BUDGET)
    cp = close(program, db)

    q = program.queries["Q"]
    expected = ClosedProgram(
        close(program, db).objective,
        [
            type(cp.constraints[0])(
                # lhs: one weight slice, rhs: folded constant
                _weight_sum(q, (("x", Value("0")),)), "<=", _const_sum(1.0)
            ),
            type(cp.constraints[0])(
                _weight_sum(q, (("x", Value("1")),)), "<=", _const_sum(0.3)
            ),
        ],
    )
    structural = cp.canonical() == expected.canonical()

    ilp = natural(cp, db)
    sol = solve(ilp.program)
    # independent oracle for the 1.3 value: vertex enumeration of the LP
    oracle = vertex_enumeration_optimum("maximize", *moved_left(ilp.program))
    ok = (
        structural
        and sol.status == "optimal"
        and abs(sol.value - 1.3) <= 1e-9
        and oracle is not None
        and abs(oracle[0] - 1.3) <= 1e-6
    )
    report(2, "closure yields the two budget rows and solves to 1.3", ok)


def _weight_sum(q, targets):
    from lpcq.language import ClosedSum

    return ClosedSum(0.0, {WeightExprClosed("Q", q, targets): 1.0})


def _const_sum(value):
    from lpcq.language import ClosedSum

    return ClosedSum(value)


@pytest.fixture(scope="module")
def flagship_suite():
    """500 random instances solved in natural, replacement, and factorized
    modes, with the factorized solutions lifted back to answer weights."""
    rng = random.Random(987654321)
    results = []
    started = time.perf_counter()
    for _ in range(500):
        db, _, cp = rand_flagship_instance(rng)
        cpq = quantifier_eliminate(cp)
        nat_ilp = natural(cpq, db)
        nat = solve(nat_ilp.program)
        repl = solve(replacement(cpq, db).program)
        fac_ilp = factorized(cpq, _heuristic_decomps(cpq, db), db)
        fac = solve(fac_ilp.program)

        lift_ok = None
        if fac.status == "optimal":
            point = {}
            for key in cpq.queries_w():
                weighting = solution_to_weights(fac, fac_ilp, key, db)
                point.update(answer_point(nat_ilp, key, weighting.values))
            certificate, objective = certify_point(nat_ilp.program, point)
            lift_ok = certificate.violation <= 1e-6 and close_rel(objective, fac.value)
        results.append((nat, repl, fac, lift_ok))
    return results, time.perf_counter() - started


def test_criterion_3_flagship_factorized_equals_natural(flagship_suite):
    results, elapsed = flagship_suite
    bad = 0
    for nat, _, fac, _ in results:
        if nat.status != fac.status:
            bad += 1
        elif nat.status == "optimal" and not close_rel(nat.value, fac.value):
            bad += 1
    ok = bad == 0 and len(results) >= 500 and elapsed < 300
    report(
        3,
        f"factorized optimum equals natural on {len(results)} instances "
        f"({elapsed:.1f}s, {bad} mismatches)",
        ok,
    )


def test_criterion_4_quantifier_elimination():
    rng = random.Random(24681357)
    checked = 0
    bad = 0
    for _ in range(500):
        db, _, cp = rand_flagship_instance(rng, n_exists=rng.randint(1, 2))
        before = solve(natural(cp, db).program)
        after = solve(natural(quantifier_eliminate(cp), db).program)
        if before.status != after.status:
            bad += 1
        elif before.status == "optimal" and not close_rel(before.value, after.value):
            bad += 1
        checked += 1
    ok = bad == 0 and checked >= 500
    report(4, f"quantifier elimination preserves the optimum on {checked} instances", ok)


def test_criterion_5_replacement_soundness(flagship_suite):
    results, _ = flagship_suite
    bad = 0
    for nat, repl, _, _ in results:
        if nat.status != repl.status:
            bad += 1
        elif nat.status == "optimal" and not close_rel(nat.value, repl.value):
            bad += 1
    report(5, f"replacement rewriting matches natural on {len(results)} instances", bad == 0)


def test_criterion_6_counting_gadget():
    rng = random.Random(1122334455)
    checked = 0
    bad = 0
    while checked < 100:
        db = rand_db(rng, max_tuples=40, max_relations=3)
        q = rand_query(rng, db, max_atoms=3)
        answers = evaluate(q, db)
        if not 0 < len(answers) <= 1000:
            continue
        program = _counting_gadget(q)
        cp = close(program, db)
        sol = solve(natural(quantifier_eliminate(cp), db).program)
        if sol.status != "optimal" or abs(sol.value - len(answers)) > 1e-6:
            bad += 1
        checked += 1
    report(6, f"counting gadget optimum equals the answer count on {checked} instances", bad == 0)


def _counting_gadget(q):
    """maximize total weight subject to each answer slice weighing at most 1."""
    from lpcq.language import LpcqProgram

    fv = sorted(free_vars(q))
    fresh = [f"g_{v}" for v in fv]
    renamed = _rename_query_free(q, dict(zip(fv, fresh)))
    weight_all = SWeight(tuple(fv), (), "Q", q)
    slice_weight = SWeight(
        tuple(fv), tuple((x, Var(y)) for x, y in zip(fv, fresh)), "Q", q
    )
    from lpcq.language import CCompare, CForall, SNum, Real

    constraint = CForall(
        tuple(fresh), renamed, CCompare(slice_weight, "<=", SNum(Real(1.0)))
    )
    return LpcqProgram(weight_all, constraint, {"Q": q})


def _rename_query_free(q, mapping):
    from lpcq.queries import rewrite

    return rewrite(q, {x: Var(y) for x, y in mapping.items()})


def test_criterion_7_weighting_algebra():
    rng = random.Random(5544332211)

    # extension and projection laws on 1000 random instances
    law_failures = 0
    for _ in range(1000):
        n_vars = rng.randint(1, 4)
        variables = [f"v{i}" for i in range(n_vars)]
        rows = {
            tuple(Value(str(rng.randint(0, 3))) for _ in variables)
            for _ in range(rng.randint(1, 25))
        }
        a = AnswerSet(variables, rows)
        x1 = set(rng.sample(variables, k=rng.randint(0, n_vars)))
        x2 = set(rng.sample(sorted(x1), k=rng.randint(0, len(x1)))) if x1 else set()

        groups1 = a.group_by(x1)
        flat = sorted(i for members in groups1.values() for i in members)
        if flat != list(range(len(a))):  # disjoint classes covering A
            law_failures += 1
            continue
        # classes over x2 are unions of classes over x1
        groups2 = a.group_by(x2)
        refine = {}
        proj = [a.rows[i] for i in range(len(a))]
        idx2 = [a.variables.index(v) for v in sorted(x2)]
        for key1, members in groups1.items():
            key2 = tuple(a.rows[members[0]][a.variables.index(v)] for v in sorted(x2))
            refine.setdefault(key2, set()).update(members)
        for key2, members in groups2.items():
            if refine.get(key2, set()) != set(members):
                law_failures += 1
                break
        w = Weighting(a, {row: rng.random() * 4 for row in a.rows})
        direct = project_weighting(w, x2)
        staged = project_weighting(project_weighting(w, x1), x2)
        for key in direct.values:
            if abs(direct.values[key] - staged.values[key]) > 1e-9:
                law_failures += 1
                break

    # reconstruction round trips on 200 sound collections
    round_failures = 0
    point_failures = 0
    done = 0
    while done < 200:
        db = rand_db(rng, max_tuples=18, max_relations=3)
        q = rand_query(rng, db, max_atoms=3)
        answers = evaluate(q, db)
        if not 0 < len(answers) <= 120:
            continue
        tree = normalize(heuristic_decompose(q))
        w = Weighting(answers, {row: rng.random() * 3 for row in answers.rows})
        col = collection_from_weighting(w, tree)
        back = reconstruct(col, answers)
        round_col = collection_from_weighting(back, tree)
        for node in tree.bags:
            for key, mass in col[node].values.items():
                if abs(round_col[node].values[key] - mass) > 1e-6:
                    round_failures += 1
                    break
        for assignment in answers.assignments():
            got = reconstruct_point(col, assignment)
            if abs(got - back[assignment]) > 1e-9:
                point_failures += 1
                break
        done += 1

    ok = law_failures == 0 and round_failures == 0 and point_failures == 0
    report(
        7,
        "projection laws (1000), reconstruction round trips (200), and "
        "pointwise agreement all hold",
        ok,
    )


def test_criterion_8_solution_lifting(flagship_suite):
    results, _ = flagship_suite
    lifted = [ok for _, _, _, ok in results if ok is not None]
    ok = len(lifted) > 0 and all(lifted)
    report(
        8,
        f"factorized solutions lift to natural-feasible weights on "
        f"{len(lifted)} solvable instances",
        ok,
    )


def test_criterion_9_bag_projections():
    rng = random.Random(6677889900)
    checked = 0
    oracle_failures = 0
    bound_failures = 0
    while checked < 200:
        db = rand_db(rng, max_tuples=20, max_relations=3)
        q = rand_query(rng, db, max_atoms=3)
        fv = free_vars(q)
        if len(db.domain) ** max(len(fv), 1) > 10**5:
            continue
        answers = evaluate(q, db)
        if len(answers) > 10**4:
            continue
        tree = normalize(heuristic_decompose(q))
        proj = bag_projections(q, tree, db)
        oracle_rows = brute_force_answers(q, db)
        oracle = AnswerSet(fv, {tuple(a[v] for v in sorted(fv)) for a in oracle_rows})
        for node, bag in tree.bags.items():
            if proj[node] != oracle.restrict(bag):
                oracle_failures += 1
                break
        if db.size:
            for node, bag in tree.bags.items():
                try:
                    width = fractional_bag_width(bag, q)
                except UncoverableVariableError:
                    continue
                if len(proj[node]) > db.size ** (width + 1e-9) + 1e-9:
                    bound_failures += 1
                    break
        checked += 1
    ok = oracle_failures == 0 and bound_failures == 0
    report(
        9,
        f"bag projections match brute force and respect size bounds on "
        f"{checked} instances",
        ok,
    )


_BENCH_CHILD = r"""
import json, sys
sys.path.insert(0, {src!r})
from lpcq.cli import BENCH_SELECTIVITY, bench_rows
rows = bench_rows([{size}], seed=1, reps=1, selectivity=BENCH_SELECTIVITY)
print(json.dumps(rows[0]))
"""


def test_criterion_10_interpretation_size_trend():
    src = str(Path(__file__).resolve().parent.parent / "src")
    rows = []
    for size_ in (100, 500, 1000):
        script = _BENCH_CHILD.format(src=src, size=size_)
        # each size runs in its own process so the big instances hand their
        # memory back before the next one starts
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=900,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        rows.append(json.loads(proc.stdout.strip().splitlines()[-1]))

    ok = True
    summary = []
    for row in rows:
        trend = row["factorized_vars"] < row["natural_vars"]
        agree = row["status"] == "optimal"  # bench_rows already asserted equality
        ok = ok and trend and agree
        summary.append(
            f"m={row['size']}: {row['factorized_vars']} < {row['natural_vars']}"
        )
    report(10, "factorized stays smaller and agrees (" + "; ".join(summary) + ")", ok)


def test_criterion_11_normal_form():
    rng = random.Random(10101010)
    checked = 0
    size_failures = 0
    closure_failures = 0
    while checked < 100:
        db = numeric_db(rng)
        program = rand_lpcq_program(rng, db)
        nf = normal_form(program)
        if size(nf) > size(program) ** 3:
            size_failures += 1
        if close(program, db).canonical() != close(nf, db).canonical():
            closure_failures += 1
        checked += 1
    ok = size_failures == 0 and closure_failures == 0
    report(
        11,
        f"normal form stays within the cubic bound and closes identically "
        f"on {checked} programs",
        ok,
    )
