"""The columnar compilation hands HiGHS exactly what the dict assembly builds.

Each interpretation compiles straight to integer columns.  These tests
capture the arguments ``scipy.optimize.linprog`` receives and compare them,
exactly, with those of the same program built row by row as
``{name: coefficient}`` dicts (``oracles.dict_assembly``) and handed to
``LpBuilder`` as written (``makers.sparse_lp``).
"""

import json
import random
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from lpcq.cli import BENCH_DECOMP, BENCH_PROGRAM, BENCH_SELECTIVITY, build_decompositions
from lpcq.decomp import load_decompositions, tree_width
from lpcq.interpret import factorized, natural, quantifier_eliminate, replacement
from lpcq.language import close, normal_form, parse
from lpcq.linprog import solve
from lpcq.lpformat import export_lp
from lpcq.queries import qf
from lpcq.relations import load_database
from lpcq.synth import GenSpec, generate_delivery

from makers import make_db, rand_flagship_instance, sparse_lp
from oracles import dict_assembly, objective_terms, parse_lp, written_rows

DEMOS = Path(__file__).resolve().parent.parent / "demos"
MATRICES = ("A_ub", "b_ub", "A_eq", "b_eq")
MODES = ("natural", "replacement", "factorized")


def interpret(mode, cp, db, decomps):
    if mode == "factorized":
        return factorized(cp, decomps, db)
    return {"natural": natural, "replacement": replacement}[mode](cp, db)


@contextmanager
def highs_calls():
    """Records the arguments of every ``scipy.optimize.linprog`` call."""
    calls = []
    original = scipy.optimize.linprog

    def recording(c, **kwargs):
        calls.append(dict(kwargs, c=c))
        return original(c, **kwargs)

    scipy.optimize.linprog = recording
    try:
        yield calls
    finally:
        scipy.optimize.linprog = original


def highs_input(program):
    """The solution of *program*, and what HiGHS was handed for it (None
    when ``solve`` decided the program without HiGHS)."""
    with highs_calls() as calls:
        solution = solve(program)
    assert len(calls) <= 1
    return (calls[0] if calls else None), solution


def assert_same_input(got, want) -> None:
    assert (got is None) == (want is None)
    if got is None:
        return
    assert np.array_equal(got["c"], want["c"])
    for key in MATRICES:
        a, b = got[key], want[key]
        assert (a is None) == (b is None), key
        if a is None:
            continue
        if key.startswith("A"):
            a, b = a.tocsr(), b.tocsr()
            a.sort_indices()
            b.sort_indices()
            assert a.shape == b.shape, key
            assert np.array_equal(a.indptr, b.indptr), key
            assert np.array_equal(a.indices, b.indices), key
            assert np.array_equal(a.data, b.data), key
        else:
            assert np.array_equal(a, b), key


def same_rows(got, want) -> None:
    """A compiled program with the dict assembly's rows, side by side, and
    objective."""
    assert got.sense == "maximize"
    assert (got.obj_const, objective_terms(got)) == want.objective
    assert got.names == want.variables
    assert written_rows(got) == want.rows


def delivery_case(tmp_path):
    db = generate_delivery(GenSpec(size=30, seed=1, selectivity=BENCH_SELECTIVITY))
    decomp = tmp_path / "decomp.json"
    decomp.write_text(json.dumps(BENCH_DECOMP))
    return parse(BENCH_PROGRAM), db, str(decomp)


def demo_case(name):
    here = DEMOS / name
    return parse((here / f"{name}.lpcq").read_text()), load_database(here / "data"), None


# weight expressions that share answers, with coefficients whose float sum
# depends on the order of the terms, and a column on both sides of a row
FRACTIONS = """
let Q(x, y) = R1(x) /\\ R2(y)
maximize 0.1 * weight[(x, y): true](Q) + 0.2 * weight[(x, y): x == 0](Q)
       + 0.3 * weight[(x, y): y == 0](Q)
subject to weight[(x, y): true](Q) <= 1
        /\\ 0.7 * weight[(x, y): x == 1](Q) + 0.1 * weight[(x, y): true](Q)
            <= 0.2 * weight[(x, y): y == 1](Q) + 0.4
"""


def cases(tmp_path):
    yield "delivery", delivery_case(tmp_path)
    for name in ("privacy", "smeasure"):
        yield name, demo_case(name)
    yield "fractions", (parse(FRACTIONS), make_db(R1=[(0,), (1,)], R2=[(0,), (1,)]), None)


@pytest.mark.parametrize("mode", MODES)
def test_highs_input_matches_dict_assembly(mode, tmp_path):
    for label, (program, db, decomp_path) in cases(tmp_path):
        cp = close(normal_form(program), db)
        cp_qf = quantifier_eliminate(cp)
        decomps = build_decompositions(cp, cp_qf, decomp_path, decomp_path is None)
        ilp = interpret(mode, cp_qf, db, decomps)
        want_lp, want_provenance = dict_assembly(mode, cp_qf, db, decomps)

        assert ilp.provenance == want_provenance, label
        same_rows(ilp.program, want_lp)
        got, got_sol = highs_input(ilp.program)
        want, want_sol = highs_input(sparse_lp("maximize", *want_lp))
        assert_same_input(got, want)
        assert got_sol.nonzeros == want_sol.nonzeros > 0
        assert (got_sol.status, got_sol.value) == (want_sol.status, want_sol.value), label

        # an LP-format round trip
        path = tmp_path / f"{label}_{mode}.lp"
        export_lp(ilp.program, path)
        parsed, _ = highs_input(parse_lp(path))
        assert_same_input(parsed, got)


def test_method_rule_on_the_throughput_lps(tmp_path):
    # the natural LP is a packing LP, <= rows with bounds >= 0, and goes to
    # primal simplex from the origin; the factorized LP's marginal rows send
    # it to interior point with linprog's defaults
    program, db, decomp_path = delivery_case(tmp_path)
    cp = close(normal_form(program), db)
    cp_qf = quantifier_eliminate(cp)
    decomps = build_decompositions(cp, cp_qf, decomp_path, False)
    nat, nat_sol = highs_input(natural(cp_qf, db).program)
    assert set(nat) == {"c", *MATRICES, "bounds", "method", "options"}
    assert nat["A_eq"] is None and nat["b_eq"] is None and (nat["b_ub"] >= 0).all()
    assert nat["bounds"] == (0, None) and nat["method"] == "highs"
    assert nat["options"] == {"presolve": False, "simplex_strategy": 4}
    assert nat_sol.solver.call.options == nat["options"] and nat_sol.solver.fallback is None
    fac, fac_sol = highs_input(factorized(cp_qf, decomps, db).program)
    assert fac["A_eq"].shape[0] > 0 and fac["method"] == "highs-ipm"
    assert fac["options"] == {} and fac_sol.solver.call.options == {}
    assert fac_sol.solver.fallback is None
    assert abs(fac_sol.value - nat_sol.value) <= 1e-6 * max(1.0, abs(nat_sol.value))


def test_fractional_widths_stay_on_simplex(tmp_path):
    # a cover LP has only <= rows, but the origin violates them (each
    # vertex covered at least once), so it gets the plain highs call
    _, _, decomp_path = delivery_case(tmp_path)
    (tree,) = load_decompositions(decomp_path)
    with highs_calls() as calls:
        assert tree_width(tree, qf(tree.query)) == 2.0
    assert len(calls) == len(tree.bags) and all(
        call["A_eq"] is None and call["method"] == "highs" and call["options"] == {}
        for call in calls
    )


def random_program(seed: int):
    db, _, cp = rand_flagship_instance(random.Random(seed))
    cpq = quantifier_eliminate(cp)
    return db, cpq, build_decompositions(cp, cpq, None, True)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_random_programs_compile_like_the_conversion(seed):
    db, cp, decomps = random_program(seed)
    for mode in MODES:
        ilp = interpret(mode, cp, db, decomps)
        want_lp, _ = dict_assembly(mode, cp, db, decomps)
        same_rows(ilp.program, want_lp)
        got, got_sol = highs_input(ilp.program)
        want, want_sol = highs_input(sparse_lp("maximize", *want_lp))
        assert_same_input(got, want)
        assert (got_sol.status, got_sol.value) == (want_sol.status, want_sol.value)
