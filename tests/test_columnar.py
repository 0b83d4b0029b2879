"""The columnar compilation hands HiGHS exactly what the dict assembly builds.

Each interpretation compiles straight to integer columns.  These tests
capture the arguments ``scipy.optimize.linprog`` receives and compare them,
exactly, with those of the same program built row by row as
``{name: coefficient}`` dicts (``oracles.dict_assembly``) and handed to
``LpBuilder`` as written (``makers.sparse_lp``).  The compiled LPs hold
one entry per class of identical columns (``SparseLp.lead``): answers no
weight tells apart, and bag rows that agree on their bag's separators.
The dict assembly holds one per answer or bag row.  Its rows and LP files
are compared with the compiled ones as they are; its classes, found by
brute force (``oracles.groups_by_brute_force``), with the compiled ones;
and its HiGHS input, once merged by the compiled program's classes
(``oracles.merged``), with the compiled input.
"""

import json
import random
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
from hypothesis import event, given, settings
from hypothesis import strategies as st

from lpcq import interpret as interpretation
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
from oracles import (
    dict_assembly, groups_by_brute_force, merged, objective_terms, parse_lp, written_rows,
)

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
    bounds = got["bounds"], want["bounds"]
    assert bounds[0] == bounds[1] if isinstance(bounds[0], tuple) else np.array_equal(*bounds)
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


def same_classes(mode, got, want) -> None:
    """The classes of *got* are groups of identical columns of *want*, the
    same program built per answer or bag row: exactly those groups in
    factorized mode, where the tree gives them, and within them in the
    other modes, where the data can make columns of two classes
    identical."""
    groups = groups_by_brute_force(want)
    lead = list(range(len(got.names))) if got.lead is None else got.lead.tolist()
    if mode == "factorized":
        assert lead == groups
    else:
        assert all(groups[j] == groups[k] for j, k in enumerate(lead))


def same_solve(got_program, want_lp):
    """The solution of the compiled program, after checking that HiGHS gets
    what it gets for the dict assembly's program merged by the compiled
    classes, and reaches the optimum of the unmerged one; returns the
    input HiGHS got for the unmerged program too."""
    merged_lp, classes = merged(want_lp, got_program)
    got, got_sol = highs_input(got_program)
    want, want_sol = highs_input(sparse_lp("maximize", *merged_lp, classes=classes))
    assert_same_input(got, want)
    assert got_sol.nonzeros == want_sol.nonzeros
    assert (got_sol.status, got_sol.value) == (want_sol.status, want_sol.value)
    unmerged, unmerged_sol = highs_input(sparse_lp("maximize", *want_lp))
    assert unmerged_sol.status == got_sol.status
    if got_sol.status == "optimal":
        assert unmerged_sol.value == pytest.approx(got_sol.value, rel=1e-9, abs=1e-9)
    return got_sol, unmerged


def same_lp_text(got, want, tmp_path) -> bool:
    """Whether ``export_lp`` writes the same files for both programs."""
    texts = []
    for label, lp in (("got", got), ("want", want)):
        path = tmp_path / f"{label}.lp"
        export_lp(lp, path)
        texts.append((path.read_text(), Path(f"{path}.names.json").read_text()))
    return texts[0] == texts[1]


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


# queries whose positional stems collide: th_a_r starts th_a_r1_r, and a'
# and a_ share the query id a_
STEMS = """
let a(x) = R(x)
let a_r1(x) = R(x)
let a'(x) = R(x)
let a_(x) = R(x)
maximize weight[(x): true](a) + weight[(x): true](a_r1) + weight[(x): true](a') + weight[(x): true](a_)
subject to weight[(x): x == 0](a) <= 1 /\\ weight[(x): x == 10](a_r1) <= 2
        /\\ weight[(x): x == 0](a') <= 3 /\\ weight[(x): x == 1](a_) <= 4
"""


def cases(tmp_path):
    yield "delivery", delivery_case(tmp_path)
    for name in ("privacy", "smeasure"):
        yield name, demo_case(name)
    yield "fractions", (parse(FRACTIONS), make_db(R1=[(0,), (1,)], R2=[(0,), (1,)]), None)
    yield "stems", (parse(STEMS), make_db(R=[(i,) for i in range(12)]), None)


def limited_cases(tmp_path, monkeypatch):
    """Each case with the content-name limit as it is, then at 1, which
    names every block of two or more rows by position."""
    for limit in (interpretation.CONTENT_NAME_LIMIT, 1):
        monkeypatch.setattr(interpretation, "CONTENT_NAME_LIMIT", limit)
        for label, case in cases(tmp_path):
            yield f"{label} at {limit}", case


@pytest.mark.parametrize("mode", MODES)
def test_highs_input_matches_dict_assembly(mode, tmp_path, monkeypatch):
    for label, (program, db, decomp_path) in limited_cases(tmp_path, monkeypatch):
        cp = close(normal_form(program), db)
        cp_qf = quantifier_eliminate(cp)
        decomps = build_decompositions(cp, cp_qf, decomp_path, decomp_path is None)
        ilp = interpret(mode, cp_qf, db, decomps)
        want_lp, want_provenance = dict_assembly(mode, cp_qf, db, decomps)

        assert ilp.provenance == want_provenance, label
        same_rows(ilp.program, want_lp)
        want_program = sparse_lp("maximize", *want_lp)
        same_classes(mode, ilp.program, want_program)
        got_sol, unmerged = same_solve(ilp.program, want_lp)
        # every program has rows, sent as matrix entries or as bounds
        assert got_sol.nonzeros + got_sol.solver.bounded > 0
        if label.split()[0] in ("delivery", "privacy"):
            # their weights read fewer variables than their queries have, so
            # the answers come in classes, and their trees have bags that
            # witness no target
            assert ilp.program.lead is not None, label

        # the LP file is the per-answer build's, and it round-trips to it
        path = tmp_path / f"{label.replace(' ', '_')}_{mode}.lp"
        assert same_lp_text(ilp.program, want_program, tmp_path)
        export_lp(ilp.program, path)
        parsed, _ = highs_input(parse_lp(path))
        assert_same_input(parsed, unmerged)


def test_method_rule_on_the_throughput_lps(tmp_path):
    # the natural LP is a packing LP, <= rows with bounds >= 0, and goes to
    # primal simplex from the origin; so does the factorized LP, whose
    # marginal rows sent all have the bound 0
    program, db, decomp_path = delivery_case(tmp_path)
    cp = close(normal_form(program), db)
    cp_qf = quantifier_eliminate(cp)
    decomps = build_decompositions(cp, cp_qf, decomp_path, False)
    nat, nat_sol = highs_input(natural(cp_qf, db).program)
    assert set(nat) == {"c", *MATRICES, "bounds", "method", "options"}
    assert nat["A_eq"] is None and nat["b_eq"] is None and (nat["b_ub"] >= 0).all()
    # at this size some stores have one answer class: their rows are bounds
    assert (nat["bounds"][:, 0] == 0).all() and (nat["bounds"][:, 1] >= 0).all()
    assert nat["method"] == "highs"
    assert nat["options"] == {"presolve": False, "simplex_strategy": 4}
    assert nat_sol.solver.call.options == nat["options"] and nat_sol.solver.fallback is None
    fac, fac_sol = highs_input(factorized(cp_qf, decomps, db).program)
    assert fac["A_eq"].shape[0] > 0 and fac["method"] == "highs" and not fac["b_eq"].any()
    assert fac["options"] == {"presolve": False, "simplex_strategy": 4}
    assert fac["options"] == fac_sol.solver.call.options
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
    # query names whose positional stems collide, as in STEMS
    db, _, cp = rand_flagship_instance(random.Random(seed), names=("a", "a_r1", "a'", "a_"))
    cpq = quantifier_eliminate(cp)
    return db, cpq, build_decompositions(cp, cpq, None, True)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       limit=st.sampled_from([interpretation.CONTENT_NAME_LIMIT, 2, 0]))
def test_random_programs_compile_like_the_conversion(seed, limit, tmp_path_factory):
    db, cp, decomps = random_program(seed)
    tmp_path = tmp_path_factory.mktemp("lp")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(interpretation, "CONTENT_NAME_LIMIT", limit)
        compile_like_the_conversion(db, cp, decomps, tmp_path)


def compile_like_the_conversion(db, cp, decomps, tmp_path):
    for mode in MODES:
        ilp = interpret(mode, cp, db, decomps)
        classes = ilp.program.lead is not None
        event(f"{mode}: {'fewer classes than columns' if classes else 'one class per column'}")
        want_lp, _ = dict_assembly(mode, cp, db, decomps)
        want_program = sparse_lp("maximize", *want_lp)
        same_rows(ilp.program, want_lp)
        same_classes(mode, ilp.program, want_program)
        assert same_lp_text(ilp.program, want_program, tmp_path)
        same_solve(ilp.program, want_lp)


# classes of answers: Q's answers (x, y), and weights that read x alone
CLASSES_DB = dict(R1=[(0,), (1,), (2,)], R2=[(0,), (1,)])
CLASSES = """
let Q(x, y) = R1(x) /\\ R2(y)
maximize weight[(x, y): true](Q)
subject to weight[(x, y): x == 2](Q) <= 1
        /\\ weight[(x, y): true](Q) <= 5
"""


@pytest.mark.parametrize("mode", ["natural", "replacement"])
def test_answers_no_weight_tells_apart_are_one_class(mode):
    # th_Q_0_0 and th_Q_0_1 differ only in y, which no weight reads: one
    # class, led by its lowest column, and the only one with entries
    db = make_db(**CLASSES_DB)
    lp = interpret(mode, close(parse(CLASSES), db), db, None).program
    column = {name: j for j, name in enumerate(lp.names)}
    lead = {name: lp.names[lp.lead[j]] for name, j in column.items() if name.startswith("th_")}
    assert lead == {f"th_Q_{x}_{y}": f"th_Q_{x}_0" for x in range(3) for y in range(2)}
    theta = [column[name] for name in lead]
    used = set(lp.cols.tolist()) | set(lp.obj_cols.tolist())
    assert used & set(theta) == {column["th_Q_0_0"], column["th_Q_1_0"], column["th_Q_2_0"]}
    # ... while every reader sees every answer
    assert lp.spread().lead is None
    everyone = " + ".join(f"1*th_Q_{x}_{y}" for x in range(3) for y in range(2))
    texts = list(lp.row_texts())
    assert any("1*th_Q_2_0 + 1*th_Q_2_1" in t and "th_Q_1" not in t for t in texts)
    assert any(everyone in t for t in texts)


def test_classes_with_identical_columns_go_to_highs_apart():
    # classes x = 0 and x = 1 meet the same terms, so their columns are
    # identical, by the data rather than by the program: HiGHS gets one
    # column per class, and the optimum is the same
    db = make_db(**CLASSES_DB)
    lp = natural(close(parse(CLASSES), db), db).program
    assert groups_by_brute_force(lp) == [0, 0, 0, 0, 4, 4]
    matrices = lp.matrices()
    assert [lp.names[j] for j in matrices.columns] == ["th_Q_0_0", "th_Q_1_0", "th_Q_2_0"]
    assert matrices.group.tolist() == [0, 0, 1, 1, 2, 2]
    solution = solve(lp)
    assert solution.value == pytest.approx(5.0) and solution.solver.columns == 3
    assert sum(solution.assignment[f"th_Q_{x}_0"] for x in range(3)) == pytest.approx(5.0)


def test_export_lists_only_unused_classes_under_bounds(tmp_path):
    # class x = 0 is in a row; class x = 1 is in none, so only its columns
    # are listed to keep them in the file
    db = make_db(R1=[(0,), (1,)], R2=[(0,), (1,)])
    program = """
    let Q(x, y) = R1(x) /\\ R2(y)
    maximize weight[(x, y): x == 0](Q)
    subject to weight[(x, y): x == 0](Q) <= 1
    """
    lp = natural(close(parse(program), db), db).program
    assert lp.lead.tolist() == [0, 0, 2, 2]
    path = tmp_path / "classes.lp"
    export_lp(lp, path)
    text = path.read_text()
    assert " c1: th_Q_0_0 + th_Q_0_1 <= 1\n" in text
    assert text.endswith("Bounds\n th_Q_1_0 >= 0\n th_Q_1_1 >= 0\nEnd\n")
