import json
import math
import random
import re

import numpy as np
import pytest
from scipy.sparse import csr_matrix

from lpcq.errors import CertificateError, IoError, NumericalFailureError
from lpcq import linprog
from lpcq.linprog import (
    FEAS_TOL,
    PRIMAL,
    PRIMAL_FROM_ORIGIN,
    ArrayAssignment,
    LpBuilder,
    Positional,
    certify,
    solve,
)
from lpcq.lpformat import export_lp

from makers import sparse_lp
from oracles import moved_left, parse_lp, vertex_enumeration_optimum


class TestSolveSmall:
    def test_worked_example(self):
        # max t00+t01+t10+t11 st t00+t01 <= 1, t10+t11 <= 1
        lp = sparse_lp(
            "maximize",
            dict(t00=1, t01=1, t10=1, t11=1),
            [(dict(t00=1, t01=1), "<=", 1.0), (dict(t10=1, t11=1), "<=", 1.0)],
        )
        sol = solve(lp)
        assert sol.status == "optimal"
        assert abs(sol.value - 2.0) < 1e-9

    def test_unbounded(self):
        sol = solve(sparse_lp("maximize", dict(xi=1.0)))
        assert sol.status == "unbounded"

    def test_infeasible_by_nonnegativity(self):
        lp = sparse_lp("maximize", {}, [(dict(xi=1.0), "<=", -1.0)])
        assert solve(lp).status == "infeasible"

    def test_minimize_desugars(self):
        lp = sparse_lp("minimize", dict(x=1.0), [(2.0, "<=", dict(x=1.0))])
        sol = solve(lp)
        assert sol.status == "optimal"
        assert abs(sol.value - 2.0) < 1e-9

    def test_equality_constraints(self):
        lp = sparse_lp(
            "maximize", dict(x=1.0, y=1.0), [(dict(x=1.0, y=1.0), "=", 3.0), (dict(x=1.0), "<=", 2.0)]
        )
        sol = solve(lp)
        assert abs(sol.value - 3.0) < 1e-9
        assert abs(sol.assignment["x"] + sol.assignment["y"] - 3.0) < 1e-7

    def test_declared_variable_reported(self):
        lp = sparse_lp("maximize", {}, variables=["ghost"])
        sol = solve(lp)
        assert sol.assignment["ghost"] == 0.0

    def test_no_variables(self):
        sol = solve(sparse_lp("maximize", 5.0))
        assert sol.status == "optimal" and sol.value == 5.0

    def test_negative_rhs_equality(self):
        lp = sparse_lp("maximize", dict(x=1.0), [(dict(x=-1.0), "=", -2.0)])
        sol = solve(lp)
        assert sol.status == "optimal"
        assert abs(sol.value - 2.0) < 1e-9

    def test_every_lp_goes_to_highs(self, monkeypatch):
        # even an LP far too small to need a sparse solver is handed to
        # scipy's linprog, looked up at call time, with keyword matrices
        import scipy.optimize

        real = scipy.optimize.linprog
        calls = []

        def spy(*args, **kwargs):
            calls.append(kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(scipy.optimize, "linprog", spy)
        lp = sparse_lp("maximize", dict(x=1.0, y=2.0), [(dict(x=1.0, y=1.0), "<=", 4.0)])
        sol = solve(lp)
        assert sol.status == "optimal" and abs(sol.value - 8.0) < 1e-9
        assert len(calls) == 1
        assert calls[0]["A_ub"].shape == (1, 2)
        assert calls[0]["method"] == "highs" and calls[0]["options"] == PRIMAL_FROM_ORIGIN
        assert sol.solver.method == "highs" and sol.solver.fallback is None

    def test_equality_rows_go_to_primal_simplex_after_presolve(self, monkeypatch):
        import scipy.optimize

        real = scipy.optimize.linprog
        calls = []

        def spy(*args, **kwargs):
            calls.append(kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(scipy.optimize, "linprog", spy)
        lp = sparse_lp(
            "maximize", dict(x=1.0, y=2.0), [(dict(x=1.0, y=1.0), "<=", 4.0), (dict(x=1.0), "=", 1.0)]
        )
        sol = solve(lp)
        assert sol.status == "optimal" and abs(sol.value - 7.0) < 1e-9
        assert [(call["method"], call["options"]) for call in calls] == [("highs", PRIMAL)]
        assert PRIMAL == {"simplex_strategy": 4}
        assert sol.solver.method == "highs" and sol.solver.call.options == PRIMAL
        assert sol.solver.call.status == 0 and sol.solver.certificate.ok

    def test_row_without_terms_never_reaches_highs(self):
        # the equality row 0 = 1 decides the LP before any method is chosen
        lp = sparse_lp("maximize", dict(x=1.0), [({}, "=", 1.0)])
        sol = solve(lp)
        assert sol.status == "infeasible"
        assert sol.solver.method is None and sol.solver.call is None


def failing(calls, fails):
    """A wrapper of ``scipy.optimize.linprog`` that records each call's
    method and options in *calls*, and reports HiGHS status 4 (a solve
    error) for every call that ``fails(method, options)`` picks."""
    import scipy.optimize

    real = scipy.optimize.linprog

    def call(*args, **kwargs):
        calls.append((kwargs["method"], kwargs["options"]))
        res = real(*args, **kwargs)
        if fails(kwargs["method"], kwargs["options"]):
            res.status, res.message = 4, "(HiGHS Status 4: Solve error)"
        return res

    return call


class TestFallback:
    # -a + b + 2c + 2d = 7 and -a + b + 3c + 2d = 3 force c = -4
    INFEASIBLE = sparse_lp(
        "minimize",
        dict(a=1.0, c=1.0, d=-2.0),
        [
            (dict(a=-3.0, b=2.0, c=-1.0, d=3.0), "<=", -2.0),
            (dict(a=3.0, b=-3.0, c=-1.0, d=1.0), "<=", 1.0),
            (dict(a=-1.0, b=1.0, c=2.0, d=2.0), "=", 7.0),
            (dict(a=-1.0, b=1.0, c=3.0, d=2.0), "=", 3.0),
        ],
    )

    def test_primal_solve_error_falls_back_to_plain_highs(self, monkeypatch):
        import scipy.optimize

        calls = []
        monkeypatch.setattr(scipy.optimize, "linprog",
                            failing(calls, lambda method, options: options == PRIMAL))
        sol = solve(self.INFEASIBLE)
        assert sol.status == "infeasible"
        assert calls == [("highs", PRIMAL), ("highs", {})]
        assert sol.solver.method == "highs" and sol.solver.call.options == PRIMAL
        assert sol.solver.call.status == 4
        assert sol.solver.fallback is not None
        assert sol.solver.fallback.method == "highs" and sol.solver.fallback.options == {}
        assert sol.solver.fallback.status == 2

    def test_primal_simplex_decides_it_alone(self, highs_calls):
        sol = solve(self.INFEASIBLE)
        assert sol.status == "infeasible" and sol.solver.fallback is None
        assert highs_calls == [("highs", PRIMAL)]

    @pytest.mark.parametrize("resolve_fails", [False, True])
    def test_re_solve_uses_simplex_and_only_its_failure_raises(
        self, monkeypatch, resolve_fails
    ):
        import scipy.optimize

        calls = []
        monkeypatch.setattr(scipy.optimize, "linprog", failing(
            calls, lambda method, options: options == PRIMAL or resolve_fails))
        lp = sparse_lp("maximize", dict(x=1.0, y=1.0), [(dict(x=1.0, y=1.0), "=", 3.0)])
        if resolve_fails:
            with pytest.raises(NumericalFailureError, match="Status 4"):
                solve(lp)
        else:
            sol = solve(lp)
            assert sol.status == "optimal" and abs(sol.value - 3.0) < 1e-9
            assert sol.solver.call.status == 4 and sol.solver.fallback.status == 0
        assert calls == [("highs", PRIMAL), ("highs", {})]


@pytest.fixture
def highs_calls(monkeypatch):
    """The method and options of every ``scipy.optimize.linprog`` call."""
    import scipy.optimize

    real = scipy.optimize.linprog
    calls = []

    def spy(*args, **kwargs):
        calls.append((kwargs["method"], kwargs["options"]))
        return real(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "linprog", spy)
    return calls


class TestMethodRule:
    """``choose_method``: an LP whose rows sent the origin satisfies goes
    to primal simplex without presolve, with or without equality rows; any
    other with equality rows to primal simplex after presolve; the rest to
    plain ``highs``."""

    def test_origin_feasible_packing_lp_goes_to_primal_simplex(self, highs_calls):
        lp = sparse_lp(
            "maximize", dict(w=1.0, x=2.0, y=3.0, z=1.0),
            [(dict(w=1.0, x=1.0, y=1.0), "<=", 4.0), (dict(y=1.0, z=2.0), "<=", 0.0),
             (dict(x=1.0), "<=", dict(z=1.0))],
        )
        sol = solve(lp)
        assert highs_calls == [("highs", {"presolve": False, "simplex_strategy": 4})]
        assert sol.status == "optimal" and abs(sol.value - 4.0) < 1e-9
        assert sol.solver.call.options == PRIMAL_FROM_ORIGIN and sol.solver.fallback is None
        assert sol.solver.reason == "no equality rows sent; the origin satisfies every row"
        assert sol.solver.as_dict()["options"] == PRIMAL_FROM_ORIGIN

    def test_one_negative_bound_gives_the_plain_call(self, highs_calls):
        lp = sparse_lp(
            "maximize", dict(x=2.0, y=3.0),
            [(dict(x=1.0, y=1.0), "<=", 4.0), (1.0, "<=", dict(x=1.0))],
        )
        sol = solve(lp)
        assert highs_calls == [("highs", {})]
        assert sol.status == "optimal" and abs(sol.value - 11.0) < 1e-9
        assert sol.solver.call.options == {}
        assert sol.solver.reason == "no equality rows sent; the origin violates a row"

    def test_equality_rows_give_primal_simplex_after_presolve(self, highs_calls):
        # the origin satisfies this equality row, but not the row x + y >= 1
        lp = sparse_lp("maximize", dict(x=1.0, y=1.0),
                       [(dict(x=1.0), "=", dict(y=2.0)), (dict(x=1.0), "<=", 2.0),
                        (1.0, "<=", dict(x=1.0, y=1.0))])
        sol = solve(lp)
        assert highs_calls == [("highs", {"simplex_strategy": 4})]
        assert sol.status == "optimal" and abs(sol.value - 3.0) < 1e-9
        assert sol.solver.call.options == PRIMAL
        assert sol.solver.reason == "1 equality rows sent; the origin violates a row"

    def test_equality_rows_the_origin_satisfies_go_without_presolve(self, highs_calls):
        # x = 2y has the bound 0, and x <= 2 is sent as a bound
        lp = sparse_lp("maximize", dict(x=1.0, y=1.0),
                       [(dict(x=1.0), "=", dict(y=2.0)), (dict(x=1.0), "<=", 2.0)])
        sol = solve(lp)
        assert highs_calls == [("highs", {"presolve": False, "simplex_strategy": 4})]
        assert sol.status == "optimal" and abs(sol.value - 3.0) < 1e-9
        assert sol.solver.call.options == PRIMAL_FROM_ORIGIN
        assert sol.solver.reason == "1 equality rows sent; the origin satisfies every row"
        assert sol.solver.bounded == 1 and sol.solver.substituted == 0

    def test_a_merged_pair_row_is_not_an_equality_row_sent(self, highs_calls):
        # x = y forces two columns equal: the row is gone, and what is left
        # is a packing LP the origin satisfies, whose one row x <= 2 is a
        # bound
        lp = sparse_lp("maximize", dict(x=1.0, y=1.0),
                       [(dict(x=1.0), "=", dict(y=1.0)), (dict(x=1.0), "<=", 2.0)])
        sol = solve(lp)
        assert highs_calls == [("highs", PRIMAL_FROM_ORIGIN)]
        assert sol.status == "optimal" and abs(sol.value - 4.0) < 1e-9
        assert sol.solver.reason == "no equality rows sent; the origin satisfies every row"
        assert sol.solver.columns == 1 and sol.nonzeros == 0 and sol.solver.bounded == 1

    def test_unbounded_origin_feasible_maximize(self, highs_calls):
        lp = sparse_lp("maximize", dict(x=1.0, y=1.0), [(dict(x=1.0, y=-1.0), "<=", 1.0)])
        sol = solve(lp)
        assert sol.status == "unbounded"
        assert highs_calls == [("highs", PRIMAL_FROM_ORIGIN)] and sol.solver.fallback is None

    @pytest.mark.parametrize("resolve_fails", [False, True])
    def test_primal_failure_re_solves_with_plain_highs(self, monkeypatch, resolve_fails):
        import scipy.optimize

        calls = []
        monkeypatch.setattr(scipy.optimize, "linprog", failing(
            calls, lambda method, options: bool(options) or resolve_fails))
        lp = sparse_lp("maximize", dict(x=1.0, y=2.0), [(dict(x=1.0, y=1.0), "<=", 3.0)])
        if resolve_fails:
            with pytest.raises(NumericalFailureError, match="Status 4"):
                solve(lp)
        else:
            sol = solve(lp)
            assert sol.status == "optimal" and abs(sol.value - 6.0) < 1e-9
            assert sol.solver.call.options == PRIMAL_FROM_ORIGIN and sol.solver.call.status == 4
            assert sol.solver.fallback.method == "highs" and sol.solver.fallback.options == {}
        assert calls == [("highs", PRIMAL_FROM_ORIGIN), ("highs", {})]


class TestCertificate:
    def test_clipped_negative_is_reported(self, monkeypatch):
        # a coordinate HiGHS returns slightly below 0 reads as 0, and the
        # certificate says how much was clipped
        import scipy.optimize

        real = scipy.optimize.linprog

        def nudged(*args, **kwargs):
            res = real(*args, **kwargs)
            res.x = res.x.copy()
            res.x[1] = -2e-8  # y, whose optimum is 0
            return res

        monkeypatch.setattr(scipy.optimize, "linprog", nudged)
        lp = sparse_lp("maximize", dict(x=1.0), [(dict(x=1.0, y=1.0), "<=", 4.0)])
        sol = solve(lp)
        assert sol.assignment["y"] == 0.0
        cert = sol.solver.certificate
        assert cert.ok
        assert cert.most_negative == -2e-8 and cert.clipped_mass == 2e-8

    def test_violated_row_raises(self, monkeypatch):
        import scipy.optimize

        real = scipy.optimize.linprog

        def broken(*args, **kwargs):
            res = real(*args, **kwargs)
            res.x = res.x + 1e-3
            return res

        monkeypatch.setattr(scipy.optimize, "linprog", broken)
        lp = sparse_lp("maximize", dict(x=1.0), [(dict(x=1.0, y=1.0), "<=", 4.0)])
        with pytest.raises(CertificateError) as exc:
            solve(lp)
        assert exc.value.certificate.ub_violation == pytest.approx(2e-3)

    def test_tolerance_scales_with_the_largest_bound(self):
        x = np.array([1.0, 2.0])
        A = csr_matrix(np.array([[1.0, 1.0]]))
        cert = certify(x, A, np.array([3.0 - 5e-5]), A, np.array([1e3]))
        assert cert.tolerance == pytest.approx(FEAS_TOL * 1e3)
        assert cert.ub_violation == pytest.approx(5e-5)
        assert cert.eq_violation == pytest.approx(997.0)
        assert not cert.ok
        assert certify(x, A, np.array([3.0 - 5e-5]), None, None).ok is False
        assert certify(x, None, None, A, np.array([3.0])).ok

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_a_point_that_is_not_finite_fails(self, bad):
        # max(0.0, nan) is 0.0, so a NaN residual must not be read through it
        A = csr_matrix(np.array([[1.0, 1.0]]))
        for rows in ((A, np.array([3.0]), None, None), (None, None, A, np.array([3.0])),
                     (None, None, None, None)):
            cert = certify(np.array([bad, 1.0]), *rows)
            assert cert.violation == math.inf and not cert.ok, rows

    def test_a_residual_that_is_not_finite_fails(self):
        # a finite point, but inf - inf in the row: the residual is NaN
        A = csr_matrix(np.array([[math.inf, -math.inf]]))
        for rows in ((A, np.array([3.0]), None, None), (None, None, A, np.array([3.0]))):
            cert = certify(np.array([1.0, 1.0]), *rows)
            assert cert.violation == math.inf and not cert.ok, rows


def _random_lp(rng, n_vars, n_rows, with_eq=True):
    """A random bounded LP, and its sense, objective, objective constant and
    rows as plain dicts."""
    variables = [f"x{i}" for i in range(n_vars)]
    rows = []
    for _ in range(n_rows):
        coeffs = {
            v: rng.randint(-3, 5)
            for v in rng.sample(variables, k=rng.randint(1, n_vars))
        }
        coeffs = {v: float(c) for v, c in coeffs.items() if c}
        if not coeffs:
            continue
        rel = "=" if (with_eq and rng.random() < 0.25) else "<="
        rows.append((coeffs, rel, float(rng.randint(0, 8))))
    # a single mass cap keeps the program bounded without bloating the
    # constraint count the vertex oracle has to enumerate over
    rows.append(({v: 1.0 for v in variables}, "<=", float(rng.randint(2, 10))))
    constant = float(rng.randint(-2, 2))
    objective = {v: float(rng.randint(-2, 4)) for v in variables}
    sense = rng.choice(["maximize", "minimize"])
    return sparse_lp(sense, (constant, objective), rows), (sense, objective, constant, rows)


def _satisfies(rows, point, tol=FEAS_TOL):
    for coeffs, rel, bound in rows:
        lhs = sum(c * point[v] for v, c in coeffs.items())
        if (abs(lhs - bound) if rel == "=" else lhs - bound) > tol:
            return False
    return True


class TestSolveAgainstOracle:
    def test_random_bounded_lps(self, rng):
        checked = 0
        for trial in range(120):
            n_vars = rng.randint(1, 4)
            lp, (sense, objective, constant, rows) = _random_lp(rng, n_vars, rng.randint(0, 3))
            oracle = vertex_enumeration_optimum(sense, objective, constant, rows, lp.names)
            sol = solve(lp)
            if oracle is None:
                assert sol.status == "infeasible"
                continue
            value, _ = oracle
            assert sol.status == "optimal"
            assert math.isclose(sol.value, value, rel_tol=0, abs_tol=1e-6), (
                sense, sol.value, value)
            checked += 1
        assert checked > 60

    def test_wider_instances(self, rng):
        for _ in range(6):
            lp, spec = _random_lp(rng, rng.randint(8, 12), rng.randint(1, 2), with_eq=False)
            sol = solve(lp)
            oracle = vertex_enumeration_optimum(*spec, lp.names)
            assert oracle is not None
            assert math.isclose(sol.value, oracle[0], abs_tol=1e-6)

    def test_solution_feasible_and_matches_value(self, rng):
        for _ in range(40):
            lp, (_, objective, constant, rows) = _random_lp(rng, rng.randint(1, 5), rng.randint(0, 4))
            sol = solve(lp)
            if sol.status != "optimal":
                continue
            assert _satisfies(rows, sol.assignment)
            value = constant + sum(c * sol.assignment[v] for v, c in objective.items())
            assert math.isclose(value, sol.value, abs_tol=1e-7)
            assert all(v >= 0.0 for v in sol.assignment.values())


def _with_copies(rng, spec, copies):
    """The LP of *spec* (``_random_lp``'s plain form) with *copies* more
    columns, each in the class of a random column, and that LP written out
    with every copy's cost and coefficients.  A copy of ``v`` is named
    ``v~k``, which sorts after ``v``."""
    sense, objective, constant, rows = spec
    twins = {f"{rng.choice(sorted(objective))}~{k}" for k in range(copies)}
    classes = {t: t.split("~")[0] for t in twins}

    def twinned(terms):
        return {**terms, **{t: terms[v] for t, v in classes.items() if v in terms}}

    lp = sparse_lp(sense, (constant, objective), rows, variables=twins, classes=classes)
    rows = [(twinned(coeffs), rel, bound) for coeffs, rel, bound in rows]
    return lp, (sense, twinned(objective), constant, rows)


def _with_classes(rng, n_rows, n_cols):
    """An LP whose columns fall into a few classes, each named in the rows
    and the objective by a random column of it."""
    names = [f"x{j:03d}" for j in range(n_cols)]
    members = {}
    for name in names:
        members.setdefault(rng.randrange(4), []).append(name)
    classes = {name: rng.choice(group) for group in members.values() for name in group}
    stand_ins = sorted(set(classes.values()))
    rows = []
    for _ in range(n_rows):
        named = rng.sample(stand_ins, rng.randint(0, len(stand_ins)))
        rows.append(({v: float(rng.choice([1, 2, -1])) for v in named}, "<=", 5.0))
    objective = {v: float(rng.choice([0, 1, 2])) for v in stand_ins}
    return sparse_lp("minimize", objective, rows, variables=names, classes=classes)


class TestMergedColumns:
    """``SparseLp.matrices`` hands HiGHS one column per class of columns
    (``SparseLp.lead``), given to ``LpBuilder.block`` as stand-ins."""

    def test_the_group_value_goes_on_the_lowest_column(self):
        # {a, b} is a class named by b, and {c, d} one named by c: the
        # optimum 4 sits on a, the lowest column of its class
        lp = sparse_lp("maximize", dict(b=2.0, c=1.0), [(dict(b=1.0, c=1.0), "<=", 2.0)],
                       variables=["a", "d"], classes=dict(a="b", d="c"))
        sol = solve(lp)
        assert sol.value == pytest.approx(4.0)
        assert [sol.assignment[v] for v in "abcd"] == pytest.approx([2.0, 0.0, 0.0, 0.0])
        assert sol.solver.columns == 2 and sol.nonzeros == 2
        assert sol.solver.certificate.ok

    def test_a_point_off_the_lowest_columns_certifies_on_its_sums(self, rng):
        for _ in range(20):
            lp = _with_classes(rng, rng.randint(1, 5), rng.randint(2, 20))
            matrices = lp.matrices()
            x = np.array([rng.uniform(-1, 2) for _ in lp.names])
            spread = lp.spread()
            full = csr_matrix((spread.vals, spread.cols, spread.indptr),
                              shape=(lp.row_count, len(lp.names)))
            want = certify(x, full, lp.rconst - lp.lconst, None, None)
            got = matrices.certify(x)
            assert got.ub_violation == pytest.approx(want.ub_violation, abs=1e-12)
            assert (got.most_negative, got.clipped_mass) == (want.most_negative, want.clipped_mass)

    @pytest.mark.parametrize("rows, verdict", [
        ([(dict(x=1.0), "<=", -1.0)], "infeasible"),
        ([(dict(x=1.0), "=", 2.0), (dict(x=1.0), "<=", 1.0)], "infeasible"),
        ([(1.0, "<=", dict(x=1.0))], "unbounded"),
    ])
    def test_verdicts_stay(self, rows, verdict):
        # x stands for the class {x, y}
        lp = sparse_lp("maximize", dict(x=1.0), rows, variables=["y"], classes=dict(y="x"))
        assert len(lp.matrices().columns) == 1
        sol = solve(lp)
        assert sol.status == verdict and sol.solver.columns == 1

    def test_random_lps_with_copies_against_the_oracle(self, rng):
        checked = merged = 0
        for _ in range(80):
            spec = _random_lp(rng, rng.randint(1, 4), rng.randint(0, 3))[1]
            lp, planted = _with_copies(rng, spec, rng.randint(1, 3))
            sol = solve(lp)
            merged += sol.solver.columns < len(lp.names)
            oracle = vertex_enumeration_optimum(*planted, lp.names)
            if oracle is None:
                assert sol.status == "infeasible"
                continue
            assert sol.status == "optimal"
            assert math.isclose(sol.value, oracle[0], abs_tol=1e-6), (sol.value, oracle[0])
            assert _satisfies(planted[3], sol.assignment)
            unsent = np.setdiff1d(np.arange(len(lp.names)), lp.matrices().columns)
            assert all(sol.assignment[lp.names[j]] == 0.0 for j in unsent.tolist())
            checked += 1
        assert checked > 40 and merged == 80


def _with_pairs(rng, spec, pairs):
    """The LP of *spec* (``_random_lp``'s plain form) with *pairs* more
    equality rows ``a*u - a*v = 0`` between random columns."""
    sense, objective, constant, rows = spec
    names = sorted(objective)
    for _ in range(pairs):
        u, v = rng.sample(names, 2) if len(names) > 1 else (names[0], names[0])
        a = float(rng.choice([1, 2, 3, -1, -2]))
        if u != v:
            rows = [*rows, ({u: a, v: -a}, "=", 0.0)]
    return sparse_lp(sense, (constant, objective), rows), (sense, objective, constant, rows)


class TestForcedEqualColumns:
    """``SparseLp.matrices`` hands HiGHS one column per class of columns
    that equality rows ``a*x - a*y = 0`` force equal, and drops those
    rows."""

    def test_a_chain_of_three_is_one_column(self):
        # 2a - 2b = 0 and c = b tie a, b and c; d stays apart
        lp = sparse_lp("maximize", dict(a=1.0, b=2.0, c=3.0, d=1.0),
                       [(dict(a=2.0), "=", dict(b=2.0)), (dict(c=1.0), "=", dict(b=1.0)),
                        (dict(a=1.0, d=1.0), "<=", 2.0), (dict(c=2.0, d=1.0), "<=", 3.0)])
        matrices = lp.matrices()
        assert matrices.columns.tolist() == [0, 1, 2, 3]
        assert matrices.classes.tolist() == [0, 0, 0, 1]
        assert matrices.c.tolist() == [-6.0, -1.0]  # the costs summed, maximize negated
        assert matrices.A_eq is None and matrices.A_ub.toarray().tolist() == [[1, 1], [2, 1]]
        assert matrices.nonzeros == 4
        checked_ub, _, checked_eq, b_eq = matrices.checked
        assert checked_eq.toarray().tolist() == [[2, -2, 0, 0], [0, -1, 1, 0]]
        assert b_eq.tolist() == [0.0, 0.0] and checked_ub.shape == (2, 4)

    def test_a_long_chain_takes_its_lowest_column_as_lead(self):
        # x0 = x2 = ... = x8, with the odd columns apart between them; the
        # pairs run from the highest column down, so a label reaches the
        # top of the chain only over several rounds
        names = [f"x{k}" for k in range(9)]
        pairs = [(dict([(names[k], 3.0)]), "=", dict([(names[k + 2], 3.0)]))
                 for k in reversed(range(0, len(names) - 2, 2))]
        # the odd columns differ in cost, so none of them are identical
        costs = {name: 3.0 if k % 2 == 0 else k / 8 for k, name in enumerate(names)}
        lp = sparse_lp("maximize", costs, [*pairs, ({name: 1.0 for name in names}, "<=", 9.0)])
        matrices = lp.matrices()
        assert matrices.columns.tolist() == list(range(9))
        assert matrices.classes.tolist() == [0, 1, 0, 2, 0, 3, 0, 4, 0]
        assert matrices.c.tolist() == [-15.0, -0.125, -0.375, -0.625, -0.875]
        assert matrices.A_eq is None
        sol = solve(lp)
        assert sol.value == pytest.approx(27.0) and sol.solver.certificate.ok
        assert [sol.assignment[name] for name in names[0::2]] == pytest.approx([1.8] * 5)

    def test_expand_puts_the_class_value_on_every_column_of_a_chain(self):
        lp = sparse_lp("maximize", dict(a=1.0, b=1.0, c=1.0),
                       [(dict(a=2.0), "=", dict(b=2.0)), (dict(b=3.0), "=", dict(c=3.0)),
                        (dict(a=1.0, b=1.0, c=1.0), "<=", 6.0)])
        matrices = lp.matrices()
        assert len(matrices.c) == 1
        assert matrices.expand(np.array([2.5])).tolist() == [2.5, 2.5, 2.5]
        sol = solve(lp)
        assert sol.status == "optimal" and sol.value == pytest.approx(6.0)
        assert [sol.assignment[v] for v in "abc"] == pytest.approx([2.0, 2.0, 2.0])
        assert sol.solver.columns == 1 and sol.solver.certificate.ok

    def test_a_class_and_a_forced_equal_class_expand_together(self):
        # b and c are a class, named by b; a = b ties a to it
        lp = sparse_lp("maximize", dict(a=1.0, b=1.0),
                       [(dict(a=1.0), "=", dict(b=1.0)), (dict(a=1.0, b=1.0), "<=", 4.0)],
                       variables=["c"], classes=dict(c="b"))
        matrices = lp.matrices()
        assert matrices.columns.tolist() == [0, 1] and matrices.group.tolist() == [0, 1, 1]
        assert matrices.classes.tolist() == [0, 0]
        assert matrices.expand(np.array([2.0])).tolist() == [2.0, 2.0, 0.0]
        sol = solve(lp)
        assert sol.value == pytest.approx(4.0) and sol.solver.certificate.ok

    @pytest.mark.parametrize("row", [
        (dict(a=1.0), "=", (1.0, dict(b=1.0))),  # a bound other than 0
        (dict(a=1.0), "=", (1e-12, dict(b=1.0))),
        (dict(a=1.0, b=1.0), "=", 0.0),  # entries of the same sign
        (dict(a=2.0), "=", dict(b=1.0)),  # entries of different size
        (dict(a=1.0), "<=", dict(b=1.0)),  # not an equality row
        (dict(a=1.0, c=1.0), "=", dict(b=1.0)),  # three entries
    ])
    def test_other_rows_are_left_alone(self, row):
        lp = sparse_lp("maximize", dict(a=1.0, b=2.0, c=3.0),
                       [row, (dict(a=1.0, b=1.0, c=1.0), "<=", 5.0)])
        matrices = lp.matrices()
        assert matrices.classes.tolist() == [0, 1, 2]
        assert len(matrices.c) == 3
        sent = (matrices.A_ub, matrices.b_ub, matrices.A_eq, matrices.b_eq)
        assert all(a is b for a, b in zip(matrices.checked, sent))  # no second merge
        assert (0 if matrices.A_eq is None else matrices.A_eq.shape[0]) == (row[1] == "=")

    def test_a_row_left_without_terms_is_checked_against_its_bound(self):
        # a = b makes a - b <= -1 read 0 <= -1
        lp = sparse_lp("maximize", dict(a=1.0),
                       [(dict(a=1.0), "=", dict(b=1.0)), (dict(a=1.0), "<=", (-1.0, dict(b=1.0))),
                        (dict(a=1.0), "<=", 3.0)])
        matrices = lp.matrices()
        assert len(matrices.c) == 1 and not matrices.constants_hold
        assert solve(lp).status == "infeasible"

    def test_certify_flags_a_point_that_breaks_a_dropped_row(self):
        lp = sparse_lp("maximize", dict(a=1.0, b=1.0, c=1.0),
                       [(dict(a=2.0), "=", dict(b=2.0)), (dict(b=1.0), "=", dict(c=1.0)),
                        (dict(a=1.0, b=1.0, c=1.0), "<=", 3.0)])
        matrices = lp.matrices()
        assert matrices.A_eq is None  # both pair rows were dropped
        assert matrices.certify(np.array([1.0, 1.0, 1.0])).ok
        broken = matrices.certify(np.array([1.0, 1.0, 0.5]))
        assert not broken.ok and broken.eq_violation == pytest.approx(0.5)
        assert broken.ub_violation == 0.0

    def test_random_lps_with_pairs_against_the_oracle(self, rng):
        checked = merged = 0
        for _ in range(120):
            spec = _random_lp(rng, rng.randint(2, 5), rng.randint(0, 3))[1]
            lp, planted = _with_pairs(rng, spec, rng.randint(1, 3))
            sol = solve(lp)
            matrices = lp.matrices()
            merged += len(matrices.c) < len(matrices.columns)
            oracle = vertex_enumeration_optimum(*planted, lp.names)
            if oracle is None:
                assert sol.status == "infeasible"
                continue
            assert sol.status == "optimal"
            assert math.isclose(sol.value, oracle[0], abs_tol=1e-6), (sol.value, oracle[0])
            assert _satisfies(planted[3], sol.assignment) and sol.solver.certificate.ok
            checked += 1
        assert checked > 40 and merged > 80


def _with_leaves(rng, spec, bounds, leaves):
    """The LP of *spec* (``_random_lp``'s plain form) with *bounds* more
    rows ``a*v <= b`` on one column each, most with a > 0 and b >= 0, and
    *leaves* more columns ``l0``, ... of cost 0, each in one equality row
    ``a*l = (a sum of other columns with coefficients of a's sign)`` and
    in no other row, the sides of a row swapped at random."""
    sense, objective, constant, rows = spec
    names = sorted(objective)
    for _ in range(bounds):
        a, b = float(rng.choice([1, 2, 3, -1])), float(rng.choice([0, 1, 2, 5, -1]))
        rows = [*rows, ({rng.choice(names): a}, "<=", b)]
    for k in range(leaves):
        a = float(rng.choice([1, 2, -1, -3]))
        named = rng.sample(names, rng.randint(1, len(names)))
        rest = {v: a * rng.choice([0.5, 1.0, 2.0]) for v in named}
        row = ({f"l{k}": a}, "=", rest)
        rows = [*rows, row if rng.random() < 0.5 else row[::-1]]
    written = [({**lhs, **{v: -c for v, c in rhs.items()}}, rel, 0.0) if isinstance(rhs, dict)
               else (lhs, rel, rhs) for lhs, rel, rhs in rows]
    lp = sparse_lp(sense, (constant, objective), rows, variables=[f"l{k}" for k in range(leaves)])
    return lp, (sense, objective, constant, written)


class TestReductions:
    """``SparseLp.matrices`` sends a ``<=`` row with one entry a > 0 and a
    bound b >= 0 as the bound b / a on its column, and takes out a column
    of cost 0 whose one entry is in an equality row with the bound 0 that
    it alone closes, with that row."""

    def test_singleton_rows_are_bounds_the_smallest_per_column(self):
        lp = sparse_lp("maximize", dict(x=1.0, y=1.0),
                       [(dict(x=1.0), "<=", 2.0), (dict(x=2.0), "<=", 3.0),
                        (dict(x=1.0, y=1.0), "<=", 4.0)])
        matrices = lp.matrices()
        assert matrices.bounded == 2 and matrices.substituted == 0
        assert matrices.bounds.tolist() == [[0.0, 1.5], [0.0, math.inf]]
        assert matrices.A_ub.toarray().tolist() == [[1.0, 1.0]] and matrices.b_ub.tolist() == [4.0]
        assert matrices.nonzeros == 2
        sol = solve(lp)
        assert sol.status == "optimal" and sol.value == pytest.approx(4.0)
        assert sol.solver.bounded == 2 and sol.solver.certificate.ok
        assert sol.assignment["x"] <= 1.5 + 1e-9

    @pytest.mark.parametrize("row", [
        (dict(x=-1.0), "<=", 1.0),  # a < 0
        (dict(x=1.0), "<=", -1.0),  # b < 0
        (dict(x=1.0), "=", 1.0),  # an equality row
        (dict(x=1.0), "=", 0.0),
    ])
    def test_other_singleton_rows_stay_rows(self, row):
        lp = sparse_lp("maximize", dict(x=1.0, y=2.0), [row, (dict(x=1.0, y=1.0), "<=", 5.0)])
        matrices = lp.matrices()
        assert matrices.bounded == matrices.substituted == 0 and matrices.bounds == (0, None)
        sent = (matrices.A_ub, matrices.b_ub, matrices.A_eq, matrices.b_eq)
        assert all(a is b for a, b in zip(matrices.checked, sent))

    def test_a_leaf_column_is_substituted_out(self):
        # 2z = x + 3y: z has cost 0 and no other entry, so the row only
        # says what z is
        lp = sparse_lp("maximize", dict(x=1.0, y=1.0),
                       [(dict(z=2.0), "=", dict(x=1.0, y=3.0)), (dict(x=1.0, y=1.0), "<=", 3.0)])
        matrices = lp.matrices()
        assert matrices.substituted == 1 and matrices.bounded == 0
        assert matrices.A_eq is None and len(matrices.c) == 2
        assert matrices.classes.tolist() == [0, 1, 2]  # z, the last column, is out
        assert matrices.expand(np.array([1.0, 2.0])).tolist() == [1.0, 2.0, 3.5]
        sol = solve(lp)
        assert sol.status == "optimal" and sol.value == pytest.approx(3.0)
        assert sol.solver.substituted == 1 and sol.solver.columns == 2
        assert 2 * sol.assignment["z"] == pytest.approx(sol.assignment["x"] + 3 * sol.assignment["y"])
        assert sol.solver.certificate.ok

    @pytest.mark.parametrize("row", [
        (dict(a=-2.0), "=", dict(x=-1.0, y=-3.0)),  # the signs flipped
        (dict(x=1.0, y=3.0), "=", dict(a=2.0)),  # the sides swapped
    ])
    def test_expand_recovers_the_value_whatever_the_signs(self, row):
        lp = sparse_lp("maximize", dict(x=1.0, y=1.0), [row, (dict(x=1.0, y=1.0), "<=", 3.0)])
        matrices = lp.matrices()
        assert matrices.substituted == 1 and matrices.classes.tolist() == [2, 0, 1]
        assert matrices.expand(np.array([1.0, 2.0])).tolist() == [3.5, 1.0, 2.0]

    @pytest.mark.parametrize("row, cost, more", [
        ((dict(z=2.0), "=", dict(x=1.0, y=3.0)), 1.0, []),  # z has a cost
        ((dict(z=2.0), "=", (1.0, dict(x=1.0, y=3.0))), 0.0, []),  # a bound other than 0
        ((dict(z=2.0, x=1.0), "=", dict(y=3.0)), 0.0, []),  # a neighbour of z's sign
        ((dict(z=2.0), "=", dict(x=1.0, y=3.0)), 0.0,
         [(dict(x=1.0, z=1.0), "<=", 4.0)]),  # z in a second row
        ((dict(z=2.0), "<=", dict(x=1.0, y=3.0)), 0.0, []),  # not an equality row
    ])
    def test_other_columns_stay(self, row, cost, more):
        lp = sparse_lp("maximize", dict(x=1.0, y=1.0, z=cost),
                       [row, (dict(x=1.0, y=1.0), "<=", 3.0), *more])
        matrices = lp.matrices()
        assert matrices.substituted == 0 and len(matrices.c) == 3
        sent = (matrices.A_ub, matrices.b_ub, matrices.A_eq, matrices.b_eq)
        assert all(a is b for a, b in zip(matrices.checked, sent))

    def test_two_candidates_in_one_row_give_up_one(self):
        # 2u = v: u and v both have cost 0 and no other entry; u, the first,
        # is substituted out, and v stays, now in no row
        lp = sparse_lp("maximize", dict(x=1.0),
                       [(dict(u=2.0), "=", dict(v=1.0)), (dict(x=1.0), "<=", 1.0)])
        matrices = lp.matrices()
        assert matrices.substituted == 1 and matrices.bounded == 1
        assert matrices.A_ub is None and matrices.A_eq is None and len(matrices.c) == 2
        assert matrices.classes.tolist() == [2, 0, 1]
        assert matrices.expand(np.array([4.0, 1.0])).tolist() == [2.0, 4.0, 1.0]
        sol = solve(lp)
        assert sol.value == pytest.approx(1.0) and sol.solver.certificate.ok
        assert 2 * sol.assignment["u"] == pytest.approx(sol.assignment["v"])

    def test_every_column_taken_out_leaves_no_call(self, highs_calls):
        # 2z = 0 closes z's row: nothing is left to send
        lp = sparse_lp("maximize", 2.0, [(dict(z=2.0), "=", 0.0)])
        sol = solve(lp)
        assert highs_calls == [] and sol.status == "optimal" and sol.value == 2.0
        assert sol.solver.reason == "no columns sent" and sol.solver.substituted == 1
        assert sol.assignment["z"] == 0.0 and sol.solver.certificate.ok

    def test_certify_flags_a_point_that_breaks_a_dropped_row(self):
        # x <= 2 is a bound, and 2z = x + y is substituted out
        lp = sparse_lp("maximize", dict(x=1.0, y=1.0),
                       [(dict(x=1.0), "<=", 2.0), (dict(z=2.0), "=", dict(x=1.0, y=1.0)),
                        (dict(x=1.0, y=1.0), "<=", 3.0)])
        matrices = lp.matrices()
        assert matrices.bounded == matrices.substituted == 1
        assert matrices.A_eq is None and matrices.A_ub.shape == (1, 2)
        assert matrices.certify(np.array([2.0, 1.0, 1.5])).ok
        over = matrices.certify(np.array([2.5, 0.0, 1.25]))
        assert not over.ok and over.ub_violation == pytest.approx(0.5) and over.eq_violation == 0.0
        off = matrices.certify(np.array([1.0, 1.0, 2.0]))
        assert not off.ok and off.eq_violation == pytest.approx(2.0) and off.ub_violation == 0.0

    @pytest.mark.parametrize("rows, verdict", [
        ([(dict(x=1.0), "<=", 1.0), (dict(x=1.0), "=", 2.0)], "infeasible"),  # through a bound
        ([(dict(x=1.0), "<=", 1.0), (2.0, "<=", dict(x=1.0))], "infeasible"),
        ([(dict(x=1.0), "<=", 1.0), (dict(z=2.0), "=", dict(x=1.0)), (dict(x=1.0), "<=", -1.0)],
         "infeasible"),
        ([(dict(x=1.0), "<=", 1.0), (dict(z=2.0), "=", dict(y=1.0))], "unbounded"),
        ([(dict(x=1.0), "<=", 0.0), (dict(z=2.0), "=", dict(y=1.0)), (dict(y=1.0), "<=", 3.0)],
         "optimal"),
    ])
    def test_verdicts_stay(self, rows, verdict):
        lp = sparse_lp("maximize", dict(x=1.0, y=1.0), rows)
        matrices = lp.matrices()
        assert matrices.bounded + matrices.substituted > 0
        sol = solve(lp)
        assert sol.status == verdict
        if verdict == "optimal":
            assert sol.value == pytest.approx(3.0) and sol.solver.certificate.ok

    def test_random_lps_with_bounds_and_leaves_against_the_oracle(self, rng):
        checked = bounded = substituted = 0
        for _ in range(120):
            spec = _random_lp(rng, rng.randint(1, 4), rng.randint(0, 2))[1]
            lp, planted = _with_leaves(rng, spec, rng.randint(0, 3), rng.randint(0, 2))
            sol = solve(lp)
            bounded += sol.solver.bounded > 0
            substituted += sol.solver.substituted > 0
            oracle = vertex_enumeration_optimum(*planted, lp.names)
            if oracle is None:
                assert sol.status == "infeasible"
                continue
            assert sol.status == "optimal"
            assert math.isclose(sol.value, oracle[0], abs_tol=1e-6), (sol.value, oracle[0])
            assert _satisfies(planted[3], sol.assignment) and sol.solver.certificate.ok
            checked += 1
        assert checked > 40 and bounded > 40 and substituted > 40


class TestBuilder:
    def test_a_class_is_led_by_its_lowest_name_not_its_stand_in(self):
        # the block's classes are {b, a} named by b's position, and {c}
        builder = LpBuilder()
        builder.block(["z"])
        start = builder.block(["b", "a", "c"], np.array([0, 0, 2]))
        builder.row((0.0, [start], [2.0]), "<=", (1.0, [start + 2], [3.0]))
        builder.rows(np.zeros(1), np.zeros(1), np.zeros(1, dtype=bool), np.array([1, 1]),
                     np.array([0, start]), np.array([1.0, 4.0]))
        lp = builder.build("maximize", (0.0, [start + 2], [1.0]))
        assert lp.names == ["a", "b", "c", "z"] and lp.lead.tolist() == [0, 0, 2, 3]
        assert lp.cols.tolist() == [0, 2, 3, 0] and lp.obj_cols.tolist() == [2]
        assert list(lp.row_texts()) == ["2*a + 2*b <= 3*c + 1", "1*z <= 4*a + 4*b"]
        assert builder.columns(start, 3).tolist() == [1, 0, 2]

    def test_singleton_classes_leave_no_lead(self):
        builder = LpBuilder()
        builder.block(["b", "a"], np.array([0, 1]))
        assert builder.build("maximize", (0.0, [0], [1.0])).lead is None

    def test_bulk_right_sides_are_negated_across_slices(self, rng, monkeypatch):
        # slices of at most a few entries, so every chunk is cut many times
        monkeypatch.setattr(linprog, "_STEP", 3)
        for _ in range(20):
            n_rows, names = rng.randint(1, 12), [f"x{j}" for j in range(6)]
            counts = np.array([rng.randint(0, 4) for _ in range(2 * n_rows)])
            cols = np.array([rng.randrange(6) for _ in range(counts.sum())], dtype=np.int64)
            vals = np.array([rng.uniform(-3, 3) for _ in range(counts.sum())])
            lconst, rconst = np.zeros(n_rows), np.arange(n_rows, dtype=float)
            bulk, one_by_one = LpBuilder(), LpBuilder()
            for builder in (bulk, one_by_one):
                builder.block(names)
            at = np.concatenate(([0], np.cumsum(counts)))
            for r in range(n_rows):
                left, right = slice(at[2 * r], at[2 * r + 1]), slice(at[2 * r + 1], at[2 * r + 2])
                one_by_one.row((0.0, cols[left].tolist(), vals[left].tolist()), "<=",
                               (float(r), cols[right].tolist(), vals[right].tolist()))
            bulk.rows(lconst, rconst, np.zeros(n_rows, dtype=bool), counts, cols.copy(), vals.copy())
            got = bulk.build("maximize", (0.0, [], []))
            want = one_by_one.build("maximize", (0.0, [], []))
            assert list(got.rows()) == list(want.rows())
            assert np.array_equal(got.vals, want.vals) and np.array_equal(got.indptr, want.indptr)


def built(blocks, stand_ins=(), rows=(), objective=()):
    """A program over *blocks* of names, the ith with the classes
    ``stand_ins[i]`` if given, the rows ``(lhs, rhs)`` and the objective
    over positions of the blocks' columns; the builder and block starts."""
    builder = LpBuilder()
    starts = [builder.block(names, *stand_ins[i:i + 1]) for i, names in enumerate(blocks)]
    for lhs, rhs in rows:
        builder.row((0.0, lhs, [1.0] * len(lhs)), "<=", (1.0, rhs, [2.0] * len(rhs)))
    lp = builder.build("maximize", (0.0, list(objective), [1.0] * len(objective)))
    return lp, builder, starts


class TestColumnOrder:
    """A ``Positional`` block is placed from its row numbers; the order is
    the one sorting every name as a string gives."""

    @pytest.mark.parametrize("count", [0, 1, 9, 10, 11, 99, 100, 101, 999, 1000, 1001, 2345])
    def test_digit_places_sort_like_the_texts(self, count):
        order = sorted(range(count), key=str)
        assert linprog._digit_places(count)[order].tolist() == list(range(count))

    @pytest.mark.parametrize("blocks", [
        # blocks sorting before, after and between content names, and names
        # sharing a prefix with a stem without starting with it
        [Positional("p_r", 1001), ["a", "p_", "p_q", "p_s", "z"], Positional("b_r", 10),
         Positional("pp_r", 100), ["p"]],
        # stems of bags 1 and 10: a name of one begins like a name of the
        # other, but neither stem starts the other
        [Positional("xi_q_n10_r", 101), Positional("xi_q_n1_r", 11),
         ["xi_q_n", "xi_q_n1_", "xi_q_n2_", "xi_q_n1_s"], Positional("xi_q_n2_r", 9)],
        # stems some other name or stem starts with: made and sorted as texts
        [Positional("a_r", 120), Positional("a_r1_r", 15), ["b_r7", "b_r07", "c_r"],
         Positional("b_r", 12), Positional("c_r", 3), Positional("d_r", 2), Positional("d_r", 2),
         Positional("e_r", 11)],
    ])
    def test_names_in_sorted_order(self, blocks):
        lp, builder, starts = built(blocks)
        names = [name for block in blocks for name in block]
        assert lp.names == sorted(names) and list(lp.names) == sorted(names)
        assert len(lp.names) == len(names) and lp.names[-1] == max(names)
        for start, block in zip(starts, blocks):
            assert [lp.names[j] for j in builder.columns(start, len(block)).tolist()] == list(block)
        with pytest.raises(IndexError):
            lp.names[len(names)]

    def test_positional_blocks_build_as_their_names_do(self, rng):
        # the same program with each block named by position and by the
        # list of its names: the same names, classes, rows and places
        for _ in range(30):
            counts = [rng.choice([3, 10, 12, 105, 1003]) for _ in range(3)]
            stems = rng.sample(["t_r", "t_r1_r", "u_r", "t_q_r", "v_r"], 3)
            stand_ins = []
            for count in counts:
                first = {}
                stand_ins.append(np.array([first.setdefault(rng.randrange(5), i) for i in range(count)]))
            positions = [int(start + s) for start, block in zip(np.cumsum([0, *counts]), stand_ins)
                         for s in set(block.tolist())]
            rows = [(rng.sample(positions, 2), rng.sample(positions, 1)) for _ in range(8)]
            objective = rng.sample(positions, 3)
            got = built([Positional(stem, count) for stem, count in zip(stems, counts)],
                        stand_ins, rows, objective)
            want = built([list(Positional(stem, count)) for stem, count in zip(stems, counts)],
                         stand_ins, rows, objective)
            assert got[0].names == list(want[0].names)
            for field in ("lead", "cols", "obj_cols", "indptr"):
                assert np.array_equal(getattr(got[0], field), getattr(want[0], field)), field
            assert np.array_equal(got[1]._place, want[1]._place)


def test_assignment_columns_clip_like_lookups():
    # a negative value, -0.0 and NaN all read as 0.0, as max(0.0, v) reads them
    x = np.array([1.5, -2.0, -0.0, np.nan, 0.0, 3e-300])
    got = np.array(ArrayAssignment(["a"] * len(x), x).columns(np.arange(len(x))))
    want = np.array([max(0.0, v) for v in x.tolist()])
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
    assert got.tolist() == [1.5, 0.0, 0.0, 0.0, 0.0, 3e-300]


class TestDuality:
    def test_objective_scaling(self, rng):
        for _ in range(20):
            lp, (sense, objective, constant, rows) = _random_lp(rng, rng.randint(1, 4), rng.randint(1, 3))
            if sense != "maximize":
                continue
            lam = rng.choice([0.5, 2.0, 3.5])
            scaled = sparse_lp(
                "maximize", (constant * lam, {v: c * lam for v, c in objective.items()}), rows
            )
            a = solve(lp)
            b = solve(scaled)
            assert a.status == b.status
            if a.status == "optimal":
                assert math.isclose(b.value, lam * a.value, abs_tol=1e-6)
                assert _satisfies(rows, b.assignment)


def _canonical(lp):
    objective, constant, rows, _ = moved_left(lp)
    cons = sorted((tuple(sorted(c.items())), rel, round(b, 9)) for c, rel, b in rows)
    return lp.sense, round(constant, 9), tuple(sorted(objective.items())), cons


class TestLpFormat:
    def test_round_trip_small(self, tmp_path):
        lp = sparse_lp(
            "maximize",
            dict(t00=1, t01=1, t10=1, t11=1),
            [(dict(t00=1, t01=1), "<=", 1.0), (dict(t10=1, t11=1), "<=", 1.0)],
        )
        path = tmp_path / "prog.lp"
        export_lp(lp, path)
        text = path.read_text()
        assert "Maximize" in text and "Subject To" in text and "End" in text
        parsed = parse_lp(path)
        assert _canonical(parsed) == _canonical(lp)

    def test_objective_only(self, tmp_path):
        lp = sparse_lp("minimize", (3.0, dict(x=1.0)))
        path = tmp_path / "obj.lp"
        export_lp(lp, path)
        parsed = parse_lp(path)
        assert _canonical(parsed) == _canonical(lp)

    def test_equality_row_emitted(self, tmp_path):
        lp = sparse_lp("maximize", dict(x=1.0), [(dict(x=1.0, y=-1.0), "=", 0.0)])
        path = tmp_path / "eq.lp"
        export_lp(lp, path)
        assert " = " in path.read_text()
        parsed = parse_lp(path)
        assert _canonical(parsed) == _canonical(lp)

    def test_unsafe_names_mapped(self, tmp_path):
        lp = sparse_lp("maximize", {"weird name!": 1.0}, [({"weird name!": 1.0}, "<=", 1.0)])
        path = tmp_path / "san.lp"
        export_lp(lp, path)
        body = path.read_text()
        assert "weird name!" not in body
        parsed = parse_lp(path)
        assert _canonical(parsed) == _canonical(lp)

    def test_random_round_trips(self, rng, tmp_path):
        for k in range(25):
            lp, _ = _random_lp(rng, rng.randint(1, 5), rng.randint(0, 4))
            path = tmp_path / f"r{k}.lp"
            export_lp(lp, path)
            parsed = parse_lp(path)
            assert _canonical(parsed) == _canonical(lp)

    def test_declared_unused_var_round_trips(self, tmp_path):
        lp = sparse_lp("maximize", dict(x=1.0), [(dict(x=1.0), "<=", 1.0)], variables=["spare"])
        path = tmp_path / "decl.lp"
        export_lp(lp, path)
        parsed = parse_lp(path)
        assert "spare" in parsed.names

    def test_both_sides_summed_and_bounds_never_negative_zero(self, tmp_path):
        # x sits on both sides of the row; equal constants give the bound 0
        lp = sparse_lp("maximize", dict(x=1.0), [((2.0, dict(x=3.0, y=1.0)), "=", (2.0, dict(x=1.0)))])
        path = tmp_path / "sides.lp"
        export_lp(lp, path)
        assert " c1: 2 x + y = 0\n" in path.read_text()

    def test_parse_error(self, tmp_path):
        path = tmp_path / "bad.lp"
        path.write_text("Subject To\n x <= 1\nEnd\n")
        with pytest.raises(IoError):
            parse_lp(path)

    @pytest.mark.parametrize(
        "case", ["sidecar not json", "sidecar not an object", "lp not utf-8"]
    )
    def test_unreadable_input_is_io_error(self, tmp_path, case):
        path = tmp_path / "in.lp"
        path.write_text("Maximize\n obj: x\nSubject To\n c1: x <= 1\nEnd\n")
        bad = path.with_name("in.lp.names.json")
        if case == "sidecar not json":
            bad.write_text("{not json")
        elif case == "sidecar not an object":
            bad.write_text(json.dumps(["v1", "x"]))
        else:
            bad = path
            path.write_bytes(b"\xff\xfe" + path.read_bytes())
        with pytest.raises(IoError, match=re.escape(str(bad))):
            parse_lp(path)
