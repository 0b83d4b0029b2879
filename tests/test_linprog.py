import json
import math
import random
import re

import numpy as np
import pytest
from scipy.sparse import csr_matrix

from lpcq.errors import CertificateError, IoError, NumericalFailureError
from lpcq.linprog import FEAS_TOL, PRIMAL_FROM_ORIGIN, certify, solve
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

    def test_equality_rows_go_to_interior_point(self, monkeypatch):
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
        assert [(call["method"], call["options"]) for call in calls] == [("highs-ipm", {})]
        assert sol.solver.method == "highs-ipm" and sol.solver.call.options == {}
        assert sol.solver.call.status == 0 and sol.solver.call.crossover_nit is not None
        assert sol.solver.certificate.ok

    def test_row_without_terms_never_reaches_highs(self):
        # the equality row 0 = 1 decides the LP before any method is chosen
        lp = sparse_lp("maximize", dict(x=1.0), [({}, "=", 1.0)])
        sol = solve(lp)
        assert sol.status == "infeasible"
        assert sol.solver.method is None and sol.solver.call is None


# -a + b + 2c + 2d = 7 and -a + b + 3c + 2d = 3 force c = -4; HiGHS's
# interior point solver stops on this LP with status 4 (solve error)
IPM_SOLVE_ERROR = sparse_lp(
    "minimize",
    dict(a=1.0, c=1.0, d=-2.0),
    [
        (dict(a=-3.0, b=2.0, c=-1.0, d=3.0), "<=", -2.0),
        (dict(a=3.0, b=-3.0, c=-1.0, d=1.0), "<=", 1.0),
        (dict(a=-1.0, b=1.0, c=2.0, d=2.0), "=", 7.0),
        (dict(a=-1.0, b=1.0, c=3.0, d=2.0), "=", 3.0),
    ],
)


class TestFallback:
    def test_interior_point_solve_error_falls_back_to_simplex(self):
        sol = solve(IPM_SOLVE_ERROR)
        assert sol.status == "infeasible"
        assert sol.solver.method == "highs-ipm"
        assert sol.solver.fallback is not None
        assert sol.solver.fallback.method == "highs"
        assert sol.solver.fallback.status == 2

    @pytest.mark.parametrize("resolve_fails", [False, True])
    def test_re_solve_uses_simplex_and_only_its_failure_raises(
        self, monkeypatch, resolve_fails
    ):
        import scipy.optimize

        real = scipy.optimize.linprog
        methods = []

        def failing_ipm(*args, **kwargs):
            methods.append(kwargs["method"])
            res = real(*args, **kwargs)
            if kwargs["method"] == "highs-ipm" or resolve_fails:
                res.status, res.message = 4, "(HiGHS Status 4: Solve error)"
            return res

        monkeypatch.setattr(scipy.optimize, "linprog", failing_ipm)
        lp = sparse_lp("maximize", dict(x=1.0, y=1.0), [(dict(x=1.0, y=1.0), "=", 3.0)])
        if resolve_fails:
            with pytest.raises(NumericalFailureError, match="Status 4"):
                solve(lp)
        else:
            sol = solve(lp)
            assert sol.status == "optimal" and abs(sol.value - 3.0) < 1e-9
            assert sol.solver.call.status == 4 and sol.solver.fallback.status == 0
        assert methods == ["highs-ipm", "highs"]


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
    """``choose_method``: equality rows go to interior point; an LP whose
    rows the origin satisfies to primal simplex without presolve; any other
    to plain ``highs``."""

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

    def test_equality_rows_give_interior_point(self, highs_calls):
        # the origin satisfies this equality row too
        lp = sparse_lp("maximize", dict(x=1.0, y=1.0),
                       [(dict(x=1.0), "=", dict(y=1.0)), (dict(x=1.0), "<=", 2.0)])
        sol = solve(lp)
        assert highs_calls == [("highs-ipm", {})]
        assert sol.status == "optimal" and abs(sol.value - 4.0) < 1e-9
        assert sol.solver.reason == "1 equality rows sent"

    def test_unbounded_origin_feasible_maximize(self, highs_calls):
        lp = sparse_lp("maximize", dict(x=1.0, y=1.0), [(dict(x=1.0, y=-1.0), "<=", 1.0)])
        sol = solve(lp)
        assert sol.status == "unbounded"
        assert highs_calls == [("highs", PRIMAL_FROM_ORIGIN)] and sol.solver.fallback is None

    @pytest.mark.parametrize("resolve_fails", [False, True])
    def test_primal_failure_re_solves_with_plain_highs(self, monkeypatch, resolve_fails):
        import scipy.optimize

        real = scipy.optimize.linprog
        calls = []

        def failing_primal(*args, **kwargs):
            calls.append(kwargs["options"])
            res = real(*args, **kwargs)
            if kwargs["options"] or resolve_fails:
                res.status, res.message = 4, "(HiGHS Status 4: Solve error)"
            return res

        monkeypatch.setattr(scipy.optimize, "linprog", failing_primal)
        lp = sparse_lp("maximize", dict(x=1.0, y=2.0), [(dict(x=1.0, y=1.0), "<=", 3.0)])
        if resolve_fails:
            with pytest.raises(NumericalFailureError, match="Status 4"):
                solve(lp)
        else:
            sol = solve(lp)
            assert sol.status == "optimal" and abs(sol.value - 6.0) < 1e-9
            assert sol.solver.call.options == PRIMAL_FROM_ORIGIN and sol.solver.call.status == 4
            assert sol.solver.fallback.method == "highs" and sol.solver.fallback.options == {}
        assert calls == [PRIMAL_FROM_ORIGIN, {}]


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
    columns, each a copy of a random column: its cost and coefficients.  A
    copy of ``v`` is named ``v~k``, which sorts after ``v``."""
    sense, objective, constant, rows = spec
    twins = {f"{rng.choice(sorted(objective))}~{k}" for k in range(copies)}

    def twinned(terms):
        return {**terms, **{t: terms[t.split("~")[0]] for t in twins if t.split("~")[0] in terms}}

    rows = [(twinned(coeffs), rel, bound) for coeffs, rel, bound in rows]
    objective = twinned(objective)
    return sparse_lp(sense, (constant, objective), rows), (sense, objective, constant, rows)


def _groups_by_brute_force(lp):
    """For each column, the lowest column with the same cost and the same
    summed coefficient in every row, compared as Python floats."""
    sign = -1.0 if lp.sense == "maximize" else 1.0
    cost = [0.0] * len(lp.names)
    for c, v in zip(lp.obj_cols.tolist(), lp.obj_vals.tolist()):
        cost[c] = sign * v
    column = [[] for _ in lp.names]
    for r, ((_, lcols, lvals), _, (_, rcols, rvals)) in enumerate(lp.rows()):
        summed = {}
        for c, v in zip(list(lcols) + list(rcols), list(lvals) + [-v for v in rvals]):
            summed[c] = summed.get(c, 0.0) + v
        for c, v in summed.items():
            if v != 0.0:
                column[c].append((r, v))
    first = {}
    return [first.setdefault((cost[j], tuple(column[j])), j) for j in range(len(lp.names))]


def _near_copies(rng, n_rows, n_cols):
    """An LP whose columns come from a few patterns, some altered in one
    coefficient or in cost only, with some empty columns."""
    patterns = [
        {r: float(rng.choice([1, 2, -1]))
         for r in rng.sample(range(n_rows), rng.randint(0, n_rows))}
        for _ in range(4)
    ]
    columns, costs = [], []
    for _ in range(n_cols):
        col = dict(rng.choice(patterns))
        if col and rng.random() < 0.2:  # one coefficient changed
            r = rng.choice(sorted(col))
            col[r] += rng.choice([1.0, 1e-12])
        columns.append(col)
        costs.append(float(rng.choice([0, 1, 1, 2])))
    names = [f"x{j:03d}" for j in range(n_cols)]
    rows = [
        ({names[j]: col[r] for j, col in enumerate(columns) if r in col}, "<=", 5.0)
        for r in range(n_rows)
    ]
    objective = {names[j]: c for j, c in enumerate(costs) if c}
    return sparse_lp("minimize", objective, rows, variables=names)


class TestMergedColumns:
    """``SparseLp.matrices`` hands HiGHS one column per group of identical
    columns: the same cost and the same entries."""

    @pytest.mark.parametrize("collide", [False, True])
    def test_only_exact_copies_merge_to_the_lowest(self, rng, monkeypatch, collide):
        if collide:  # every column gets the same digest
            monkeypatch.setattr("lpcq.linprog._column_digest", lambda A: np.zeros(A.shape[1]))
        merged = 0
        for _ in range(60):
            lp = _near_copies(rng, rng.randint(1, 5), rng.randint(1, 30))
            rows = lp.matrices()
            expected = _groups_by_brute_force(lp)
            assert rows.columns.tolist() == sorted(set(expected))
            assert rows.columns[rows.group].tolist() == expected
            merged += len(lp.names) - len(rows.columns)
        assert merged > 100

    def test_a_coefficient_or_the_cost_keeps_columns_apart(self):
        rows = [(dict(a=1.0, b=1.0, c=1.0, d=1.0), "<=", 4.0),
                (dict(a=2.0, b=3.0, c=2.0, d=2.0), "<=", 6.0)]
        lp = sparse_lp("maximize", dict(a=1.0, b=1.0, c=1.0, d=2.0), rows)
        # b differs from a in one coefficient, d in cost only; c is a copy of a
        matrices = lp.matrices()
        assert matrices.columns.tolist() == [0, 1, 3]
        assert matrices.group.tolist() == [0, 1, 0, 2]
        assert matrices.nonzeros == 6

    def test_empty_columns_merge_only_with_equal_cost(self):
        lp = sparse_lp("minimize", dict(b=1.0, c=2.0, d=1.0), [(dict(e=1.0), "<=", 1.0)],
                       variables=["a", "b", "c", "d", "e"])
        matrices = lp.matrices()
        assert matrices.columns.tolist() == [0, 1, 2, 4]
        assert matrices.group.tolist() == [0, 1, 2, 1, 3]
        sol = solve(lp)
        assert sol.status == "optimal" and sol.value == 0.0
        assert sol.solver.columns == 4

    def test_a_column_on_both_sides_is_compared_summed(self):
        # x's two terms cancel, so x is an empty column like y
        lp = sparse_lp("maximize", {}, [(dict(x=1.0, z=1.0), "<=", (1.0, dict(x=1.0))),
                                        (dict(w=2.0), "<=", (3.0, dict(w=1.0)))],
                       variables=["y"])
        matrices = lp.matrices()
        assert lp.names == ["w", "x", "y", "z"]
        assert matrices.group.tolist() == [0, 1, 1, 2]

    def test_the_group_value_goes_on_the_lowest_column(self):
        # a and b are copies, and so are c and d: the optimum 4 sits on a
        lp = sparse_lp("maximize", dict(a=2.0, b=2.0, c=1.0, d=1.0),
                       [(dict(a=1.0, b=1.0, c=1.0, d=1.0), "<=", 2.0)])
        sol = solve(lp)
        assert sol.value == pytest.approx(4.0)
        assert [sol.assignment[v] for v in "abcd"] == pytest.approx([2.0, 0.0, 0.0, 0.0])
        assert sol.solver.columns == 2 and sol.nonzeros == 2
        assert sol.solver.certificate.ok

    def test_a_point_off_the_lowest_columns_certifies_on_its_sums(self, rng):
        for _ in range(20):
            lp = _near_copies(rng, rng.randint(1, 5), rng.randint(2, 20))
            matrices = lp.matrices()
            x = np.array([rng.uniform(-1, 2) for _ in lp.names])
            full = csr_matrix((lp.vals, lp.cols, lp.indptr), shape=(lp.row_count, len(lp.names)))
            want = certify(x, full, lp.rconst - lp.lconst, None, None)
            got = matrices.certify(x)
            assert got.ub_violation == pytest.approx(want.ub_violation, abs=1e-12)
            assert (got.most_negative, got.clipped_mass) == (want.most_negative, want.clipped_mass)

    @pytest.mark.parametrize("rows, verdict", [
        ([(dict(x=1.0, y=1.0), "<=", -1.0)], "infeasible"),
        ([(dict(x=1.0, y=1.0), "=", 2.0), (dict(x=1.0, y=1.0), "<=", 1.0)], "infeasible"),
        ([(1.0, "<=", dict(x=1.0, y=1.0))], "unbounded"),
    ])
    def test_verdicts_stay(self, rows, verdict):
        lp = sparse_lp("maximize", dict(x=1.0, y=1.0), rows)
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
