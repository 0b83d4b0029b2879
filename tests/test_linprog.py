import math
import random

import numpy as np
import pytest
from scipy.sparse import csr_matrix

from lpcq.errors import CertificateError, IoError, NumericalFailureError, UnboundVariableError
from lpcq.linprog import (
    FEAS_TOL,
    LinConstraint,
    LinearProgram,
    LinSum,
    certify,
    eval_sum,
    solve,
)
from lpcq.lpformat import export_lp, parse_lp

from oracles import vertex_enumeration_optimum


def S(constant=0.0, **terms):
    return LinSum(constant, terms)


class TestLinSum:
    def test_eval(self):
        assert eval_sum(S(2.0, xi=3.0), {"xi": 1.0}) == 5.0
        assert eval_sum(S(7.0), {}) == 7.0
        assert eval_sum(S(xi1=1.0, xi2=1.0), {"xi1": 0.5, "xi2": 0.5}) == 1.0

    def test_eval_unbound(self):
        with pytest.raises(UnboundVariableError):
            eval_sum(S(x=1.0), {})

    def test_algebra_closed(self):
        a = S(1.0, x=2.0, y=-1.0)
        b = S(0.5, y=1.0)
        assert (a + b) == S(1.5, x=2.0)
        assert a.scale(2.0) == S(2.0, x=4.0, y=-2.0)
        assert (a - a) == S()

    def test_zero_coefficients_dropped(self):
        assert S(x=0.0).terms == {}
        assert (S(x=1.0) + S(x=-1.0)).terms == {}


class TestSolveSmall:
    def test_worked_example(self):
        # max t00+t01+t10+t11 st t00+t01 <= 1, t10+t11 <= 1
        lp = LinearProgram(
            "maximize",
            S(t00=1, t01=1, t10=1, t11=1),
            [
                LinConstraint(S(t00=1, t01=1), "<=", S(1.0)),
                LinConstraint(S(t10=1, t11=1), "<=", S(1.0)),
            ],
        )
        sol = solve(lp)
        assert sol.status == "optimal"
        assert abs(sol.value - 2.0) < 1e-9

    def test_unbounded(self):
        sol = solve(LinearProgram("maximize", S(xi=1.0)))
        assert sol.status == "unbounded"

    def test_infeasible_by_nonnegativity(self):
        lp = LinearProgram("maximize", S(), [LinConstraint(S(xi=1.0), "<=", S(-1.0))])
        assert solve(lp).status == "infeasible"

    def test_minimize_desugars(self):
        lp = LinearProgram(
            "minimize",
            S(x=1.0),
            [LinConstraint(S(2.0), "<=", S(x=1.0))],
        )
        sol = solve(lp)
        assert sol.status == "optimal"
        assert abs(sol.value - 2.0) < 1e-9

    def test_equality_constraints(self):
        lp = LinearProgram(
            "maximize",
            S(x=1.0, y=1.0),
            [
                LinConstraint(S(x=1.0, y=1.0), "=", S(3.0)),
                LinConstraint(S(x=1.0), "<=", S(2.0)),
            ],
        )
        sol = solve(lp)
        assert abs(sol.value - 3.0) < 1e-9
        assert abs(sol.assignment["x"] + sol.assignment["y"] - 3.0) < 1e-7

    def test_declared_variable_reported(self):
        lp = LinearProgram("maximize", S(), declared={"ghost"})
        sol = solve(lp)
        assert sol.assignment["ghost"] == 0.0

    def test_no_variables(self):
        sol = solve(LinearProgram("maximize", S(5.0)))
        assert sol.status == "optimal" and sol.value == 5.0

    def test_negative_rhs_equality(self):
        lp = LinearProgram(
            "maximize",
            S(x=1.0),
            [LinConstraint(S(x=-1.0), "=", S(-2.0))],
        )
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
        lp = LinearProgram(
            "maximize",
            S(x=1.0, y=2.0),
            [LinConstraint(S(x=1.0, y=1.0), "<=", S(4.0))],
        )
        sol = solve(lp)
        assert sol.status == "optimal" and abs(sol.value - 8.0) < 1e-9
        assert len(calls) == 1
        assert calls[0]["A_ub"].shape == (1, 2)
        assert calls[0]["method"] == "highs"
        assert sol.solver.method == "highs" and sol.solver.fallback is None

    def test_equality_rows_go_to_interior_point(self, monkeypatch):
        import scipy.optimize

        real = scipy.optimize.linprog
        calls = []

        def spy(*args, **kwargs):
            calls.append(kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(scipy.optimize, "linprog", spy)
        lp = LinearProgram(
            "maximize",
            S(x=1.0, y=2.0),
            [
                LinConstraint(S(x=1.0, y=1.0), "<=", S(4.0)),
                LinConstraint(S(x=1.0), "=", S(1.0)),
            ],
        )
        sol = solve(lp)
        assert sol.status == "optimal" and abs(sol.value - 7.0) < 1e-9
        assert [call["method"] for call in calls] == ["highs-ipm"]
        assert sol.solver.method == "highs-ipm"
        assert sol.solver.call.status == 0 and sol.solver.call.crossover_nit is not None
        assert sol.solver.certificate.ok

    def test_row_without_terms_never_reaches_highs(self):
        # the equality row 0 = 1 decides the LP before any method is chosen
        lp = LinearProgram("maximize", S(x=1.0), [LinConstraint(S(), "=", S(1.0))])
        sol = solve(lp)
        assert sol.status == "infeasible"
        assert sol.solver.method is None and sol.solver.call is None


# -a + b + 2c + 2d = 7 and -a + b + 3c + 2d = 3 force c = -4; HiGHS's
# interior point solver stops on this LP with status 4 (solve error)
IPM_SOLVE_ERROR = LinearProgram(
    "minimize",
    S(a=1.0, c=1.0, d=-2.0),
    [
        LinConstraint(S(a=-3.0, b=2.0, c=-1.0, d=3.0), "<=", S(-2.0)),
        LinConstraint(S(a=3.0, b=-3.0, c=-1.0, d=1.0), "<=", S(1.0)),
        LinConstraint(S(a=-1.0, b=1.0, c=2.0, d=2.0), "=", S(7.0)),
        LinConstraint(S(a=-1.0, b=1.0, c=3.0, d=2.0), "=", S(3.0)),
    ],
    declared={"b"},
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
        lp = LinearProgram(
            "maximize", S(x=1.0, y=1.0), [LinConstraint(S(x=1.0, y=1.0), "=", S(3.0))]
        )
        if resolve_fails:
            with pytest.raises(NumericalFailureError, match="Status 4"):
                solve(lp)
        else:
            sol = solve(lp)
            assert sol.status == "optimal" and abs(sol.value - 3.0) < 1e-9
            assert sol.solver.call.status == 4 and sol.solver.fallback.status == 0
        assert methods == ["highs-ipm", "highs"]


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
        lp = LinearProgram(
            "maximize", S(x=1.0), [LinConstraint(S(x=1.0, y=1.0), "<=", S(4.0))]
        )
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
        lp = LinearProgram(
            "maximize", S(x=1.0), [LinConstraint(S(x=1.0, y=1.0), "<=", S(4.0))]
        )
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


def _random_lp(rng, n_vars, n_rows, with_eq=True):
    variables = [f"x{i}" for i in range(n_vars)]
    constraints = []
    for _ in range(n_rows):
        coeffs = {
            v: rng.randint(-3, 5)
            for v in rng.sample(variables, k=rng.randint(1, n_vars))
        }
        coeffs = {v: float(c) for v, c in coeffs.items() if c}
        if not coeffs:
            continue
        rel = "=" if (with_eq and rng.random() < 0.25) else "<="
        rhs = float(rng.randint(0, 8))
        constraints.append(LinConstraint(S(**coeffs), rel, S(rhs)))
    # a single mass cap keeps the program bounded without bloating the
    # constraint count the vertex oracle has to enumerate over
    constraints.append(
        LinConstraint(S(**{v: 1.0 for v in variables}), "<=", S(float(rng.randint(2, 10))))
    )
    objective = S(float(rng.randint(-2, 2)), **{v: float(rng.randint(-2, 4)) for v in variables})
    sense = rng.choice(["maximize", "minimize"])
    return LinearProgram(sense, objective, constraints)


class TestSolveAgainstOracle:
    def test_random_bounded_lps(self, rng):
        checked = 0
        for trial in range(120):
            n_vars = rng.randint(1, 4)
            lp = _random_lp(rng, n_vars, rng.randint(0, 3))
            rows = [c.normalized() for c in lp.constraints]
            oracle = vertex_enumeration_optimum(
                lp.sense,
                lp.objective.terms,
                lp.objective.constant,
                [(c, r, b) for c, r, b in rows],
                lp.variables(),
            )
            sol = solve(lp)
            if oracle is None:
                assert sol.status == "infeasible"
                continue
            value, _ = oracle
            assert sol.status == "optimal"
            assert math.isclose(sol.value, value, rel_tol=0, abs_tol=1e-6), (
                lp.sense, sol.value, value)
            checked += 1
        assert checked > 60

    def test_wider_instances(self, rng):
        for _ in range(6):
            lp = _random_lp(rng, rng.randint(8, 12), rng.randint(1, 2), with_eq=False)
            sol = solve(lp)
            rows = [c.normalized() for c in lp.constraints]
            oracle = vertex_enumeration_optimum(
                lp.sense, lp.objective.terms, lp.objective.constant, rows, lp.variables()
            )
            assert oracle is not None
            assert math.isclose(sol.value, oracle[0], abs_tol=1e-6)

    def test_solution_feasible_and_matches_value(self, rng):
        for _ in range(40):
            lp = _random_lp(rng, rng.randint(1, 5), rng.randint(0, 4))
            sol = solve(lp)
            if sol.status != "optimal":
                continue
            for con in lp.constraints:
                assert con.satisfied_by(sol.assignment)
            assert math.isclose(eval_sum(lp.objective, sol.assignment), sol.value, abs_tol=1e-7)
            assert all(v >= 0.0 for v in sol.assignment.values())


class TestDuality:
    def test_objective_scaling(self, rng):
        for _ in range(20):
            lp = _random_lp(rng, rng.randint(1, 4), rng.randint(1, 3))
            if lp.sense != "maximize":
                continue
            lam = rng.choice([0.5, 2.0, 3.5])
            scaled = LinearProgram(
                "maximize",
                lp.objective.scale(lam),
                lp.constraints,
                declared=lp.declared,
            )
            a = solve(lp)
            b = solve(scaled)
            assert a.status == b.status
            if a.status == "optimal":
                assert math.isclose(b.value, lam * a.value, abs_tol=1e-6)
                for con in scaled.constraints:
                    assert con.satisfied_by(b.assignment)


def _canonical(lp):
    cons = sorted(
        (tuple(sorted(c.normalized()[0].items())), c.normalized()[1], round(c.normalized()[2], 9))
        for c in lp.constraints
    )
    return (
        lp.sense,
        round(lp.objective.constant, 9),
        tuple(sorted(lp.objective.terms.items())),
        cons,
    )


class TestLpFormat:
    def test_round_trip_small(self, tmp_path):
        lp = LinearProgram(
            "maximize",
            S(t00=1, t01=1, t10=1, t11=1),
            [
                LinConstraint(S(t00=1, t01=1), "<=", S(1.0)),
                LinConstraint(S(t10=1, t11=1), "<=", S(1.0)),
            ],
        )
        path = tmp_path / "prog.lp"
        export_lp(lp, path)
        text = path.read_text()
        assert "Maximize" in text and "Subject To" in text and "End" in text
        parsed = parse_lp(path)
        assert _canonical(parsed) == _canonical(lp)

    def test_objective_only(self, tmp_path):
        lp = LinearProgram("minimize", S(3.0, x=1.0))
        path = tmp_path / "obj.lp"
        export_lp(lp, path)
        parsed = parse_lp(path)
        assert _canonical(parsed) == _canonical(lp)

    def test_equality_row_emitted(self, tmp_path):
        lp = LinearProgram(
            "maximize", S(x=1.0), [LinConstraint(S(x=1.0, y=-1.0), "=", S(0.0))]
        )
        path = tmp_path / "eq.lp"
        export_lp(lp, path)
        assert " = " in path.read_text()
        parsed = parse_lp(path)
        assert _canonical(parsed) == _canonical(lp)

    def test_unsafe_names_mapped(self, tmp_path):
        lp = LinearProgram(
            "maximize",
            S(**{"weird name!": 1.0}),
            [LinConstraint(S(**{"weird name!": 1.0}), "<=", S(1.0))],
        )
        path = tmp_path / "san.lp"
        export_lp(lp, path)
        body = path.read_text()
        assert "weird name!" not in body
        parsed = parse_lp(path)
        assert _canonical(parsed) == _canonical(lp)

    def test_random_round_trips(self, rng, tmp_path):
        for k in range(25):
            lp = _random_lp(rng, rng.randint(1, 5), rng.randint(0, 4))
            path = tmp_path / f"r{k}.lp"
            export_lp(lp, path)
            parsed = parse_lp(path)
            assert _canonical(parsed) == _canonical(lp)

    def test_declared_unused_var_round_trips(self, tmp_path):
        lp = LinearProgram("maximize", S(x=1.0), [LinConstraint(S(x=1.0), "<=", S(1.0))],
                           declared={"spare"})
        path = tmp_path / "decl.lp"
        export_lp(lp, path)
        parsed = parse_lp(path)
        assert "spare" in parsed.variables()

    def test_parse_error(self, tmp_path):
        path = tmp_path / "bad.lp"
        path.write_text("Subject To\n x <= 1\nEnd\n")
        with pytest.raises(IoError):
            parse_lp(path)
