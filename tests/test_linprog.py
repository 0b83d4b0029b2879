import math
import random

import pytest

from lpcq.errors import IoError, UnboundVariableError
from lpcq.linprog import (
    LinConstraint,
    LinearProgram,
    LinSum,
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
