import math

import pytest

from lpcq.decomp import DecompTree, heuristic_decompose
from lpcq.errors import (
    IncompatibleDecompositionError,
    MissingDecompositionError,
)
from lpcq import interpret as interpretation
from lpcq.interpret import (
    InterpretedLp,
    VarNaming,
    factorized,
    natural,
    quantifier_eliminate,
    replacement,
)
from lpcq.language import ClosedProgram, close, parse
from lpcq.linprog import LpBuilder, solve
from lpcq.queries import evaluate, free_vars, parse_query

from makers import make_db, rand_flagship_instance
from oracles import StringNaming, normalize, scaled

WORKED = """
let Q(x, y) = R1(x) /\\ R2(y)
maximize weight[(x, y): true](Q)
subject to weight[(x, y): x == 0](Q) <= 1
        /\\ weight[(x, y): x == 1](Q) <= 1
"""

WORKED_QUANTIFIED = """
let Qp(x) = exists y. R1(x) /\\ R2(y)
maximize weight[(x): true](Qp)
subject to weight[(x): x == 0](Qp) <= 1
        /\\ weight[(x): x == 1](Qp) <= 1
"""


def f1_db():
    return make_db(R1=[(0,), (1,)], R2=[(0,), (1,)])


def worked_cp(db=None):
    return close(parse(WORKED), db or f1_db())


def three_node_tree(query):
    return DecompTree(0, {0: [], 1: ["x"], 2: ["y"]}, [(0, 1), (0, 2)], query=query)


class TestNatural:
    def test_worked_example(self):
        cp = worked_cp()
        ilp = natural(cp, f1_db())
        assert ilp.theta_count == 4
        assert ilp.program.row_count == 2
        assert all(tag == "user" for tag in ilp.provenance)
        sol = solve(ilp.program)
        assert sol.status == "optimal"
        assert abs(sol.value - 2.0) < 1e-9

    def test_empty_answer_set_collapses_to_zero(self):
        db = make_db(R1=(1, []), R2=[(0,)])
        cp = worked_cp(db)
        ilp = natural(cp, db)
        assert ilp.theta_count == 0
        sol = solve(ilp.program)
        assert sol.status == "optimal" and abs(sol.value) < 1e-12

    def test_quantified_program(self):
        cp = close(parse(WORKED_QUANTIFIED), f1_db())
        ilp = natural(cp, f1_db())
        assert ilp.theta_count == 2
        sol = solve(ilp.program)
        assert abs(sol.value - 2.0) < 1e-9


class TestReplacement:
    def test_worked_example(self):
        cp = worked_cp()
        ilp = replacement(cp, f1_db())
        assert ilp.nu_count == 3
        assert ilp.provenance_counts() == {"user": 2, "weight": 3, "soundness": 0}
        sol = solve(ilp.program)
        assert abs(sol.value - 2.0) < 1e-9

    def test_no_weight_expressions(self):
        cp = ClosedProgram(
            scaled(close(parse(WORKED), f1_db()).objective, 0.0),
            [],
        )
        ilp = replacement(cp, f1_db())
        assert ilp.nu_count == 0 and not ilp.program.row_count

    def test_duplicate_weight_shares_nu(self):
        text = """
        let Q(x, y) = R1(x) /\\ R2(y)
        maximize weight[(x, y): x == 0](Q)
        subject to weight[(x, y): x == 0](Q) <= 1
                /\\ weight[(x, y): x == 0](Q) <= 2
        """
        cp = close(parse(text), f1_db())
        ilp = replacement(cp, f1_db())
        assert ilp.nu_count == 1
        assert ilp.provenance_counts()["weight"] == 1


class TestQuantifierElimination:
    def test_rewrites_query(self):
        cp = close(parse(WORKED_QUANTIFIED), f1_db())
        cpq = quantifier_eliminate(cp)
        (name, query), = cpq.queries_w()
        assert free_vars(query) == {"x", "y"}
        body = parse_query("R1(x) /\\ R2(y) /\\ y == y")
        assert query == body

    def test_noop_on_quantifier_free(self):
        cp = worked_cp()
        cpq = quantifier_eliminate(cp)
        assert cpq.canonical() == cp.canonical()

    def test_distinct_prefixes_stay_distinct(self):
        text = """
        let A(x) = exists y. R1(x) /\\ R2(y)
        let B(x) = exists w. R1(x) /\\ R2(w)
        maximize weight[(x): true](A) + weight[(x): true](B)
        subject to true
        """
        cp = quantifier_eliminate(close(parse(text), f1_db()))
        queries = {q for _, q in cp.queries_w()}
        assert len(queries) == 2

    def test_preserves_optimum(self):
        db = f1_db()
        cp = close(parse(WORKED_QUANTIFIED), db)
        a = solve(natural(cp, db).program)
        b = solve(natural(quantifier_eliminate(cp), db).program)
        assert a.status == b.status == "optimal"
        assert abs(a.value - b.value) < 1e-9


class TestFactorized:
    def test_worked_example_counts(self):
        db = f1_db()
        cp = worked_cp(db)
        (key,) = [(n, q) for n, q in cp.queries_w()]
        tree = three_node_tree(key[1])
        ilp = factorized(cp, {key: tree}, db)
        assert ilp.xi_count == 5
        assert ilp.nu_count == 3
        counts = ilp.provenance_counts()
        assert counts == {"user": 2, "weight": 3, "soundness": 2}
        sol = solve(ilp.program)
        assert sol.status == "optimal"
        assert abs(sol.value - 2.0) < 1e-9

    def test_missing_target_row_pins_nu_to_zero(self):
        db = f1_db()
        text = """
        let Q(x, y) = R1(x) /\\ R2(y)
        maximize weight[(x, y): true](Q)
        subject to weight[(x, y): x == 7](Q) <= 1
                /\\ weight[(x, y): true](Q) <= 3
        """
        cp = close(parse(text), db)
        (key,) = cp.queries_w()
        ilp = factorized(cp, {key: three_node_tree(key[1])}, db)
        sol = solve(ilp.program)
        assert sol.status == "optimal"
        assert abs(sol.value - 3.0) < 1e-9

    def test_soundness_rows_required(self):
        db = f1_db()
        cp = worked_cp(db)
        (key,) = cp.queries_w()
        ilp = factorized(cp, {key: three_node_tree(key[1])}, db)
        lp = ilp.program
        builder = LpBuilder()
        builder.block(lp.names)
        for row, tag in zip(lp.rows(), ilp.provenance):
            if tag != "soundness":
                builder.row(*row)
        sol = solve(builder.build(lp.sense, (lp.obj_const, lp.obj_cols, lp.obj_vals)))
        assert sol.status == "unbounded"

    def test_missing_decomposition(self):
        db = f1_db()
        cp = worked_cp(db)
        with pytest.raises(MissingDecompositionError):
            factorized(cp, {}, db)

    def test_incompatible_decomposition(self):
        db = make_db(R=[(0, 1)], S=[(1, 2)])
        text = """
        let Q(x, y, z) = R(x, y) /\\ S(y, z)
        maximize weight[(x, y, z): x == 0 /\\ z == 2](Q)
        subject to true
        """
        cp = close(parse(text), db)
        (key,) = cp.queries_w()
        tree = DecompTree(
            0, {0: ["x", "y"], 1: ["y", "z"]}, [(0, 1)], query=key[1]
        )
        with pytest.raises(IncompatibleDecompositionError):
            factorized(cp, {key: tree}, db)

    def test_quantified_queries_rejected(self):
        db = f1_db()
        cp = close(parse(WORKED_QUANTIFIED), db)
        (key,) = cp.queries_w()
        with pytest.raises(IncompatibleDecompositionError):
            factorized(cp, {key: three_node_tree(key[1])}, db)

    def test_variable_count_formula(self):
        db = f1_db()
        cp = worked_cp(db)
        (key,) = cp.queries_w()
        tree = three_node_tree(key[1])
        ilp = factorized(cp, {key: tree}, db)
        from lpcq.decomp import bag_projections

        proj = bag_projections(key[1], tree, db)
        assert ilp.xi_count == sum(len(a) for a in proj.values())
        assert ilp.variable_count == ilp.xi_count + len(cp.weight_exprs())

    def test_counts_reconcile_with_lp(self, rng):
        # the reported counts are exactly the built program's universe
        for _ in range(10):
            db, _, cp = rand_flagship_instance(rng)
            cpq = quantifier_eliminate(cp)
            nat = natural(cpq, db)
            assert len(nat.program.names) == nat.variable_count
            assert nat.theta_count == sum(len(block.rows) for block in nat.theta.values())
            fac = _factorize_with_heuristic(cpq, db)
            assert len(fac.program.names) == fac.variable_count


def _factorize_with_heuristic(cp, db):
    decomps = {}
    for key in cp.queries_w():
        name, query = key
        targets = [
            w.target_vars() for w in cp.weight_exprs()
            if (w.query_name, w.query) == key
        ]
        tree = normalize(heuristic_decompose(query, targets))
        decomps[key] = tree
    return factorized(cp, decomps, db)


# q's row (x, all) and q_x's only answer both read th_q_x_all
COLLIDING_NAMES = """
let q(u, w) = R(u, w)
let q_x() = S("a")
maximize weight[(u, w): true](q) + weight[(): true](q_x)
subject to weight[(u, w): u == "x"](q) <= 1
        /\\ weight[(u, w): u == "y"](q) <= 2
        /\\ weight[(): true](q_x) <= 5
"""

# both query names map to the id a_
SHARED_ID = """
let a'(x) = R(x)
let a_(x) = R(x)
maximize weight[(x): true](a') + weight[(x): true](a_)
subject to weight[(x): x == 0](a') <= 1 /\\ weight[(x): x == 0](a_) <= 2
"""


class TestVariableNames:
    @pytest.mark.parametrize("interpret", [natural, replacement])
    def test_names_unique_across_queries(self, interpret):
        db = make_db(R=[("x", "all"), ("y", "z")], S=[("a",)])
        ilp = interpret(quantifier_eliminate(close(parse(COLLIDING_NAMES), db)), db)
        assert len(ilp.program.names) == ilp.variable_count
        assert math.isclose(solve(ilp.program).value, 8.0)

    @pytest.mark.parametrize("interpret", [natural, replacement, _factorize_with_heuristic])
    def test_queries_sharing_an_id_get_disjoint_names(self, interpret):
        db = make_db(R=[(0,)])
        ilp = interpret(quantifier_eliminate(close(parse(SHARED_ID), db)), db)
        families = [
            {ilp.program.names[c] for c in block.columns}
            for family in (ilp.theta, *ilp.xi.values())
            for block in family.values()
        ]
        assert all(a.isdisjoint(b) for i, a in enumerate(families) for b in families[i + 1:])
        assert len(ilp.program.names) == ilp.variable_count
        assert all(name.startswith(("th_a__", "xi_a__", "nu_a__")) for name in ilp.program.names)
        assert math.isclose(solve(ilp.program).value, 3.0)


class TestPositionalNames:
    def test_claims_match_the_string_naming(self, monkeypatch):
        # blocks of 12 rows are positional; each claim gives the names, _k
        # suffixes included, that claiming every name as a string gives
        monkeypatch.setattr(interpretation, "CONTENT_NAME_LIMIT", 2)
        query = parse_query("R(x)")
        rows = evaluate(query, make_db(R=[(i,) for i in range(12)]))
        steps = [
            # content names taken first: th_Q_r5 is one of Q's positional
            # names, so Q's block is made name by name; r12 and r05 are not
            lambda n: n._claim_all(["th_Q_r5", "th_Q_r12", "th_Q_r05"]),
            lambda n: n.theta_names(("Q", query), rows),
            # a positional block, then content names among its names
            lambda n: n.theta_names(("P", query), rows),
            lambda n: n._claim_all(["th_P_r3", "th_P_r3", "th_P_r11", "th_P_r12", "th_P_r"]),
            # a second block with the same stem
            lambda n: n.theta_names(("P", query), rows),
            lambda n: n.xi_names(("P", query), 1, rows),
            lambda n: n._claim_all(["xi_P_n1_r0_k2", "xi_P_n1_r0"]),
        ]
        naming, oracle = VarNaming(), StringNaming()
        kinds = []
        for step in steps:
            got = step(naming)
            kinds.append(type(got).__name__)
            assert list(got) == step(oracle)
        assert kinds == ["list", "list", "Positional", "list", "list", "Positional", "list"]


class TestEquivalences:
    def test_replacement_matches_natural_randomized(self, rng):
        for _ in range(40):
            db, _, cp = rand_flagship_instance(rng)
            a = solve(natural(cp, db).program)
            b = solve(replacement(cp, db).program)
            assert a.status == b.status
            if a.status == "optimal":
                assert math.isclose(a.value, b.value, rel_tol=1e-6, abs_tol=1e-6)

    def test_factorized_matches_natural_randomized(self, rng):
        for _ in range(40):
            db, _, cp = rand_flagship_instance(rng)
            cpq = quantifier_eliminate(cp)
            a = solve(natural(cpq, db).program)
            b = solve(_factorize_with_heuristic(cpq, db).program)
            assert a.status == b.status
            if a.status == "optimal":
                assert math.isclose(a.value, b.value, rel_tol=1e-6, abs_tol=1e-6)

    def test_quantifier_elimination_preserves_optimum_randomized(self, rng):
        for _ in range(25):
            db, _, cp = rand_flagship_instance(rng, n_exists=2)
            a = solve(natural(cp, db).program)
            b = solve(natural(quantifier_eliminate(cp), db).program)
            assert a.status == b.status
            if a.status == "optimal":
                assert math.isclose(a.value, b.value, rel_tol=1e-6, abs_tol=1e-6)
