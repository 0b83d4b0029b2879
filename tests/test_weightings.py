import json
import math
import random

import numpy as np
import pytest

from lpcq.cli import BENCH_DECOMP, BENCH_PROGRAM, build_decompositions
from lpcq.decomp import DecompTree, heuristic_decompose
from lpcq.errors import (
    BadSubsetError,
    NotAnAnswerError,
    TooLargeError,
    UnsoundCollectionError,
)
from lpcq.interpret import factorized, natural, quantifier_eliminate
from lpcq.language import close, normal_form, parse
from lpcq.linprog import ArrayAssignment, LpSolution, solve
from lpcq.queries import AnswerSet, evaluate, parse_query
from lpcq.relations import Assignment, Value
from lpcq.synth import GenSpec, generate_delivery
from lpcq import weightings
from lpcq.weightings import (
    Weighting,
    WeightingCollection,
    check_sound,
    collection_from_weighting,
    project_weighting,
    reconstruct,
    reconstruct_point,
    solution_to_weights,
)

from makers import (
    answer_point, certify_point, make_db, rand_db, rand_flagship_instance, rand_query,
)
from oracles import check_conj_decomposed, is_normalized, normalize


def V(x):
    return Value(str(x))


def f1_db():
    return make_db(R1=[(0,), (1,)], R2=[(0,), (1,)])


F1_QUERY = parse_query("R1(x) /\\ R2(y)")


def f1_answers():
    return evaluate(F1_QUERY, f1_db())


def f1_tree():
    return DecompTree(0, {0: [], 1: ["x"], 2: ["y"]}, [(0, 1), (0, 2)], query=F1_QUERY)


def collection_on_f1(root_mass, u_masses, v_masses):
    answers = f1_answers()
    tree = f1_tree()
    per_node = {
        0: Weighting(answers.restrict([]), {(): root_mass}),
        1: Weighting(
            answers.restrict(["x"]), {(V(0),): u_masses[0], (V(1),): u_masses[1]}
        ),
        2: Weighting(
            answers.restrict(["y"]), {(V(0),): v_masses[0], (V(1),): v_masses[1]}
        ),
    }
    return WeightingCollection(tree, per_node)


class TestProjection:
    def test_uniform_mass(self):
        w = Weighting.uniform(f1_answers())
        p = project_weighting(w, ["x"])
        assert p.values == {(V(0),): 2.0, (V(1),): 2.0}
        assert math.isclose(p.total(), w.total())

    def test_identity_projection(self):
        w = Weighting.uniform(f1_answers())
        p = project_weighting(w, ["x", "y"])
        assert p.values == w.values

    def test_projection_to_empty(self):
        w = Weighting.uniform(f1_answers())
        p = project_weighting(w, [])
        assert p.values == {(): 4.0}

    def test_bad_subset(self):
        w = Weighting.uniform(f1_answers())
        with pytest.raises(BadSubsetError):
            project_weighting(w, ["nope"])

    def test_extension_classes_partition(self, rng):
        # distinct restrictions have disjoint extension classes and their
        # union is the whole relation
        for _ in range(200):
            db = rand_db(rng, max_tuples=12, max_relations=2)
            q = rand_query(rng, db, max_atoms=2)
            a = evaluate(q, db)
            if not 0 < len(a) <= 60:
                continue
            fv = list(a.variables)
            sub = rng.sample(fv, k=rng.randint(0, len(fv)))
            groups = a.group_by(sub)
            seen = []
            for members in groups.values():
                seen.extend(members)
            assert sorted(seen) == list(range(len(a)))

    def test_projection_composes(self, rng):
        # projecting in two steps equals projecting once
        for _ in range(200):
            db = rand_db(rng, max_tuples=12, max_relations=2)
            q = rand_query(rng, db, max_atoms=2)
            a = evaluate(q, db)
            if not 0 < len(a) <= 60:
                continue
            fv = list(a.variables)
            x1 = set(rng.sample(fv, k=rng.randint(0, len(fv))))
            x2 = set(rng.sample(sorted(x1), k=rng.randint(0, len(x1)))) if x1 else set()
            w = Weighting(a, {row: rng.random() * 5 for row in a.rows})
            direct = project_weighting(w, x2)
            staged = project_weighting(project_weighting(w, x1), x2)
            for key in direct.values:
                assert math.isclose(direct.values[key], staged.values[key], abs_tol=1e-9)


class TestCollections:
    def test_from_uniform(self):
        col = collection_from_weighting(Weighting.uniform(f1_answers()), f1_tree())
        assert col[0].values == {(): 4.0}
        assert col[1].values == {(V(0),): 2.0, (V(1),): 2.0}
        assert check_sound(col) is None

    def test_zero_collection_sound(self):
        col = collection_from_weighting(
            Weighting(f1_answers(), {r: 0.0 for r in f1_answers().rows}), f1_tree()
        )
        assert check_sound(col) is None

    def test_point_mass(self):
        a = f1_answers()
        row = a.rows[0]
        col = collection_from_weighting(
            Weighting(a, {r: (1.0 if r == row else 0.0) for r in a.rows}), f1_tree()
        )
        assert check_sound(col) is None
        assert col[1].values[(row[0],)] == 1.0

    def test_unsound_detected(self):
        col = collection_on_f1(2.0, (1.0, 1.0), (0.0, 0.0))
        violation = check_sound(col)
        assert violation is not None
        assert violation.edge == (0, 2)
        assert math.isclose(violation.lhs, 2.0) and math.isclose(violation.rhs, 0.0)


class TestConjDecomposition:
    def test_query_answers_always_decomposed(self, rng):
        for _ in range(30):
            db = rand_db(rng, max_tuples=15, max_relations=2)
            q = rand_query(rng, db, max_atoms=2)
            a = evaluate(q, db)
            if not 0 < len(a) <= 100:
                continue
            t = heuristic_decompose(q)
            assert check_conj_decomposed(a, t) is None

    def test_non_conjunctive_relation_witnessed(self):
        # the diagonal relation is not a product, which the separating
        # empty-bag nodes of the normalized tree expose
        rows = [(V(0), V(0)), (V(1), V(1))]
        a = AnswerSet(("x", "y"), rows)
        tree = normalize(
            DecompTree(0, {0: [], 1: ["x"], 2: ["y"]}, [(0, 1), (0, 2)])
        )
        witness = check_conj_decomposed(a, tree)
        assert witness is not None
        node, beta, up, down = witness
        merged = up.union(down)
        assert merged is not None and merged not in a.to_set()

    def test_single_node_tree(self):
        a = AnswerSet(("x", "y"), [(V(0), V(1))])
        tree = DecompTree(0, {0: ["x", "y"]}, [])
        assert check_conj_decomposed(a, tree) is None

    def test_guard(self):
        a = f1_answers()
        with pytest.raises(TooLargeError):
            check_conj_decomposed(a, f1_tree(), guard=2)


class TestReconstruct:
    def test_half_mass_worked_example(self):
        col = collection_on_f1(2.0, (1.0, 1.0), (1.0, 1.0))
        w = reconstruct(col, f1_answers())
        for row in f1_answers().rows:
            assert math.isclose(w.values[row], 0.5, abs_tol=1e-12)

    def test_zero_collection(self):
        col = collection_on_f1(0.0, (0.0, 0.0), (0.0, 0.0))
        w = reconstruct(col, f1_answers())
        assert all(v == 0.0 for v in w.values.values())

    def test_point_mass_round_trip(self, rng):
        for _ in range(30):
            db = rand_db(rng, max_tuples=15, max_relations=2)
            q = rand_query(rng, db, max_atoms=2)
            a = evaluate(q, db)
            if not 0 < len(a) <= 80:
                continue
            t = normalize(heuristic_decompose(q))
            row = rng.choice(a.rows)
            w = Weighting(a, {r: (1.0 if r is row else 0.0) for r in a.rows})
            col = collection_from_weighting(w, t)
            back = reconstruct(col, a)
            for r in a.rows:
                assert math.isclose(back.values[r], w.values[r], abs_tol=1e-9)

    def test_unsound_rejected(self):
        col = collection_on_f1(2.0, (1.0, 1.0), (0.0, 0.0))
        with pytest.raises(UnsoundCollectionError):
            reconstruct(col, f1_answers())

    def test_round_trip_projections_match(self, rng):
        # projections of the reconstruction equal the input collection
        for _ in range(40):
            db = rand_db(rng, max_tuples=15, max_relations=3)
            q = rand_query(rng, db, max_atoms=3)
            a = evaluate(q, db)
            if not 0 < len(a) <= 150:
                continue
            t = normalize(heuristic_decompose(q))
            w = Weighting(a, {r: rng.random() * 3 for r in a.rows})
            col = collection_from_weighting(w, t)
            back = reconstruct(col, a)
            round_col = collection_from_weighting(back, t)
            for node in t.bags:
                for key, mass in col[node].values.items():
                    assert math.isclose(
                        round_col[node].values[key], mass, rel_tol=1e-9, abs_tol=1e-6
                    )

    def test_reconstruct_point_agrees(self, rng):
        for _ in range(20):
            db = rand_db(rng, max_tuples=12, max_relations=2)
            q = rand_query(rng, db, max_atoms=2)
            a = evaluate(q, db)
            if not 0 < len(a) <= 60:
                continue
            t = normalize(heuristic_decompose(q))
            w = Weighting(a, {r: rng.random() * 2 for r in a.rows})
            col = collection_from_weighting(w, t)
            full = reconstruct(col, a)
            for assignment in a.assignments():
                assert math.isclose(
                    reconstruct_point(col, assignment),
                    full[assignment],
                    rel_tol=1e-9,
                    abs_tol=1e-9,
                )

    def test_reconstruct_point_zero_guard(self):
        col = collection_on_f1(1.0, (1.0, 0.0), (1.0, 0.0))
        alpha = Assignment.of({"x": V(1), "y": V(0)})
        assert reconstruct_point(col, alpha) == 0.0

    def test_not_an_answer(self):
        col = collection_on_f1(2.0, (1.0, 1.0), (1.0, 1.0))
        with pytest.raises(NotAnAnswerError):
            reconstruct_point(col, Assignment.of({"x": V(7), "y": V(0)}))



def assert_projections_match(collection, weighting):
    lifted = collection_from_weighting(weighting, collection.tree)
    for node in collection.tree.bags:
        assert lifted[node].values.keys() == collection[node].values.keys()
        for key, mass in collection[node].values.items():
            assert math.isclose(
                lifted[node].values[key], mass, rel_tol=1e-9, abs_tol=1e-9
            ), (node, key)


@pytest.fixture
def bench_collection(tmp_path):
    """Random sound collection on BENCH_DECOMP, prepared for the benchmark
    program as the CLI does, with the answer set it decomposes."""
    db = generate_delivery(GenSpec(size=40, seed=1))
    cp = close(normal_form(parse(BENCH_PROGRAM)), db)
    path = tmp_path / "bench.json"
    path.write_text(json.dumps(BENCH_DECOMP))
    ((key, tree),) = build_decompositions(
        cp, quantifier_eliminate(cp), str(path), False
    ).items()
    answers = evaluate(key[1], db)
    rng = random.Random(7)
    w = Weighting(answers, {r: rng.random() for r in answers.rows})
    return collection_from_weighting(w, tree), answers


class TestReconstructAnyTree:
    def test_raw_heuristic_trees(self, rng):
        raw = 0
        for _ in range(60):
            db = rand_db(rng, max_tuples=15, max_relations=3)
            q = rand_query(rng, db, max_atoms=3)
            a = evaluate(q, db)
            if not 0 < len(a) <= 150:
                continue
            t = heuristic_decompose(q)
            raw += not is_normalized(t)
            w = Weighting(a, {r: rng.random() * 3 for r in a.rows})
            col = collection_from_weighting(w, t)
            assert_projections_match(col, reconstruct(col, a))
        assert raw >= 10

    def test_benchmark_tree(self, bench_collection):
        col, answers = bench_collection
        assert not is_normalized(col.tree)
        assert_projections_match(col, reconstruct(col, answers))

    def test_point_agrees_on_benchmark_tree(self, bench_collection):
        col, answers = bench_collection
        full = reconstruct(col, answers)
        for alpha in random.Random(8).sample(list(answers.assignments()), 25):
            assert math.isclose(
                reconstruct_point(col, alpha), full[alpha], rel_tol=1e-12
            )

    def test_zero_separator_marginal_lifts_to_zero(self):
        # bags {x, y} and {y, z} share y; y = 1 carries no mass on either side
        db = make_db(R=[(0, 0), (0, 1)], S=[(0, 0), (1, 0)])
        q = parse_query("R(x, y) /\\ S(y, z)")
        a = evaluate(q, db)
        tree = DecompTree(0, {0: ["x", "y"], 1: ["y", "z"]}, [(0, 1)], query=q)
        w = Weighting(a, {r: (2.0 if r[1] is V(0) else 0.0) for r in a.rows})
        col = collection_from_weighting(w, tree)
        assert col[1].values[(V(1), V(0))] == 0.0
        lifted = reconstruct(col, a)
        alpha = Assignment.of({"x": V(0), "y": V(1), "z": V(0)})
        assert lifted[alpha] == 0.0
        assert reconstruct_point(col, alpha) == 0.0
        assert lifted.total() == 2.0

    def test_each_bag_projected_once_per_edge(self, bench_collection, monkeypatch):
        # the soundness check and the lift share the separator marginals:
        # one pair of bincounts per edge
        col, answers = bench_collection
        calls = []
        edge = weightings._Lift._edge

        def counting(lift, parent, child):
            calls.append((parent, child))
            return edge(lift, parent, child)

        monkeypatch.setattr(weightings._Lift, "_edge", counting)
        edges = sorted(col.tree.edges)
        reconstruct(col, answers)
        assert calls == edges
        del calls[:]
        reconstruct_point(col, next(iter(answers.assignments())))
        assert calls == edges

    def test_point_lift_is_built_once(self, bench_collection, monkeypatch):
        col, answers = bench_collection
        calls = []
        edge = weightings._Lift._edge

        def counting(lift, parent, child):
            calls.append((parent, child))
            return edge(lift, parent, child)

        monkeypatch.setattr(weightings._Lift, "_edge", counting)
        alphas = random.Random(9).sample(list(answers.assignments()), 10)
        points = [reconstruct_point(col, alphas[0])]
        assert len(col.tree.edges) == 13
        assert len(calls) == 13
        del calls[:]
        points += [reconstruct_point(col, alpha) for alpha in alphas[1:]]
        assert calls == []
        full = reconstruct(col, answers)
        assert points == [full[alpha] for alpha in alphas]


WORKED = """
let Q(x, y) = R1(x) /\\ R2(y)
maximize weight[(x, y): true](Q)
subject to weight[(x, y): x == 0](Q) <= 1
        /\\ weight[(x, y): x == 1](Q) <= 1
"""


class TestSolutionLifting:
    def _lift(self, text, db):
        cp = quantifier_eliminate(close(parse(text), db))
        decomps = {}
        for key in cp.queries_w():
            targets = [
                w.target_vars()
                for w in cp.weight_exprs()
                if (w.query_name, w.query) == key
            ]
            decomps[key] = normalize(heuristic_decompose(key[1], targets))
        ilp = factorized(cp, decomps, db)
        sol = solve(ilp.program)
        return cp, ilp, sol

    def test_worked_example_lift(self):
        db = f1_db()
        cp, ilp, sol = self._lift(WORKED, db)
        assert sol.status == "optimal" and abs(sol.value - 2.0) < 1e-9
        (key,) = cp.queries_w()
        w = solution_to_weights(sol, ilp, key, db)
        # natural-feasible at the same objective
        nat = natural(cp, db)
        certificate, objective = certify_point(nat.program, answer_point(nat, key, w.values))
        assert certificate.violation <= 1e-6
        assert math.isclose(objective, sol.value, abs_tol=1e-6)

    def test_solver_drift_allowance(self):
        db = f1_db()
        cp, ilp, sol = self._lift(WORKED, db)
        (key,) = cp.queries_w()
        x = np.array([sol.assignment[name] for name in ilp.program.names])
        drifted = LpSolution("optimal", sol.value, ArrayAssignment(ilp.program.names, x))
        column = next(c for b in ilp.xi[key].values() for c in b.columns if x[c] > 0)
        x[column] += 1e-6
        w = solution_to_weights(drifted, ilp, key, db)
        assert math.isclose(w.total(), 2.0, abs_tol=1e-5)
        x[column] += 1e-3
        with pytest.raises(UnsoundCollectionError):
            solution_to_weights(drifted, ilp, key, db)

    def test_infeasible_rejected(self):
        db = f1_db()
        cp, ilp, _ = self._lift(WORKED, db)
        with pytest.raises(ValueError):
            solution_to_weights(LpSolution("infeasible"), ilp, cp.queries_w()[0], db)

    def test_randomized_lift_matches_optimum(self, rng):
        done = 0
        for _ in range(40):
            db, _, cp = rand_flagship_instance(rng)
            cpq = quantifier_eliminate(cp)
            decomps = {}
            for key in cpq.queries_w():
                targets = [
                    w.target_vars()
                    for w in cpq.weight_exprs()
                    if (w.query_name, w.query) == key
                ]
                decomps[key] = normalize(heuristic_decompose(key[1], targets))
            ilp = factorized(cpq, decomps, db)
            sol = solve(ilp.program)
            if sol.status != "optimal":
                continue
            nat = natural(cpq, db)
            point = {}
            for key in cpq.queries_w():
                w = solution_to_weights(sol, ilp, key, db)
                point.update(answer_point(nat, key, w.values))
            certificate, objective = certify_point(nat.program, point)
            assert certificate.violation <= 1e-6
            assert math.isclose(objective, sol.value, rel_tol=1e-6, abs_tol=1e-6)
            done += 1
        assert done >= 20
