import json
import math
import random

import pytest

from lpcq import queries
from lpcq.cli import BENCH_DECOMP
from lpcq.decomp import (
    DecompTree,
    attach_target_bags,
    bag_projections,
    check_compatible,
    fractional_bag_width,
    heuristic_decompose,
    load_decompositions,
    match_tree_to_query,
    normalize,
    save_decompositions,
    tree_width,
    validate,
)
from lpcq.errors import (
    IncompatibleTargetError,
    NotATreeError,
    UncoverableVariableError,
    UncoveredAtomError,
    UncoveredVariableError,
    DisconnectedVariableError,
)
from lpcq.queries import evaluate, free_vars, parse_query, qf
from lpcq.relations import Database, Relation, Value
from lpcq.synth import GenSpec, generate_delivery

from oracles import brute_force_answers


def V(x):
    return Value(str(x))


def make_db(**relations):
    rels = {}
    for name, rows in relations.items():
        rows = [tuple(V(c) for c in row) for row in rows]
        arity = len(rows[0]) if rows else 0
        rels[name] = Relation(name, arity, rows)
    return Database(rels)


@pytest.fixture
def f1():
    return make_db(R1=[(0,), (1,)], R2=[(0,), (1,)])


@pytest.fixture
def f1_tree():
    q = parse_query("R1(x) /\\ R2(y)")
    return DecompTree(0, {0: [], 1: ["x"], 2: ["y"]}, [(0, 1), (0, 2)], query=q), q


PATH_Q = parse_query("R(x, y) /\\ R(y, z)")


def path_tree():
    return DecompTree(1, {1: ["y"], 2: ["x", "y"], 3: ["y", "z"]}, [(1, 2), (1, 3)], query=PATH_Q)


class TestValidate:
    def test_path_example(self):
        validate(path_tree(), PATH_Q)

    def test_trivial_single_bag(self):
        q = parse_query("R(x, y) /\\ S(y, z)")
        t = DecompTree(0, {0: ["x", "y", "z"]}, [])
        validate(t, q)

    def test_uncovered_atom(self):
        q = parse_query("R(x, y)")
        t = DecompTree(0, {0: ["x"], 1: ["y"]}, [(0, 1)])
        with pytest.raises(UncoveredAtomError):
            validate(t, q)

    def test_uncovered_variable(self):
        q = parse_query("R(x, y)")
        t = DecompTree(0, {0: ["x"]}, [])
        with pytest.raises(UncoveredVariableError):
            validate(t, q)

    def test_disconnected_variable(self):
        q = parse_query("R(x, y) /\\ S(y, z) /\\ T(x, z)")
        t = DecompTree(
            0, {0: ["x", "y"], 1: ["y", "z"], 2: ["x", "z"]}, [(0, 1), (1, 2)]
        )
        with pytest.raises(DisconnectedVariableError):
            validate(t, q)

    def test_cross_bag_equality_counts_as_atom(self):
        q = parse_query("R(x) /\\ S(y) /\\ x == y")
        t = DecompTree(0, {0: ["x"], 1: ["y"]}, [(0, 1)])
        with pytest.raises(UncoveredAtomError):
            validate(t, q)

    def test_not_a_tree(self):
        with pytest.raises(NotATreeError):
            DecompTree(0, {0: [], 1: []}, [(0, 1), (0, 1)])
        with pytest.raises(NotATreeError):
            DecompTree(0, {0: [], 1: [], 2: []}, [(0, 1)])


class TestNormalize:
    def test_single_node_becomes_project_chain(self):
        q = parse_query("R1(x) /\\ R2(y)")
        t = DecompTree(7, {7: ["x", "y"]}, [], query=q)
        n = normalize(t)
        assert n.is_normalized()
        assert n.bags[n.root] == frozenset()
        kinds = [n.classify(v).kind for v in n.bfs_order()]
        assert kinds == ["project", "project", "leaf"]
        validate(n, q)

    def test_already_normalized_keeps_bags(self, f1_tree):
        t, q = f1_tree
        n = normalize(t)
        assert n.is_normalized()
        assert set(n.bags.values()) == set(t.bags.values())
        n2 = normalize(n)
        assert n2.is_normalized()
        assert set(n2.bags.values()) == set(n.bags.values())

    def test_path_tree_normalizes(self):
        t = path_tree()
        n = normalize(t)
        assert n.is_normalized()
        assert n.bags[n.root] == frozenset()
        validate(n, PATH_Q)
        # original bags survive
        for bag in t.bags.values():
            assert bag in set(n.bags.values())

    def test_width_preserved(self, rng):
        for _ in range(20):
            db, q, t = _random_decomposed(rng)
            n = normalize(t)
            assert n.is_normalized()
            validate(n, q)
            assert math.isclose(tree_width(n, q), tree_width(t, q), abs_tol=1e-9)

    def test_source_nodes_cover_new_bags(self, rng):
        for _ in range(10):
            _, q, t = _random_decomposed(rng)
            n = normalize(t)
            for bag in n.bags.values():
                assert any(bag <= original for original in t.bags.values())


class TestWidths:
    def test_triangle_fractional_cover(self):
        q = parse_query("R(x, y) /\\ S(y, z) /\\ T(z, x)")
        w = fractional_bag_width({"x", "y", "z"}, q)
        assert math.isclose(w, 1.5, abs_tol=1e-9)

    def test_empty_bag(self):
        assert fractional_bag_width(set(), PATH_Q) == 0.0

    def test_single_atom_cover(self):
        q = parse_query("R(x, y) /\\ S(y)")
        assert math.isclose(fractional_bag_width({"x", "y"}, q), 1.0, abs_tol=1e-9)

    def test_uncoverable(self):
        q = parse_query("R(x) /\\ y == y")
        with pytest.raises(UncoverableVariableError):
            fractional_bag_width({"y"}, q)

    def test_matches_vertex_oracle(self, rng):
        from oracles import vertex_enumeration_optimum

        for _ in range(15):
            _, q, t = _random_decomposed(rng)
            atoms = [c for c in free_vars(q)]
            bag = frozenset(rng.sample(sorted(free_vars(q)), k=min(2, len(free_vars(q)))))
            try:
                w = fractional_bag_width(bag, q)
            except UncoverableVariableError:
                continue
            from lpcq.queries import Atom, Var, conjuncts

            atom_vars = [
                frozenset(a.name for a in part.args if isinstance(a, Var))
                for part in conjuncts(q)
                if isinstance(part, Atom)
            ]
            names = [f"c{i}" for i in range(len(atom_vars))]
            cons = []
            for v in sorted(bag):
                coeffs = {names[i]: -1.0 for i, vs in enumerate(atom_vars) if v in vs}
                cons.append((coeffs, "<=", -1.0))
            oracle = vertex_enumeration_optimum(
                "minimize", {n: 1.0 for n in names}, 0.0, cons, names
            )
            assert oracle is not None
            assert math.isclose(w, oracle[0], abs_tol=1e-6)


class TestCompatibility:
    def test_witnesses(self, f1_tree):
        t, _ = f1_tree
        wit = check_compatible(t, [{"x"}, {"y"}, set()])
        assert wit[frozenset({"x"})] == 1
        assert wit[frozenset({"y"})] == 2
        assert wit[frozenset()] == 0

    def test_incompatible_target(self):
        q = parse_query("R(x, y) /\\ S(y, z)")
        t = DecompTree(0, {0: ["x", "y"], 1: ["y", "z"]}, [(0, 1)], query=q)
        with pytest.raises(IncompatibleTargetError):
            check_compatible(t, [{"x", "z"}])

    def test_attach_target_bags(self):
        q = parse_query("R(x, y) /\\ S(y, z)")
        t = DecompTree(0, {0: ["x", "y"], 1: ["y", "z"]}, [(0, 1)], query=q)
        t2 = attach_target_bags(t, [{"x"}, {"y", "z"}])
        wit = check_compatible(t2, [{"x"}, {"y", "z"}])
        validate(t2, q)
        assert wit[frozenset({"x"})] not in t.bags or t2.bags[wit[frozenset({"x"})]] == {"x"}

    def test_attach_impossible_target(self):
        q = parse_query("R(x, y) /\\ S(y, z)")
        t = DecompTree(0, {0: ["x", "y"], 1: ["y", "z"]}, [(0, 1)], query=q)
        with pytest.raises(IncompatibleTargetError):
            attach_target_bags(t, [{"x", "z"}])


class TestBagProjections:
    def test_f1_projections(self, f1, f1_tree):
        t, q = f1_tree
        proj = bag_projections(q, t, f1)
        assert len(proj[0]) == 1 and () in proj[0]
        assert {r[0].text for r in proj[1]} == {"0", "1"}
        assert {r[0].text for r in proj[2]} == {"0", "1"}

    def test_empty_relation_empties_everything(self, f1_tree):
        t, q = f1_tree
        db = Database(
            {
                "R1": Relation("R1", 1, []),
                "R2": Relation("R2", 1, [(V(0),), (V(1),)]),
            }
        )
        proj = bag_projections(q, t, db)
        assert all(len(a) == 0 for a in proj.values())

    def test_dangling_tuple_pruned(self):
        db = make_db(R=[(0, 1)])
        t = path_tree()
        proj = bag_projections(PATH_Q, t, db)
        # (0,1) has no continuation (1,*) so every projection is empty
        assert all(len(a) == 0 for a in proj.values())

    def test_projection_oracle_equivalence(self, rng):
        for _ in range(25):
            db, q, t = _random_decomposed(rng)
            proj = bag_projections(q, t, db)
            full = evaluate(q, db, free_vars(q))
            for node, bag in t.bags.items():
                assert proj[node] == full.restrict(bag), (q, node, bag)

    def test_size_bound(self, rng):
        for _ in range(15):
            db, q, t = _random_decomposed(rng)
            if db.size == 0:
                continue
            proj = bag_projections(q, t, db)
            for node, bag in t.bags.items():
                try:
                    w = fractional_bag_width(bag, q)
                except UncoverableVariableError:
                    continue
                assert len(proj[node]) <= db.size ** (w + 1e-9) + 1e-9


def spy_joins(monkeypatch):
    """Shared-variable count of every hash join run from now on."""
    shared = []
    join = queries._join

    def spy(a, b):
        shared.append(len(set(a.vars) & set(b.vars)))
        return join(a, b)

    monkeypatch.setattr(queries, "_join", spy)
    return shared


class TestConnectedCover:
    def test_benchmark_bags_join_on_shared_variables(self, tmp_path, monkeypatch):
        db = generate_delivery(GenSpec(size=40, seed=1))
        q = parse_query(BENCH_DECOMP["query"])
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(BENCH_DECOMP))
        (tree,) = load_decompositions(path)
        tree = match_tree_to_query(tree, q)
        shared = spy_joins(monkeypatch)
        proj = bag_projections(tree.query, tree, db)
        assert shared and min(shared) > 0, shared
        full = evaluate(tree.query, db, free_vars(tree.query))
        for node, bag in tree.bags.items():
            assert proj[node] == full.restrict(bag)

    def test_unconnected_bag_is_the_full_product(self, monkeypatch):
        db = make_db(R=[(0,), (1,)], S=[("a",), ("b",), ("c",)])
        q = parse_query("R(x) /\\ S(y)")
        tree = DecompTree(0, {0: ["x", "y"]}, [], query=q)
        shared = spy_joins(monkeypatch)
        proj = bag_projections(q, tree, db)
        assert shared == [0]
        assert {(x.text, y.text) for x, y in proj[0]} == {
            (x, y) for x in "01" for y in "abc"
        }


class TestHeuristic:
    def test_path_query_width_one(self):
        t = heuristic_decompose(PATH_Q)
        validate(t, PATH_Q)
        assert tree_width(t, PATH_Q) <= 1.0 + 1e-9
        assert all(len(b) <= 2 for b in t.bags.values())

    def test_single_atom(self):
        q = parse_query("R(x, y)")
        t = heuristic_decompose(q)
        validate(t, q)
        assert frozenset({"x", "y"}) in set(t.bags.values())

    def test_triangle(self):
        q = parse_query("R(x, y) /\\ S(y, z) /\\ T(z, x)")
        t = heuristic_decompose(q)
        validate(t, q)
        assert math.isclose(tree_width(t, q), 1.5, abs_tol=1e-9)
        assert frozenset({"x", "y", "z"}) in set(t.bags.values())

    def test_targets_become_bags(self, rng):
        for _ in range(20):
            db, q, _ = _random_decomposed(rng)
            fv = sorted(free_vars(q))
            targets = [set(rng.sample(fv, k=rng.randint(0, len(fv)))) for _ in range(3)]
            t = heuristic_decompose(q, targets)
            validate(t, q)
            n = normalize(t)
            check_compatible(n, targets)

    def test_random_queries_valid(self, rng):
        for _ in range(30):
            db, q, _ = _random_decomposed(rng)
            t = heuristic_decompose(q)
            validate(t, q)


class TestJsonInterchange:
    def test_round_trip(self, tmp_path, f1_tree):
        t, q = f1_tree
        path = tmp_path / "d.json"
        save_decompositions([t], path)
        (loaded,) = load_decompositions(path)
        assert loaded.bags == t.bags
        assert sorted(loaded.edges) == sorted(t.edges)
        assert loaded.query == q

    def test_multiple_trees(self, tmp_path, f1_tree):
        t, _ = f1_tree
        path = tmp_path / "many.json"
        save_decompositions([t, path_tree()], path)
        loaded = load_decompositions(path)
        assert len(loaded) == 2

    def test_match_alpha_equivalent_quantified(self):
        file_q = parse_query("exists w. R1(x) /\\ R2(w)")
        tree = DecompTree(0, {0: [], 1: ["x"], 2: ["w"]}, [(0, 1), (0, 2)], query=file_q)
        target = parse_query("exists y. R1(x) /\\ R2(y)")
        matched = match_tree_to_query(tree, target)
        assert matched is not None
        assert matched.query == qf(target)
        assert frozenset({"y"}) in set(matched.bags.values())

    def test_match_bare_body_declaration(self):
        file_q = parse_query("R1(x) /\\ R2(y)")
        tree = DecompTree(0, {0: [], 1: ["x"], 2: ["y"]}, [(0, 1), (0, 2)], query=file_q)
        target = parse_query("exists y. R1(x) /\\ R2(y)")
        matched = match_tree_to_query(tree, target)
        assert matched is not None
        assert matched.query == qf(target)

    def test_match_fails_on_different_query(self):
        file_q = parse_query("R1(x)")
        tree = DecompTree(0, {0: ["x"]}, [], query=file_q)
        assert match_tree_to_query(tree, parse_query("R2(x)")) is None


def _random_decomposed(rng):
    """Random db + quantifier-free query + a valid decomposition of it."""
    n_dom = rng.randint(2, 4)
    rel_specs = {}
    for name in ["R", "S", "T"][: rng.randint(1, 3)]:
        arity = rng.randint(1, 2)
        rows = {
            tuple(str(rng.randrange(n_dom)) for _ in range(arity))
            for _ in range(rng.randint(1, 6))
        }
        rel_specs[name] = rows
    db = make_db(**rel_specs)
    pool = ["x", "y", "z", "u"]
    from lpcq.queries import And, Atom, Var

    parts = []
    for _ in range(rng.randint(1, 3)):
        name = rng.choice(sorted(rel_specs))
        rel = db.relations[name]
        args = tuple(Var(rng.choice(pool)) for _ in range(rel.arity))
        parts.append(Atom(name, args))
    q = parts[0]
    for p in parts[1:]:
        q = And(q, p)
    t = heuristic_decompose(q)
    return db, q, t
