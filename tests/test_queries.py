import dataclasses
import pickle

import pytest

from lpcq.errors import (
    ArityMismatchError,
    LengthMismatchError,
    MissingFreeVariableError,
    UnknownRelationError,
)
from lpcq.language import WeightExprClosed
from lpcq.queries import (
    And,
    AnswerSet,
    Atom,
    Const,
    Equal,
    Exists,
    TRUE,
    Var,
    canonical_form,
    evaluate,
    extend,
    format_query,
    free_vars,
    is_quantifier_free,
    parse_query,
    prenex,
    projector,
    qf,
    rewrite,
    substitute,
)
from lpcq.relations import Assignment, Database, Relation, Value

from oracles import brute_force_answers


def V(text):
    return Value(str(text))


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


def answers(q, db, X=None):
    return evaluate(q, db, X).to_set()


class TestFreeVars:
    def test_projected_query(self):
        q = Exists("y", And(Atom("R1", (Var("x"),)), Atom("R2", (Var("y"),))))
        assert free_vars(q) == {"x"}

    def test_true(self):
        assert free_vars(TRUE) == frozenset()

    def test_equality_and_atom(self):
        q = And(Equal(Var("x"), Const(V("c"))), Atom("R", (Var("x"), Var("z"))))
        assert free_vars(q) == {"x", "z"}


class TestEvaluate:
    def test_product_query(self, f1):
        q = And(Atom("R1", (Var("x"),)), Atom("R2", (Var("y"),)))
        got = answers(q, f1, {"x", "y"})
        want = {
            Assignment.of({"x": V(i), "y": V(j)})
            for i in (0, 1)
            for j in (0, 1)
        }
        assert got == want

    def test_true_over_empty_set(self, f1):
        got = evaluate(TRUE, f1, frozenset())
        assert len(got) == 1 and () in got

    def test_projection_of_exists(self, f1):
        q = Exists("y", And(Atom("R1", (Var("x"),)), Atom("R2", (Var("y"),))))
        got = answers(q, f1, {"x"})
        assert got == {Assignment.of({"x": V(0)}), Assignment.of({"x": V(1)})}
        assert got == brute_force_answers(q, f1, {"x"})

    def test_unknown_relation(self, f1):
        with pytest.raises(UnknownRelationError):
            evaluate(Atom("nope", (Var("x"),)), f1)

    def test_arity_mismatch(self, f1):
        with pytest.raises(ArityMismatchError):
            evaluate(Atom("R1", (Var("x"), Var("y"))), f1)

    def test_missing_free_var(self, f1):
        q = Atom("R1", (Var("x"),))
        with pytest.raises(MissingFreeVariableError):
            evaluate(q, f1, frozenset())

    def test_constant_filter(self, f1):
        q = Atom("R1", (Const(V(0)),))
        assert len(evaluate(q, f1, frozenset())) == 1
        q2 = Atom("R1", (Const(V(7)),))
        assert len(evaluate(q2, f1, frozenset())) == 0

    def test_repeated_variable_in_atom(self):
        db = make_db(E=[(0, 0), (0, 1), (1, 1)])
        q = Atom("E", (Var("x"), Var("x")))
        got = answers(q, db)
        assert got == {Assignment.of({"x": V(0)}), Assignment.of({"x": V(1)})}

    def test_exists_over_empty_domain(self):
        db = make_db(R=[])
        # true has the empty assignment, but exists needs a witness
        assert len(evaluate(TRUE, db, frozenset())) == 1
        assert len(evaluate(Exists("x", TRUE), db, frozenset())) == 0

    def test_var_var_equality_across_atoms(self):
        db = make_db(R=[(0,), (1,)], S=[(1,), (2,)])
        q = And(And(Atom("R", (Var("x"),)), Atom("S", (Var("y"),))), Equal(Var("x"), Var("y")))
        got = answers(q, db)
        assert got == {Assignment.of({"x": V(1), "y": V(1)})}


class TestExtend:
    def test_adds_missing_vars(self):
        q = Atom("R", (Var("x"),))
        assert extend(q, ["y"]) == And(Equal(Var("y"), Var("y")), q)

    def test_noop_when_free(self):
        q = Atom("R", (Var("x"),))
        assert extend(q, ["x"]) is q

    def test_extension_ranges_over_domain(self, f1):
        q = extend(Atom("R1", (Var("x"),)), ["y"])
        got = answers(q, f1, {"x", "y"})
        assert got == brute_force_answers(q, f1, {"x", "y"})
        assert len(got) == 4


class TestSubstitute:
    def test_basic(self):
        q = Atom("R", (Var("x"), Var("y")))
        assert substitute(q, ["x"], [V(0)]) == Atom("R", (Const(V(0)), Var("y")))

    def test_bound_occurrence_untouched(self):
        q = Exists("x", Atom("R", (Var("x"),)))
        assert substitute(q, ["x"], [V(0)]) == q

    def test_vector(self):
        q = And(Atom("R", (Var("x"), Var("z"))), Equal(Var("x"), Var("z")))
        got = substitute(q, ["x", "z"], [V(0), V(1)])
        assert got == And(
            Atom("R", (Const(V(0)), Const(V(1)))), Equal(Const(V(0)), Const(V(1)))
        )

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            substitute(TRUE, ["x"], [])

    def test_substitute_then_eval_is_select(self, rng):
        for _ in range(30):
            db, q = _random_instance(rng, quantified=False)
            fv = sorted(free_vars(q))
            if not fv or not db.domain:
                continue
            x = rng.choice(fv)
            c = rng.choice(sorted(db.domain, key=lambda v: v.text))
            lhs = answers(substitute(q, [x], [c]), db, set(fv) - {x})
            full = answers(q, db, fv)
            rhs = {a.restrict(set(fv) - {x}) for a in full if a[x] is c}
            assert lhs == rhs


class TestQf:
    def test_single_quantifier(self, f1):
        q = Exists("y", And(Atom("R1", (Var("x"),)), Atom("R2", (Var("y"),))))
        body = And(Atom("R1", (Var("x"),)), Atom("R2", (Var("y"),)))
        assert qf(q) == And(body, Equal(Var("y"), Var("y")))

    def test_noop_on_quantifier_free(self):
        q = Atom("R", (Var("x"),))
        assert qf(q) is q

    def test_two_quantifiers(self):
        q = Exists("a", Exists("b", Atom("R", (Var("a"), Var("b")))))
        body = Atom("R", (Var("a"), Var("b")))
        assert qf(q) == And(
            And(body, Equal(Var("a"), Var("a"))), Equal(Var("b"), Var("b"))
        )

    def test_qf_preserves_full_answer_set(self, rng):
        for _ in range(25):
            db, q = _random_instance(rng, quantified=True)
            prefix, body = prenex(q)
            V_all = free_vars(q) | set(prefix)
            lhs = answers(qf(q), db, V_all)
            rhs = answers(body, db, V_all)
            assert lhs == rhs

    def test_distinct_prefixes_stay_distinct(self):
        base = Atom("R", (Var("x"),))
        q1 = Exists("y", And(base, Atom("S", (Var("y"),))))
        q2 = Exists("z", And(base, Atom("S", (Var("z"),))))
        assert qf(q1) != qf(q2)

    def test_hoisting_nested_exists(self):
        q = And(Atom("R", (Var("x"),)), Exists("y", Atom("S", (Var("y"),))))
        prefix, body = prenex(q)
        assert prefix and is_quantifier_free(body)
        assert is_quantifier_free(qf(q))


class TestCanonicalForm:
    def test_alpha_equivalent_queries_match(self):
        q1 = parse_query("exists y. R1(x) /\\ R2(y)")
        q2 = parse_query("exists w. R1(x) /\\ R2(w)")
        c1, m1 = canonical_form(q1)
        c2, m2 = canonical_form(q2)
        assert c1 == c2
        assert m1["__b0"] == "y" and m2["__b0"] == "w"

    def test_free_vars_still_matter(self):
        c1, _ = canonical_form(parse_query("exists y. R1(x) /\\ R2(y)"))
        c2, _ = canonical_form(parse_query("exists y. R1(z) /\\ R2(y)"))
        assert c1 != c2


class TestRewrite:
    def test_env_only(self):
        q = parse_query("R(x, y) /\\ x == z")
        got = rewrite(q, {"x": Const(V(0)), "z": Var("w")})
        assert got == parse_query("R(0, y) /\\ 0 == w")

    def test_bind_only(self):
        q = parse_query("exists y. R(x, y) /\\ (exists z. S(y, z))")
        got = rewrite(q, {}, lambda name: name.upper())
        assert got == parse_query("exists Y. R(x, Y) /\\ (exists Z. S(Y, Z))")

    def test_env_and_bind(self):
        # the binder is renamed and the free x replaced; y's env entry is
        # shadowed by its own quantifier
        q = parse_query("exists y. R(x, y)")
        got = rewrite(q, {"x": Var("a"), "y": Const(V(1))}, lambda name: name + "2")
        assert got == parse_query("exists y2. R(a, y2)")

    def test_inner_exists_shadows_env(self):
        q = parse_query("R(x) /\\ (exists x. S(x))")
        got = rewrite(q, {"x": Const(V(0))})
        assert got == parse_query("R(0) /\\ (exists x. S(x))")

    def test_bind_order_left_to_right_outer_first(self):
        q = parse_query(
            "exists a. (exists b. R(a, b)) /\\ (exists c, d. S(c, d)) /\\ (exists e. T(e))"
        )
        calls = []

        def bind(name):
            calls.append(name)
            return name

        assert rewrite(q, {}, bind) == q
        assert calls == ["a", "b", "c", "d", "e"]


class TestConcreteSyntax:
    def test_parse_example(self):
        q = parse_query("exists y. R1(x) /\\ R2(y)")
        assert q == Exists("y", And(Atom("R1", (Var("x"),)), Atom("R2", (Var("y"),))))

    def test_constants(self):
        q = parse_query('x == "w1" /\\ S(x, 10.5)')
        assert q == And(
            Equal(Var("x"), Const(V("w1"))),
            Atom("S", (Var("x"), Const(V("10.5")))),
        )

    def test_primed_identifiers(self):
        q = parse_query("R(f', w')")
        assert q == Atom("R", (Var("f'"), Var("w'")))

    def test_multi_var_exists(self):
        q = parse_query("exists a, b. R(a, b)")
        assert q == Exists("a", Exists("b", Atom("R", (Var("a"), Var("b")))))

    def test_true(self):
        assert parse_query("true") == TRUE

    def test_round_trip(self, rng):
        for _ in range(50):
            _, q = _random_instance(rng, quantified=rng.random() < 0.5)
            assert parse_query(format_query(q)) == q


def _random_instance(rng, quantified):
    """Small random database plus a query it can evaluate."""
    n_dom = rng.randint(2, 4)
    schema = {}
    for name in ["R", "S", "T"][: rng.randint(1, 3)]:
        arity = rng.randint(1, 2)
        n_rows = rng.randint(0, 6)
        rows = {
            tuple(rng.randrange(n_dom) for _ in range(arity)) for _ in range(n_rows)
        }
        schema[name] = [tuple(map(str, r)) for r in rows]
    db = make_db(**schema)
    pool = ["x", "y", "z", "u"]
    parts = []
    for _ in range(rng.randint(1, 3)):
        name = rng.choice(sorted(schema))
        arity = len(schema[name][0]) if schema[name] else rng.randint(1, 2)
        rel = db.relations[name]
        arity = rel.arity
        args = tuple(Var(rng.choice(pool)) for _ in range(arity))
        parts.append(Atom(name, args))
    if rng.random() < 0.4:
        parts.append(Equal(Var(rng.choice(pool)), Const(V(rng.randrange(n_dom)))))
    q = parts[0]
    for p in parts[1:]:
        q = And(q, p)
    if quantified:
        fv = sorted(free_vars(q))
        for var in rng.sample(fv, k=min(len(fv), rng.randint(1, 2))):
            q = Exists(var, q)
    return db, q


class TestAgainstBruteForce:
    def test_fig_semantics_randomized(self, rng):
        for _ in range(60):
            db, q = _random_instance(rng, quantified=rng.random() < 0.4)
            fv = free_vars(q)
            extra = {"p"} if rng.random() < 0.3 else set()
            X = fv | extra
            if len(db.domain) ** max(len(X), 1) > 10**5:
                continue
            got = answers(q, db, X)
            want = brute_force_answers(q, db, X)
            assert got == want, (q, X)

    def test_rows_restrict_to_fv_answers(self, rng):
        for _ in range(25):
            db, q = _random_instance(rng, quantified=False)
            fv = free_vars(q)
            X = fv | {"p"}
            full = evaluate(q, db, X)
            base = evaluate(q, db, fv)
            for a in full.assignments():
                assert a.restrict(fv) in base.to_set()
            # and every base answer extends with all domain values
            if db.domain:
                assert len(full) == len(base) * len(db.domain) ** (len(X) - len(fv))


class TestAnswerSet:
    def test_restrict_and_group(self, f1):
        q = And(Atom("R1", (Var("x"),)), Atom("R2", (Var("y"),)))
        a = evaluate(q, f1, {"x", "y"})
        r = a.restrict(["x"])
        assert {row[0].text for row in r} == {"0", "1"}
        groups = a.group_by(["x"])
        assert {k[0].text: len(idx) for k, idx in groups.items()} == {"0": 2, "1": 2}

    def test_empty_restriction_semantics(self, f1):
        a = evaluate(Atom("R1", (Var("x"),)), f1)
        assert len(a.restrict([])) == 1
        empty = AnswerSet(("x",), [])
        assert len(empty.restrict([])) == 0

    def test_group_by_nothing(self, f1):
        a = evaluate(Atom("R1", (Var("x"),)), f1)
        assert a.group_by([]) == {(): [0, 1]}
        assert AnswerSet(("x",), []).group_by([]) == {}


class TestProjector:
    @pytest.mark.parametrize(
        "to_vars, expected",
        [((), ()), (("y",), ("b",)), (("x", "z"), ("a", "c")), (("z", "x", "y"), ("c", "a", "b"))],
    )
    def test_values_in_requested_order(self, to_vars, expected):
        row = (V("a"), V("b"), V("c"))
        projected = projector(("x", "y", "z"), to_vars)(row)
        assert isinstance(projected, tuple)
        assert tuple(v.text for v in projected) == expected


class TestHashOnce:
    TEXT = 'exists y. R(x, y) /\\ y == "a" /\\ x == x'

    def test_equal_values_built_apart_hash_and_compare_equal(self):
        a, b = parse_query(self.TEXT), parse_query(self.TEXT)
        assert a is not b
        assert a == b and hash(a) == hash(b)
        wa = WeightExprClosed("q", a, (("x", V("c")),))
        wb = WeightExprClosed("q", b, (("x", V("c")),))
        assert wa == wb and hash(wa) == hash(wb)
        assert {wa: 1}[wb] == 1

    def test_cache_is_outside_the_fields(self):
        q = parse_query(self.TEXT)
        w = WeightExprClosed("q", q, ())
        before = (repr(q), repr(w))
        hash(q), hash(w)
        assert (repr(q), repr(w)) == before
        assert "_hash" not in before[0] + before[1]
        assert [f.name for f in dataclasses.fields(q)] == ["var", "body"]
        assert [f.name for f in dataclasses.fields(w)] == ["query_name", "query", "targets"]
        assert dataclasses.replace(q) == q

    def test_children_are_hashed_once(self):
        calls = []

        class Counted:
            def __hash__(self):
                calls.append(1)
                return 7

        atom = Atom("R", (Counted(),))
        first = hash(atom)
        assert hash(atom) == first and hash(And(atom, atom)) == hash(And(atom, atom))
        assert len(calls) == 1

    def test_pickled_state_drops_the_cache(self):
        q = parse_query("exists y. R(x, y) /\\ x == y")
        hash(q)
        copy = pickle.loads(pickle.dumps(q))
        assert "_hash" not in copy.__dict__
        assert copy == q and hash(copy) == hash(q)
