import math

import pytest

from lpcq.errors import (
    FreeVariableError,
    NumUndefinedError,
    ParseError,
    ShadowingError,
)
from lpcq.language import (
    CAnd,
    CCompare,
    CForall,
    NumOf,
    SAdd,
    SNum,
    SScale,
    SSum,
    SWeight,
    close,
    free_vars_lpcq,
    normal_form,
    parse,
)
from lpcq.queries import Var, parse_query
from lpcq.relations import Value

from makers import make_db, numeric_db, rand_lpcq_program
from oracles import size

WORKED = """
let Q(x, y) = R1(x) /\\ R2(y)

maximize weight[(x, y): true](Q)
subject to weight[(x, y): x == 0](Q) <= 1
        /\\ weight[(x, y): x == 1](Q) <= 1
"""

BUDGET = """
let Q(x, y) = R1(x) /\\ R2(y)

maximize weight[(x, y): true](Q)
subject to forall (z): S(z).
    weight[(x, y): x == z](Q) <= sum{(w): T(z, w)}( num(w) )
"""

DELIVERY = """
let dlr(f', w', b', o') =
  exists q, q2, c, c2.
    prod(f', o', q) /\\ order(b', o', q2) /\\ route(f', w', c) /\\ route(w', b', c2)

minimize
  sum{(f, w, c): route(f, w, c)}( num(c) weight[(f', w', b', o'): f' == f /\\ w' == w](dlr) )
  + sum{(w, b, c): route(w, b, c)}( num(c) weight[(f', w', b', o'): w' == w /\\ b' == b](dlr) )
subject to
  forall (f, o, q): prod(f, o, q).
    weight[(f', w', b', o'): f' == f /\\ o' == o](dlr) <= num(q)
  /\\ forall (b, o, q): order(b, o, q).
    weight[(f', w', b', o'): b' == b /\\ o' == o](dlr) >= num(q)
  /\\ forall (w, l): store(w, l).
    weight[(f', w', b', o'): w' == w](dlr) <= num(l)
"""


def f1_db():
    return make_db(R1=[(0,), (1,)], R2=[(0,), (1,)])


def budget_db():
    return make_db(
        R1=[(0,), (1,)],
        R2=[(0,), (1,)],
        S=[(0,), (1,)],
        T=[(0, 0.4), (0, 0.6), (1, 0.3)],
    )


class TestParse:
    def test_worked_example(self):
        p = parse(WORKED)
        assert not p.minimized
        assert isinstance(p.objective, SWeight)
        assert p.objective.targets == ()
        pieces = []
        node = p.constraint
        while isinstance(node, CAnd):
            pieces.append(node.right)
            node = node.left
        pieces.append(node)
        assert len(pieces) == 2
        assert all(isinstance(c, CCompare) for c in pieces)

    def test_delivery_program_shape(self):
        p = parse(DELIVERY)
        assert p.minimized
        # objective desugars to -1 * (two-term sum)
        assert isinstance(p.objective, SScale)
        assert isinstance(p.objective.body, SAdd)
        quantified = []
        stack = [p.constraint]
        while stack:
            node = stack.pop()
            if isinstance(node, CAnd):
                stack.extend([node.left, node.right])
            elif isinstance(node, CForall):
                quantified.append(node)
        assert len(quantified) == 3

    def test_unknown_query_name(self):
        with pytest.raises(ParseError):
            parse("maximize weight[(x): true](Q) subject to true")

    def test_free_variable_rejected(self):
        text = """
        let Q(x) = R1(x)
        maximize weight[(x): x == z](Q) subject to true
        """
        with pytest.raises(FreeVariableError):
            parse(text)

    def test_num_free_variable_rejected(self):
        text = """
        let Q(x) = R1(x)
        maximize num(y) weight[(x): true](Q) subject to true
        """
        with pytest.raises(FreeVariableError):
            parse(text)

    def test_shadowed_value_variable_rejected(self):
        text = """
        let Q(x) = R1(x)
        maximize weight[(x): true](Q)
        subject to forall (z): S(z). weight[(x): x == x](Q) <= 1
        """
        with pytest.raises(ShadowingError):
            parse(text)

    def test_scope_must_cover_query(self):
        text = """
        let Q(x, y) = R1(x) /\\ R2(y)
        maximize weight[(x): true](Q) subject to true
        """
        with pytest.raises(ParseError):
            parse(text)

    def test_target_not_free_var(self):
        text = """
        let Q(x) = R1(x)
        maximize weight[(x): y == 0](Q) subject to true
        """
        with pytest.raises(ParseError):
            parse(text)

    def test_nested_binders_renamed_apart(self):
        text = """
        let Q(x) = R1(x)
        maximize sum{(z): S(z)}( sum{(z): S(z)}( num(z) weight[(x): true](Q) ) )
        subject to true
        """
        p = parse(text)
        outer = p.objective
        assert isinstance(outer, SSum)
        inner = outer.body
        assert isinstance(inner, SSum)
        assert outer.binders != inner.binders


    # x is a query variable, so the forall binder x gets a new name, which
    # must not be the x_1 its binder query quantifies
    CAPTURE = """
    let Q(y) = R1(y)
    let P(x) = R1(x)
    maximize weight[(y): true](Q)
    subject to forall (x): exists x_1. S(x, x_1). weight[(y): y == VALUE](Q) <= 1
    """

    def test_renamed_binder_not_captured(self):
        db = make_db(R1=[(0,), (1,)], S=[(0, 1), (1, 0)])
        cp = close(parse(self.CAPTURE.replace("VALUE", "x")), db)
        assert len(cp.constraints) == 2

    def test_renamed_binder_binds_no_other_variable(self):
        with pytest.raises(FreeVariableError):
            parse(self.CAPTURE.replace("VALUE", "x_1"))


class TestFreeVarsRules:
    def test_weight_only_value_vars_escape(self):
        q = parse_query("R1(x) /\\ R2(y)")
        w = SWeight(("x", "y"), (("x", Var("z")),), "Q", q)
        assert free_vars_lpcq(w) == {"z"}

    def test_forall_binds_query_and_body(self):
        q = parse_query("store(w, l)")
        body = CCompare(SNum(NumOf(Var("w"))), "<=", SNum(NumOf(Var("l"))))
        assert free_vars_lpcq(CForall(("w", "l"), q, body)) == frozenset()

    def test_sum_over_num(self):
        q = parse_query("T(z, y)")
        s = SSum(("y",), q, SNum(NumOf(Var("y"))))
        assert free_vars_lpcq(s) == {"z"}


class TestClose:
    def test_budget_example_closure(self):
        p = parse(BUDGET)
        cp = close(p, budget_db())
        assert len(cp.constraints) == 2
        rows = sorted(
            (con.canonical() for con in cp.constraints),
            key=lambda c: c[2],
        )
        (terms0, rel0, bound0), (terms1, rel1, bound1) = rows
        assert rel0 == rel1 == "<="
        assert math.isclose(bound0, 0.3) and math.isclose(bound1, 1.0)
        # each row constrains a single slice of Q's weight
        assert len(terms0) == 1 and len(terms1) == 1

    def test_forall_over_empty_answer_set(self):
        text = """
        let Q(x) = R1(x)
        maximize weight[(x): true](Q)
        subject to forall (z): Empty(z). weight[(x): x == z](Q) <= 1
        """
        db = make_db(R1=[(0,)], Empty=(1, []))
        cp = close(parse(text), db)
        assert cp.constraints == []

    def test_sum_reads_numeric_coefficients(self):
        text = """
        let Q(x) = R1(x)
        maximize sum{(s, t, val): Sens(s, t, val)}( num(val) weight[(x): true](Q) )
        subject to true
        """
        db = make_db(R1=[(0,)], Sens=[("a", "b", 1.5), ("a", "c", 2.25)])
        cp = close(parse(text), db)
        w = cp.weight_exprs()[0]
        assert math.isclose(cp.objective.terms[w], 3.75)

    def test_num_undefined(self):
        text = """
        let Q(x) = R1(x)
        maximize weight[(x): true](Q)
        subject to forall (z): S(z). weight[(x): x == z](Q) <= num(z)
        """
        db = make_db(R1=[(0,)], S=[("notanumber",)])
        with pytest.raises(NumUndefinedError):
            close(parse(text), db)

    def test_num_constant_decodes(self):
        text = """
        let Q(x) = R1(x)
        maximize num(2.5) weight[(x): true](Q)
        subject to true
        """
        cp = close(parse(text), f1_db())
        w = cp.weight_exprs()[0]
        assert cp.objective.terms[w] == 2.5

    def test_closure_contains_only_closed_weights(self):
        cp = close(parse(BUDGET), budget_db())
        for w in cp.weight_exprs():
            for _, v in w.targets:
                assert isinstance(v, Value)

    def test_shadowing_semantics_via_ast(self):
        # built directly: forall (x): S(x). sum over x again; inner binding wins
        q_s = parse_query("S(x)")
        inner = SSum(("x",), parse_query("T(x)"), SNum(NumOf(Var("x"))))
        prog = LpcqProgramFactory(inner)
        db = make_db(S=[(5,)], T=[(7,)], R1=[(0,)])
        cp = close(prog, db)
        (con,) = cp.constraints
        assert math.isclose(con.canonical()[2], 7.0)


def LpcqProgramFactory(inner_sum):
    from lpcq.language import LpcqProgram

    q_r = parse_query("R1(x0)")
    w = SWeight(("x0",), (), "Q", q_r)
    constraint = CForall(("x",), parse_query("S(x)"), CCompare(w, "<=", inner_sum))
    return LpcqProgram(w, constraint, {"Q": q_r})


class TestNormalForm:
    def test_forall_distributes_and_merges(self):
        text = """
        let Q(x) = R1(x)
        maximize weight[(x): true](Q)
        subject to forall (a): S(a). forall (b): T(b).
            ( weight[(x): x == a](Q) <= num(b) /\\ weight[(x): x == b](Q) <= 1 )
        """
        p = parse(text)
        nf = normal_form(p)
        atomics = []
        node = nf.constraint
        while isinstance(node, CAnd):
            atomics.append(node.right)
            node = node.left
        atomics.append(node)
        assert len(atomics) == 2
        for c in atomics:
            assert isinstance(c, CForall)
            assert len(c.binders) == 2
            assert isinstance(c.body, CCompare)

    def test_sum_distributes(self):
        text = """
        let Q(x) = R1(x)
        maximize sum{(z): S(z)}( weight[(x): x == z](Q) + num(z) )
        subject to true
        """
        nf = normal_form(parse(text))
        assert isinstance(nf.objective, SAdd)
        left, right = nf.objective.left, nf.objective.right
        assert isinstance(left, SSum) and isinstance(right, SSum)

    def test_idempotent_on_atomic(self):
        p = parse(WORKED)
        nf = normal_form(p)
        nf2 = normal_form(nf)
        db = f1_db()
        assert close(nf, db).canonical() == close(nf2, db).canonical()

    def test_close_commutes_randomized(self, rng):
        checked = 0
        for _ in range(60):
            db = numeric_db(rng)
            p = rand_lpcq_program(rng, db)
            nf = normal_form(p)
            assert size(nf) <= size(p) ** 3
            a = close(p, db).canonical()
            b = close(nf, db).canonical()
            assert a == b
            checked += 1
        assert checked == 60

    def test_constraint_count_bound(self, rng):
        # for normal-form programs: closed constraints <= |p| * max forall answers
        from lpcq.queries import evaluate as qeval

        for _ in range(20):
            db = numeric_db(rng)
            p = normal_form(rand_lpcq_program(rng, db))
            cp = close(p, db)
            sizes = [1]
            node_stack = [p.constraint]
            while node_stack:
                node = node_stack.pop()
                if isinstance(node, CAnd):
                    node_stack.extend([node.left, node.right])
                elif isinstance(node, CForall):
                    rows = qeval(node.query, db, set(node.binders))
                    sizes.append(len(rows))
            bound = size(p) * max(sizes)
            assert len(cp.constraints) <= bound
