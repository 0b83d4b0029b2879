"""The optimization surface language: parsing, normal form, and closure.

A program declares named conjunctive queries in a prelude, then maximizes or
minimizes a linear sum over *weight expressions* subject to constraints.
Weight expressions denote the summed weight of all answers of a query that
agree with given values on chosen variables; ``forall`` and ``sum`` iterate
constraints and sums over a query's answers; ``num(...)`` reads a numeric
value out of the database.

Concrete grammar sketch::

    let dlr(f', w', b', o') = exists q. prod(f', o', q) /\\ ...

    minimize
      sum{(f, w, c): route(f, w, c)}( num(c) * weight[(f', w', b', o'): f' == f /\\ w' == w](dlr) )
    subject to
      forall (w, l): store(w, l). weight[(f', w', b', o'): w' == w](dlr) <= num(l)

``minimize`` is desugared at parse time to maximizing the negated sum.
``close()`` unfolds forall/sum/num over a database, producing a closed
program whose only nonconstant pieces are weight expressions with constant
targets; the interpretations in ``interpret`` start from that form.

Closure decorrelates nested binders (Kim, "On optimizing an SQL-like
nested query", TODS 1982; Neumann and Kemper, "Unnesting Arbitrary
Queries", BTW 2015): each ``forall`` or ``sum`` binder query is evaluated
once, with the outer variables it mentions left free, and its rows are
grouped by those variables.  Each node is closed once, on code columns,
for all its rows; ``num(x)`` gathers from the dictionary's numeric column.
The result is in family form, one ``WeightFamily`` per weight template:
target codes, coefficients and sides of its terms.  Rows and coefficients
(down to the order of float sums) are those of closing a binder row at a
time: depth-first, so a ``forall`` over k comparisons gives k rows per
binder row, interleaved.  Terms keep ``WeightExprClosed.sort_key`` order
within a side, since HiGHS's vertex depends on the column order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, reduce
from operator import itemgetter
from typing import Mapping, NamedTuple

import numpy as np

from .errors import (
    FreeVariableError,
    InternalFreeVariableError,
    LpcqError,
    MissingFreeVariableError,
    NumUndefinedError,
    ParseError,
    ShadowingError,
)
from .lexer import TokenStream, tokenize
from .queries import (
    And,
    Const,
    Expr,
    Query,
    Var,
    evaluate,
    extend,
    free_vars as query_free_vars,
    hash_once,
    lookup,
    parse_query_tokens,
    parse_value_expr,
    rewrite,
)
from .relations import Database, Dictionary, Value, join_keys, key_ids, match


# --- numbers -----------------------------------------------------------------

@dataclass(frozen=True)
class Real:
    value: float


@dataclass(frozen=True)
class NumOf:
    expr: Expr


NumExpr = Real | NumOf


# --- sums ----------------------------------------------------------------------

@dataclass(frozen=True)
class SNum:
    num: NumExpr


@dataclass(frozen=True)
class SScale:
    num: NumExpr
    body: "Sum"


@dataclass(frozen=True)
class SAdd:
    left: "Sum"
    right: "Sum"


@dataclass(frozen=True)
class SSum:
    binders: tuple[str, ...]
    query: Query
    body: "Sum"


@dataclass(frozen=True)
class SWeight:
    scope: tuple[str, ...]
    targets: tuple[tuple[str, Expr], ...]  # (query variable, value expression)
    query_name: str
    query: Query
    span: tuple[int, int] | None = field(default=None, compare=False)


Sum = SNum | SScale | SAdd | SSum | SWeight


# --- constraints -----------------------------------------------------------------

@dataclass(frozen=True)
class CTrue:
    pass


@dataclass(frozen=True)
class CCompare:
    left: Sum
    rel: str  # "<=" or "="
    right: Sum


@dataclass(frozen=True)
class CAnd:
    left: "Constraint"
    right: "Constraint"


@dataclass(frozen=True)
class CForall:
    binders: tuple[str, ...]
    query: Query
    body: "Constraint"


Constraint = CTrue | CCompare | CAnd | CForall


@dataclass
class LpcqProgram:
    objective: Sum
    constraint: Constraint
    queries: dict[str, Query]          # prelude, by name
    minimized: bool = False            # surface sense was `minimize`


# --- free variables ---------------------------------------------------------------


def _num_vars(n: NumExpr) -> frozenset[str]:
    return frozenset({n.expr.name} if isinstance(n, NumOf) and isinstance(n.expr, Var) else ())


def free_vars_lpcq(node) -> frozenset[str]:
    """Free variables of a sum, constraint, or program."""
    if isinstance(node, LpcqProgram):
        return free_vars_lpcq(node.objective) | free_vars_lpcq(node.constraint)
    if isinstance(node, SNum):
        return _num_vars(node.num)
    if isinstance(node, SScale):
        return _num_vars(node.num) | free_vars_lpcq(node.body)
    if isinstance(node, (SAdd, CCompare, CAnd)):
        return free_vars_lpcq(node.left) | free_vars_lpcq(node.right)
    if isinstance(node, (SSum, CForall)):
        return (query_free_vars(node.query) | free_vars_lpcq(node.body)) - set(node.binders)
    if isinstance(node, SWeight):
        y_vars = frozenset(e.name for _, e in node.targets if isinstance(e, Var))
        return (query_free_vars(node.query) | y_vars) - set(node.scope)
    if isinstance(node, CTrue):
        return frozenset()
    raise TypeError(f"not a program node: {node!r}")


# --- parsing ----------------------------------------------------------------------


def parse(text: str) -> LpcqProgram:
    """Parse program text, check closedness, and make binders hygienic."""
    tokens = tokenize(text)
    stream = TokenStream(tokens)
    prelude: dict[str, Query] = {}
    while stream.at_name("let"):
        stream.next()
        name_tok = stream.expect("NAME")
        stream.expect("OP", "(")
        params: list[str] = []
        if not stream.at("OP", ")"):
            params.append(stream.expect("NAME").text)
            while stream.accept("OP", ","):
                params.append(stream.expect("NAME").text)
        stream.expect("OP", ")")
        stream.expect("OP", "=")
        query = parse_query_tokens(stream)
        if name_tok.text in prelude:
            raise ParseError(f"query {name_tok.text!r} defined twice", name_tok.span)
        undeclared = query_free_vars(query) - set(params)
        if undeclared:
            raise ParseError(
                f"query {name_tok.text!r} leaves {sorted(undeclared)} undeclared",
                name_tok.span,
            )
        prelude[name_tok.text] = query

    sense_tok = stream.expect("NAME")
    if sense_tok.text not in ("maximize", "minimize"):
        raise ParseError("expected 'maximize' or 'minimize'", sense_tok.span)
    minimized = sense_tok.text == "minimize"

    parser = _ProgramParser(stream, prelude)
    objective = parser.parse_sum()
    stream.expect("NAME", "subject")
    stream.expect("NAME", "to")
    constraint = parser.parse_constraint()
    stream.expect("EOF")

    if minimized:
        objective = SScale(Real(-1.0), objective)

    program = LpcqProgram(objective, constraint, prelude, minimized=minimized)
    program = _hygienic(program, {tok.text for tok in tokens if tok.kind == "NAME"})

    loose = free_vars_lpcq(program)
    if loose:
        raise FreeVariableError(f"program leaves {sorted(loose)} unbound")
    return program


class _ProgramParser:
    def __init__(self, stream: TokenStream, prelude: Mapping[str, Query]):
        self.stream = stream
        self.prelude = prelude

    # constraints

    def parse_constraint(self) -> Constraint:
        node = self.parse_constraint_atom()
        while self.stream.at("OP", "/\\"):
            self.stream.next()
            node = CAnd(node, self.parse_constraint_atom())
        return node

    def parse_constraint_atom(self) -> Constraint:
        stream = self.stream
        if stream.at_name("true"):
            stream.next()
            return CTrue()
        if stream.at_name("forall"):
            stream.next()
            binders = self._binder_list()
            stream.expect("OP", ":")
            query = parse_query_tokens(stream)
            stream.expect("OP", ".")
            body = self.parse_constraint_atom()
            return CForall(binders, query, body)
        if stream.at("OP", "("):
            # lookahead: parenthesized constraint group or a parenthesized sum
            mark = stream.pos
            stream.next()
            try:
                inner = self.parse_constraint()
                if stream.accept("OP", ")"):
                    return inner
            except ParseError:
                pass
            stream.pos = mark
        left = self.parse_sum()
        rel_tok = stream.peek()
        if rel_tok.kind == "OP" and rel_tok.text in ("<=", ">=", "=="):
            stream.next()
            right = self.parse_sum()
            if rel_tok.text == "<=":
                return CCompare(left, "<=", right)
            if rel_tok.text == ">=":
                return CCompare(right, "<=", left)
            return CCompare(left, "=", right)
        raise ParseError("expected a comparison", rel_tok.span)

    # sums

    def parse_sum(self) -> Sum:
        node = self.parse_product()
        while True:
            if self.stream.at("OP", "+"):
                self.stream.next()
                node = SAdd(node, self.parse_product())
            elif self.stream.at("OP", "-"):
                self.stream.next()
                node = SAdd(node, SScale(Real(-1.0), self.parse_product()))
            else:
                return node

    def parse_product(self) -> Sum:
        factors: list[Sum] = [self.parse_factor()]
        while True:
            if self.stream.at("OP", "*"):
                self.stream.next()
                factors.append(self.parse_factor())
                continue
            tok = self.stream.peek()
            if tok.kind == "NUMBER" or (
                tok.kind == "NAME" and tok.text in ("num", "weight", "sum")
            ) or (tok.kind == "OP" and tok.text == "("):
                factors.append(self.parse_factor())
                continue
            break
        carriers = [f for f in factors if not isinstance(f, SNum)]
        if len(carriers) > 1:
            raise ParseError(
                "a product may contain at most one weight or sum term",
                self.stream.peek().span,
            )
        body = carriers[0] if carriers else None
        nums = [f.num for f in factors if isinstance(f, SNum)]
        if body is None:
            if len(nums) == 1:
                return SNum(nums[0])
            node: Sum = SNum(nums[-1])
            for n in reversed(nums[:-1]):
                node = SScale(n, node)
            return node
        node = body
        for n in reversed(nums):
            node = SScale(n, node)
        return node

    def parse_factor(self) -> Sum:
        stream = self.stream
        tok = stream.peek()
        if tok.kind == "NUMBER":
            stream.next()
            return SNum(Real(float(tok.text)))
        if tok.kind == "OP" and tok.text == "-":
            stream.next()
            return SScale(Real(-1.0), self.parse_factor())
        if stream.at_name("num"):
            stream.next()
            stream.expect("OP", "(")
            expr = parse_value_expr(stream)
            stream.expect("OP", ")")
            return SNum(NumOf(expr))
        if stream.at_name("weight"):
            return self.parse_weight()
        if stream.at_name("sum"):
            stream.next()
            stream.expect("OP", "{")
            binders = self._binder_list()
            stream.expect("OP", ":")
            query = parse_query_tokens(stream)
            stream.expect("OP", "}")
            stream.expect("OP", "(")
            body = self.parse_sum()
            stream.expect("OP", ")")
            return SSum(binders, query, body)
        if tok.kind == "OP" and tok.text == "(":
            stream.next()
            inner = self.parse_sum()
            stream.expect("OP", ")")
            return inner
        raise ParseError(f"expected a sum, found {tok.text or tok.kind!r}", tok.span)

    def parse_weight(self) -> Sum:
        stream = self.stream
        start = stream.expect("NAME", "weight")
        stream.expect("OP", "[")
        stream.expect("OP", "(")
        scope: list[str] = []
        if not stream.at("OP", ")"):
            scope.append(stream.expect("NAME").text)
            while stream.accept("OP", ","):
                scope.append(stream.expect("NAME").text)
        stream.expect("OP", ")")
        stream.expect("OP", ":")
        targets: list[tuple[str, Expr]] = []
        if stream.at_name("true"):
            stream.next()
        else:
            targets.append(self._target_pair())
            while stream.accept("OP", "/\\"):
                targets.append(self._target_pair())
        stream.expect("OP", "]")
        stream.expect("OP", "(")
        qname_tok = stream.expect("NAME")
        stream.expect("OP", ")")

        if qname_tok.text not in self.prelude:
            raise ParseError(f"unknown query {qname_tok.text!r}", qname_tok.span)
        query = self.prelude[qname_tok.text]
        fv = query_free_vars(query)
        scope_t = tuple(scope)
        if not fv <= set(scope_t):
            raise ParseError(
                f"weight scope {scope} must cover the query variables {sorted(fv)}",
                start.span,
            )
        lhs = [x for x, _ in targets]
        if len(set(lhs)) != len(lhs):
            raise ParseError("weight target variables must be pairwise distinct", start.span)
        bad = set(lhs) - fv
        if bad:
            raise ParseError(
                f"weight targets {sorted(bad)} are not free variables of {qname_tok.text!r}",
                start.span,
            )
        for _, e in targets:
            if isinstance(e, Var) and e.name in scope_t:
                raise ShadowingError(
                    f"value variable {e.name!r} is shadowed by the weight scope",
                    start.span,
                )
        return SWeight(scope_t, tuple(targets), qname_tok.text, query, span=start.span)

    def _target_pair(self) -> tuple[str, Expr]:
        var_tok = self.stream.expect("NAME")
        self.stream.expect("OP", "==")
        value = parse_value_expr(self.stream)
        return var_tok.text, value

    def _binder_list(self) -> tuple[str, ...]:
        stream = self.stream
        stream.expect("OP", "(")
        names = [stream.expect("NAME").text]
        while stream.accept("OP", ","):
            names.append(stream.expect("NAME").text)
        stream.expect("OP", ")")
        if len(set(names)) != len(names):
            raise ParseError("binder variables must be pairwise distinct", stream.peek().span)
        return tuple(names)


# --- binder hygiene -----------------------------------------------------------------


def _hygienic(program: LpcqProgram, names: set[str]) -> LpcqProgram:
    """Rename forall/sum binders apart from each other and all query scopes.

    A new binder name is none of *names*, the identifiers of the source, so
    no quantifier of a binder query can capture it.
    """
    used = set().union(*map(query_free_vars, program.queries.values()))
    counter = itertools.count(1)

    def fresh(base: str) -> str:
        cand = next(c for k in counter if (c := f"{base}_{k}") not in used and c not in names)
        used.add(cand)
        return cand

    def rename_binders(
        binders: tuple[str, ...], ren: dict[str, Expr]
    ) -> tuple[tuple[str, ...], dict[str, Expr]]:
        """Hygienic binder names, and *ren* as seen under the binders."""
        out = []
        inner = {k: v for k, v in ren.items() if k not in binders}
        for b in binders:
            if b in used:
                inner[b] = Var(fresh(b))
            used.add(b)
            out.append(inner[b].name if b in inner else b)
        return tuple(out), inner

    def walk_num(n: NumExpr, ren: dict[str, Expr]) -> NumExpr:
        return NumOf(lookup(n.expr, ren)) if isinstance(n, NumOf) else n

    def walk_sum(node: Sum, ren: dict[str, Expr]) -> Sum:
        if isinstance(node, SNum):
            return SNum(walk_num(node.num, ren))
        if isinstance(node, SScale):
            return SScale(walk_num(node.num, ren), walk_sum(node.body, ren))
        if isinstance(node, SAdd):
            return SAdd(walk_sum(node.left, ren), walk_sum(node.right, ren))
        if isinstance(node, SWeight):
            targets = tuple((x, lookup(e, ren)) for x, e in node.targets)
            return SWeight(node.scope, targets, node.query_name, node.query, span=node.span)
        if isinstance(node, SSum):
            binders, inner = rename_binders(node.binders, ren)
            return SSum(binders, rewrite(node.query, inner), walk_sum(node.body, inner))
        raise TypeError(node)

    def walk_con(node: Constraint, ren: dict[str, Expr]) -> Constraint:
        if isinstance(node, CTrue):
            return node
        if isinstance(node, CCompare):
            return CCompare(walk_sum(node.left, ren), node.rel, walk_sum(node.right, ren))
        if isinstance(node, CAnd):
            return CAnd(walk_con(node.left, ren), walk_con(node.right, ren))
        if isinstance(node, CForall):
            binders, inner = rename_binders(node.binders, ren)
            return CForall(binders, rewrite(node.query, inner), walk_con(node.body, inner))
        raise TypeError(node)

    return LpcqProgram(
        walk_sum(program.objective, {}),
        walk_con(program.constraint, {}),
        program.queries,
        minimized=program.minimized,
    )


# --- normal form ---------------------------------------------------------------------


def _atomic_sums(node: Sum) -> list[tuple[tuple[NumExpr, ...], tuple[tuple[str, ...], Query] | None, SWeight | None]]:
    """Flatten a sum into (coefficient factors, merged binder, carrier) triples."""
    if isinstance(node, SNum):
        return [((node.num,), None, None)]
    if isinstance(node, SWeight):
        return [((), None, node)]
    if isinstance(node, SAdd):
        return _atomic_sums(node.left) + _atomic_sums(node.right)
    if isinstance(node, SScale):
        return [((node.num,) + factors, binder, carrier)
                for factors, binder, carrier in _atomic_sums(node.body)]
    if isinstance(node, SSum):
        return [
            (factors, (node.binders, node.query) if binder is None
             else (node.binders + binder[0], And(node.query, binder[1])), carrier)
            for factors, binder, carrier in _atomic_sums(node.body)
        ]
    raise TypeError(node)


def _rebuild_atomic_sum(factors, binder, carrier) -> Sum:
    if carrier is None:
        carrier, factors = SNum(factors[-1] if factors else Real(1.0)), factors[:-1]
    for n in reversed(factors):
        carrier = SScale(n, carrier)
    return carrier if binder is None else SSum(*binder, carrier)


def _sum_normal_form(node: Sum) -> Sum:
    return reduce(SAdd, [_rebuild_atomic_sum(*atomic) for atomic in _atomic_sums(node)])


def _atomic_constraints(node: Constraint) -> list[Constraint]:
    if isinstance(node, CTrue):
        return []
    if isinstance(node, CCompare):
        return [CCompare(_sum_normal_form(node.left), node.rel, _sum_normal_form(node.right))]
    if isinstance(node, CAnd):
        return _atomic_constraints(node.left) + _atomic_constraints(node.right)
    if isinstance(node, CForall):
        return [
            CForall(node.binders + inner.binders, And(node.query, inner.query), inner.body)
            if isinstance(inner, CForall) else CForall(node.binders, node.query, inner)
            for inner in _atomic_constraints(node.body)
        ]
    raise TypeError(node)


def normal_form(program: LpcqProgram) -> LpcqProgram:
    """Rewrite into sums of atomic sums and a conjunction of atomic
    constraints, each with at most one merged quantifier prefix.

    Closure commutes with this rewrite up to constraint order, and the
    result's size stays within the cube of the input's.
    """
    atomics = _atomic_constraints(program.constraint)
    return LpcqProgram(
        _sum_normal_form(program.objective),
        reduce(CAnd, atomics) if atomics else CTrue(),
        program.queries,
        minimized=program.minimized,
    )


# --- closed programs ---------------------------------------------------------------


@hash_once
@dataclass(frozen=True)
class WeightExprClosed:
    """weight with constant targets: the summed mass of answers of *query*
    agreeing with *targets*."""

    query_name: str
    query: Query
    targets: tuple[tuple[str, Value], ...]  # sorted by variable

    def sort_key(self):
        return (self.query_name, tuple((x, v.text) for x, v in self.targets))

    def target_vars(self) -> frozenset[str]:
        return frozenset(x for x, _ in self.targets)

    def __repr__(self):
        inner = " /\\ ".join(f"{x} == {v.text}" for x, v in self.targets) or "true"
        return f"weight[{inner}]({self.query_name})"


class ClosedSum:
    """constant + sum of coeff * weight-expression, merged and ordered."""

    __slots__ = ("constant", "terms")

    def __init__(self, constant: float = 0.0, terms: Mapping[WeightExprClosed, float] | None = None):
        self.constant = float(constant)
        self.terms: dict[WeightExprClosed, float] = {}
        if terms:
            for k, v in terms.items():
                if v != 0.0:
                    self.terms[k] = float(v)

    def ordered_terms(self) -> list[tuple[WeightExprClosed, float]]:
        return sorted(self.terms.items(), key=lambda kv: kv[0].sort_key())

    def canonical(self, digits: int = 9):
        return (
            round(self.constant, digits),
            tuple((k.sort_key(), round(v, digits)) for k, v in self.ordered_terms()),
        )

    def __repr__(self):
        bits = [f"{v:g}*{k!r}" for k, v in self.ordered_terms()]
        if self.constant or not bits:
            bits.append(f"{self.constant:g}")
        return " + ".join(bits)


@dataclass
class ClosedConstraint:
    lhs: ClosedSum
    rel: str  # "<=" or "="
    rhs: ClosedSum

    def canonical(self, digits: int = 9):
        """The row as (terms of lhs - rhs, rel, rhs - lhs constant)."""
        diff = dict(self.lhs.terms)
        for k, v in self.rhs.terms.items():
            diff[k] = diff.get(k, 0.0) - v
        terms = ClosedSum(0.0, diff).canonical(digits)[1]
        return terms, self.rel, round(self.rhs.constant - self.lhs.constant, digits)


# a weight expression with its target values left open: the query's name,
# the query and the target variables, sorted
Template = tuple[str, Query, tuple[str, ...]]


@dataclass(frozen=True, eq=False)
class WeightFamily:
    """The terms of one weight template in a closed program: term i adds
    ``coeffs[i]`` (never 0) times the expression with target codes
    ``codes[i]`` to side ``slots[i]``; slots ascend, no (slot, codes) twice."""

    query_name: str
    query: Query
    variables: tuple[str, ...]
    codes: np.ndarray  # (m, len(variables)) int32
    coeffs: np.ndarray
    slots: np.ndarray

    @property
    def key(self) -> tuple[str, Query]:
        return self.query_name, self.query


def _summed(codes: np.ndarray, coeffs: np.ndarray, owners: np.ndarray):
    """Terms with equal owner and targets summed in the order given, zero
    sums dropped, ordered by owner and targets: what ``ClosedSum`` does."""
    (ids,), count = key_ids(np.column_stack([owners, codes]))
    sums = np.bincount(ids, weights=coeffs, minlength=count)
    first = np.empty(count, dtype=np.int64)
    first[ids[::-1]] = np.arange(len(ids) - 1, -1, -1)  # the last write is the first term
    pick = first[sums != 0.0]
    return codes[pick], sums[sums != 0.0], owners[pick]


def _families(parts) -> list[WeightFamily]:
    """One family per template of the ``(template, codes, coeffs, slots)``
    blocks *parts*, each a family already; blocks of one template summed."""
    blocks: dict[Template, list] = {}
    for template, *block in parts:
        blocks.setdefault(template, []).append(block)
    for template, (first, *rest) in blocks.items():
        blocks[template] = _summed(*map(np.concatenate, zip(first, *rest))) if rest else first
    return [WeightFamily(*t, *block) for t, block in blocks.items() if len(block[1])]


@dataclass(frozen=True)
class Weights:
    """The ``count`` distinct weight expressions of a closed program, ranked
    in ``sort_key`` order: family f's have the target values ``codes[f]``,
    in text order, and ranks ``ranks[f]``; its terms have ranks ``terms[f]``."""

    count: int
    codes: list[np.ndarray]
    ranks: list[np.ndarray]
    terms: list[np.ndarray]


def _weights(families: list[WeightFamily], dictionary: Dictionary) -> Weights:
    """Equal sort keys of different queries keep the order of their families."""
    codes, ids = [], []
    for f in families:
        (found,), count = key_ids(f.codes)
        codes.append(np.empty((count, len(f.variables)), dtype=np.int32))
        codes[-1][found] = f.codes
        ids.append(found)
    starts = np.cumsum([0] + [len(rows) for rows in codes])
    keys = sorted(
        ((f.query_name, tuple((x, v.text) for x, v in zip(f.variables, row))), at + i)
        for f, rows, at in zip(families, codes, starts.tolist())
        for i, row in enumerate(dictionary.decode(rows))
    )
    rank = np.empty(len(keys), dtype=np.int64)
    rank[[at for _, at in keys]] = np.arange(len(keys))
    ranks = [rank[a:b] for a, b in zip(starts, starts[1:])]
    return Weights(len(keys), codes, ranks, [r[i] for r, i in zip(ranks, ids)])


class ClosedProgram:
    """A program closed over a database, in family form: always a
    maximization; ``minimized`` records the surface sense.  Side 0 is the
    objective, and constraint row r is ``lhs = rhs`` where ``eq[r]``, else
    ``lhs <= rhs``, with sides 2r + 1 and 2r + 2.  Side s is the constant
    ``constants[s]`` plus the terms at slot s of ``families``, one per
    template, their target values codes into ``dictionary``.  The
    constructor takes the program row by row, each constraint a family of
    one binder row; ``objective``, ``constraints`` and ``canonical`` read it
    back that way."""

    def __init__(self, objective: ClosedSum, constraints: list[ClosedConstraint],
                 minimized: bool = False):
        sides = [objective] + [side for con in constraints for side in (con.lhs, con.rhs)]
        self.dictionary = Dictionary(v for s in sides for w in s.terms for _, v in w.targets)
        self.constants = np.array([s.constant for s in sides])
        self.eq = np.array([con.rel == "=" for con in constraints], dtype=bool)
        self.families = _families(
            ((w.query_name, w.query, tuple(x for x, _ in w.targets)),
             np.array([[self.dictionary.code(v) for _, v in w.targets]], dtype=np.int32),
             np.array([coeff]), np.array([slot]))
            for slot, side in enumerate(sides) for w, coeff in side.terms.items()
        )
        self.minimized = minimized

    @classmethod
    def of_families(cls, dictionary: Dictionary, constants: np.ndarray, eq: np.ndarray,
                    families: list[WeightFamily], minimized: bool = False) -> "ClosedProgram":
        cp = cls.__new__(cls)
        vars(cp).update(dictionary=dictionary, constants=constants, eq=eq, families=families,
                        minimized=minimized)
        return cp

    def with_queries(self, rewrite) -> "ClosedProgram":
        """The program with each weight query replaced by ``rewrite(query)``;
        the terms of templates made equal are summed."""
        return ClosedProgram.of_families(self.dictionary, self.constants, self.eq, _families(
            ((f.query_name, rewrite(f.query), f.variables), f.codes, f.coeffs, f.slots)
            for f in self.families
        ), self.minimized)

    @cached_property
    def weights(self) -> Weights:
        return _weights(self.families, self.dictionary)

    def weight_exprs(self) -> list[WeightExprClosed]:
        """The distinct weight expressions, in ``sort_key`` order."""
        exprs = [None] * self.weights.count
        for f, codes, ranks in zip(self.families, self.weights.codes, self.weights.ranks):
            for values, r in zip(self.dictionary.decode(codes), ranks.tolist()):
                exprs[r] = WeightExprClosed(f.query_name, f.query, tuple(zip(f.variables, values)))
        return exprs

    def queries_w(self) -> list[tuple[str, Query]]:
        """The weighted queries, in the order of their first weight expression."""
        first: dict[tuple[str, Query], int] = {}
        for f, ranks in zip(self.families, self.weights.ranks):
            first[f.key] = min(first.get(f.key, self.weights.count), ranks.min())
        return sorted(first, key=first.__getitem__)

    def _sums(self) -> list[ClosedSum]:
        sums = [ClosedSum(c) for c in self.constants.tolist()]
        for f in self.families:
            for values, coeff, slot in zip(self.dictionary.decode(f.codes), f.coeffs.tolist(),
                                           f.slots.tolist()):
                w = WeightExprClosed(f.query_name, f.query, tuple(zip(f.variables, values)))
                sums[slot].terms[w] = coeff
        return sums

    @property
    def objective(self) -> ClosedSum:
        return self._sums()[0]

    @property
    def constraints(self) -> list[ClosedConstraint]:
        sums = self._sums()
        return [ClosedConstraint(sums[2 * r + 1], "=" if eq else "<=", sums[2 * r + 2])
                for r, eq in enumerate(self.eq.tolist())]

    def canonical(self, digits: int = 9):
        return (
            self.objective.canonical(digits),
            tuple(sorted(c.canonical(digits) for c in self.constraints)),
        )

    def user_value(self, opt_value: float) -> float:
        return -opt_value if self.minimized else opt_value

    def __repr__(self):
        return f"ClosedProgram({len(self.eq)} constraints, {self.weights.count} weights)"


# --- closure -----------------------------------------------------------------------


class _Frame(NamedTuple):
    """Environments: row i binds ``vars`` to ``codes[i]``, and ``path[i]``
    (the parent row's path, the binder's step, the binder row) places it in
    the order of closing a row at a time, compared lexicographically."""

    vars: tuple[str, ...]
    codes: np.ndarray
    path: np.ndarray

    def columns(self, variables) -> np.ndarray:
        return self.codes[:, [self.vars.index(v) for v in variables]]


class _Closure:
    """One closure over a database, each node once for all rows of a frame.
    A closed sum is each row's constant and, per template, the target codes,
    coefficients and rows of its terms: rows ascending, no zero, no repeat."""

    def __init__(self, db: Database):
        self.db = db
        self.extra: dict[Value, int] = {}  # target constants outside the database
        self.errors: list[tuple[tuple[int, ...], LpcqError]] = []
        self.step = itertools.count(1).__next__  # numbers the nodes in closure order
        self.rows: list = []  # (frame, step, rel, lhs, rhs) per comparison

    def fail(self, frame: _Frame, step: int, error: LpcqError, row: int = 0) -> None:
        """Keep *error* at the place where closure row by row raises it."""
        if len(frame.codes):
            self.errors.append((tuple(frame.path[row].tolist()) + (step,), error))

    def num(self, n: NumExpr, frame: _Frame) -> np.ndarray:
        step, rows = self.step(), len(frame.codes)
        if isinstance(n, Real):
            return np.full(rows, n.value)
        if isinstance(n.expr, Const):
            value = n.expr.value
            values = np.full(rows, np.nan if value.numeric is None else value.numeric)
        elif n.expr.name in frame.vars:
            value, codes = None, frame.columns([n.expr.name])[:, 0]
            values = self.db.dictionary.numeric[codes]
        else:
            self.fail(frame, step, InternalFreeVariableError(f"num({n.expr.name}) has no binding"))
            return np.zeros(rows)
        if len(undefined := np.flatnonzero(np.isnan(values))):
            value = value or self.db.dictionary.values[codes[undefined[0]]]
            self.fail(frame, step, NumUndefinedError(
                f"value {value.text!r} has no numeric reading"), int(undefined[0]))
        return values

    def expand(self, binders: tuple[str, ...], query: Query, frame: _Frame):
        """The binder rows under every row of *frame*, from one evaluation of
        *query* with the outer variables it mentions left free, and the
        parent row of each; rows grouped by parent, in order."""
        step = self.step()
        outer = [v for v in frame.vars if v not in binders]
        fv = query_free_vars(query)
        correlated = [v for v in outer if v in fv]
        i = j = np.zeros(0, dtype=np.int64)
        answers = None
        try:
            if missing := fv - set(binders) - set(outer):
                raise MissingFreeVariableError(
                    f"variable set {sorted(set(binders))} misses free variables {sorted(missing)}"
                )
            if len(frame.codes):
                answers = evaluate(extend(query, binders), self.db, set(binders) | set(correlated))
                i, j = match(*join_keys(frame.columns(correlated), answers.columns(correlated)))
        except LpcqError as error:
            self.fail(frame, step, error)
        codes = np.concatenate([frame.columns(outer)[i], (
            np.zeros((0, len(binders)), np.int32) if answers is None else answers.columns(binders))[j]], 1)
        path = np.concatenate([frame.path[i], np.full((len(i), 1), step), j[:, None]], axis=1)
        return _Frame(tuple(outer) + binders, codes, path), i

    def weight(self, node: SWeight, frame: _Frame) -> dict:
        step, n = self.step(), len(frame.codes)
        if unbound := [e.name for _, e in node.targets if isinstance(e, Var) and e.name not in frame.vars]:
            self.fail(frame, step, InternalFreeVariableError(
                f"weight value variable {unbound[0]!r} has no binding"))
            return {}
        targets = sorted(node.targets, key=itemgetter(0))
        codes = np.zeros((n, len(targets)), dtype=np.int32)
        for j, (_, e) in enumerate(targets):
            if isinstance(e, Var):
                codes[:, j] = frame.columns([e.name])[:, 0]
            elif (code := self.db.dictionary.code(e.value)) is not None:
                codes[:, j] = code
            else:  # numbered past the database, renumbered at the end
                codes[:, j] = self.extra.setdefault(e.value, len(self.db.dictionary) + len(self.extra))
        template = (node.query_name, node.query, tuple(x for x, _ in targets))
        return {template: (codes, np.ones(n), np.arange(n))} if n else {}

    def sum(self, node: Sum, frame: _Frame) -> tuple[np.ndarray, dict]:
        if isinstance(node, SNum):
            return self.num(node.num, frame), {}
        if isinstance(node, SWeight):
            return np.zeros(len(frame.codes)), self.weight(node, frame)
        if isinstance(node, SScale):
            const, terms = self.sum(node.body, frame)
            factor = self.num(node.num, frame)
            terms = {t: (codes, coeffs * factor[owners], owners)
                     for t, (codes, coeffs, owners) in terms.items()}
            with np.errstate(invalid="ignore"):  # 0 * inf is NaN, which solve refuses
                const = const * factor
            return const, {t: tuple(part[block[1] != 0.0] for part in block)
                           for t, block in terms.items() if block[1].any()}
        if isinstance(node, SAdd):
            (left, terms), (right, more) = self.sum(node.left, frame), self.sum(node.right, frame)
            terms = dict(terms)
            for t, block in more.items():
                terms[t] = _summed(*map(np.concatenate, zip(terms[t], block))) if t in terms else block
            return left + right, terms
        if isinstance(node, SSum):
            child, parent = self.expand(node.binders, node.query, frame)
            const, terms = self.sum(node.body, child)
            terms = {t: _summed(codes, coeffs, parent[owners])
                     for t, (codes, coeffs, owners) in terms.items()}
            return (np.bincount(parent, weights=const, minlength=len(frame.codes)),
                    {t: block for t, block in terms.items() if len(block[1])})
        raise TypeError(node)

    def constraint(self, node: Constraint, frame: _Frame) -> None:
        if isinstance(node, CCompare):
            step = self.step()
            lhs, rhs = self.sum(node.left, frame), self.sum(node.right, frame)
            self.rows.append((frame, step, node.rel, lhs, rhs))
        elif isinstance(node, CAnd):
            self.constraint(node.left, frame)
            self.constraint(node.right, frame)
        elif isinstance(node, CForall):
            self.constraint(node.body, self.expand(node.binders, node.query, frame)[0])
        elif not isinstance(node, CTrue):
            raise TypeError(node)

    def program(self, objective, minimized: bool) -> ClosedProgram:
        """The closed program: rows in the order of their paths, families by template."""
        starts = np.cumsum([0] + [len(frame.codes) for frame, *_ in self.rows]).tolist()
        depth = 1 + max([frame.path.shape[1] for frame, *_ in self.rows], default=0)
        keys = np.zeros((starts[-1], depth), dtype=np.int64)
        for (frame, step, *_), at in zip(self.rows, starts):
            keys[at:at + len(frame.codes), :frame.path.shape[1] + 1] = np.column_stack(
                [frame.path, np.full(len(frame.codes), step)])
        position = np.empty(len(keys), dtype=np.int64)
        position[np.lexsort(keys.T[::-1])] = np.arange(len(keys))

        constants, eq = np.zeros(1 + 2 * len(keys)), np.zeros(len(keys), dtype=bool)
        constants[0] = objective[0][0]
        parts = [(t, codes, coeffs, 0 * owners) for t, (codes, coeffs, owners) in objective[1].items()]
        for (frame, _, rel, *sides), at in zip(self.rows, starts):
            rows = position[at:at + len(frame.codes)]
            eq[rows] = rel == "="
            for side, (const, terms) in enumerate(sides, start=1):
                constants[2 * rows + side] = const
                parts += [(t, codes, coeffs, 2 * rows[owners] + side)
                          for t, (codes, coeffs, owners) in terms.items()]
        dictionary = self.db.dictionary
        if self.extra:
            values = dictionary.values.tolist() + list(self.extra)
            dictionary = Dictionary(values)
            renumber = np.array([dictionary.code(v) for v in values], dtype=np.int32)
            parts = [(t, renumber[codes], *rest) for t, codes, *rest in parts]
        return ClosedProgram.of_families(dictionary, constants, eq, _families(parts), minimized)


def close(program: LpcqProgram, db: Database) -> ClosedProgram:
    """Unfold forall/sum/num over *db*, leaving only closed weight
    expressions; an error is the one closure row by row raises first."""
    closure = _Closure(db)
    root = _Frame((), np.zeros((1, 0), dtype=np.int32), np.zeros((1, 0), dtype=np.int64))
    objective = closure.sum(program.objective, root)
    closure.constraint(program.constraint, root)
    if closure.errors:
        raise min(closure.errors, key=itemgetter(0))[1]
    return closure.program(objective, program.minimized)
