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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .errors import (
    FreeVariableError,
    InternalFreeVariableError,
    NumUndefinedError,
    ParseError,
    ShadowingError,
)
from .lexer import Token, TokenStream, tokenize
from .queries import (
    Const,
    Equal,
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
    substitute,
)
from .relations import Database, Value


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
    if isinstance(n, NumOf) and isinstance(n.expr, Var):
        return frozenset({n.expr.name})
    return frozenset()


def free_vars_lpcq(node) -> frozenset[str]:
    """Free variables of a sum, constraint, or program."""
    if isinstance(node, LpcqProgram):
        return free_vars_lpcq(node.objective) | free_vars_lpcq(node.constraint)
    if isinstance(node, SNum):
        return _num_vars(node.num)
    if isinstance(node, SScale):
        return _num_vars(node.num) | free_vars_lpcq(node.body)
    if isinstance(node, SAdd):
        return free_vars_lpcq(node.left) | free_vars_lpcq(node.right)
    if isinstance(node, SSum):
        return (query_free_vars(node.query) | free_vars_lpcq(node.body)) - set(node.binders)
    if isinstance(node, SWeight):
        y_vars = frozenset(
            e.name for _, e in node.targets if isinstance(e, Var)
        )
        return (query_free_vars(node.query) | y_vars) - set(node.scope)
    if isinstance(node, CTrue):
        return frozenset()
    if isinstance(node, CCompare):
        return free_vars_lpcq(node.left) | free_vars_lpcq(node.right)
    if isinstance(node, CAnd):
        return free_vars_lpcq(node.left) | free_vars_lpcq(node.right)
    if isinstance(node, CForall):
        return (query_free_vars(node.query) | free_vars_lpcq(node.body)) - set(node.binders)
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
    reserved: set[str] = set()
    for q in program.queries.values():
        reserved |= query_free_vars(q)

    used = set(reserved)
    counter = [0]

    def fresh(base: str) -> str:
        counter[0] += 1
        cand = f"{base}_{counter[0]}"
        while cand in used or cand in names:
            counter[0] += 1
            cand = f"{base}_{counter[0]}"
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
                nb = fresh(b)
                inner[b] = Var(nb)
            else:
                nb = b
                used.add(nb)
            out.append(nb)
        return tuple(out), inner

    def walk_num(n: NumExpr, ren: dict[str, Expr]) -> NumExpr:
        if isinstance(n, NumOf):
            return NumOf(lookup(n.expr, ren))
        return n

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


# --- sizes ------------------------------------------------------------------------


def _query_size(q: Query) -> int:
    from .queries import And, Atom, Exists, TrueQuery

    if isinstance(q, (TrueQuery, Var, Const)):
        return 1
    if isinstance(q, Equal):
        return 3
    if isinstance(q, Atom):
        return 1 + len(q.args)
    if isinstance(q, And):
        return 1 + _query_size(q.left) + _query_size(q.right)
    if isinstance(q, Exists):
        return 2 + _query_size(q.body)
    raise TypeError(q)


def size(node) -> int:
    """Symbol count of a program fragment, the measure normal form is bounded in."""
    if isinstance(node, LpcqProgram):
        return 1 + size(node.objective) + size(node.constraint)
    if isinstance(node, SNum):
        return 2 if isinstance(node.num, NumOf) else 1
    if isinstance(node, SScale):
        return size(SNum(node.num)) + size(node.body)
    if isinstance(node, SAdd):
        return 1 + size(node.left) + size(node.right)
    if isinstance(node, SSum):
        return 1 + len(node.binders) + _query_size(node.query) + size(node.body)
    if isinstance(node, SWeight):
        return 1 + len(node.scope) + 3 * len(node.targets) + _query_size(node.query)
    if isinstance(node, CTrue):
        return 1
    if isinstance(node, CCompare):
        return 1 + size(node.left) + size(node.right)
    if isinstance(node, CAnd):
        return 1 + size(node.left) + size(node.right)
    if isinstance(node, CForall):
        return 1 + len(node.binders) + _query_size(node.query) + size(node.body)
    raise TypeError(node)


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
        return [
            ((node.num,) + factors, binder, carrier)
            for factors, binder, carrier in _atomic_sums(node.body)
        ]
    if isinstance(node, SSum):
        out = []
        for factors, binder, carrier in _atomic_sums(node.body):
            if binder is None:
                merged = (node.binders, node.query)
            else:
                inner_binders, inner_query = binder
                from .queries import And

                merged = (node.binders + inner_binders, And(node.query, inner_query))
            out.append((factors, merged, carrier))
        return out
    raise TypeError(node)


def _rebuild_atomic_sum(factors, binder, carrier) -> Sum:
    body: Sum
    if carrier is None:
        body = SNum(factors[-1]) if factors else SNum(Real(1.0))
        rest = factors[:-1] if factors else ()
    else:
        body = carrier
        rest = factors
    for n in reversed(rest):
        body = SScale(n, body)
    if binder is not None:
        binders, query = binder
        body = SSum(binders, query, body)
    return body


def _sum_normal_form(node: Sum) -> Sum:
    atomics = _atomic_sums(node)
    parts = [_rebuild_atomic_sum(f, b, c) for f, b, c in atomics]
    out = parts[0]
    for p in parts[1:]:
        out = SAdd(out, p)
    return out


def _atomic_constraints(node: Constraint) -> list[Constraint]:
    if isinstance(node, CTrue):
        return []
    if isinstance(node, CCompare):
        return [CCompare(_sum_normal_form(node.left), node.rel, _sum_normal_form(node.right))]
    if isinstance(node, CAnd):
        return _atomic_constraints(node.left) + _atomic_constraints(node.right)
    if isinstance(node, CForall):
        out = []
        for inner in _atomic_constraints(node.body):
            if isinstance(inner, CForall):
                from .queries import And

                merged = CForall(
                    node.binders + inner.binders,
                    And(node.query, inner.query),
                    inner.body,
                )
            else:
                merged = CForall(node.binders, node.query, inner)
            out.append(merged)
        return out
    raise TypeError(node)


def normal_form(program: LpcqProgram) -> LpcqProgram:
    """Rewrite into sums of atomic sums and a conjunction of atomic
    constraints, each with at most one merged quantifier prefix.

    Closure commutes with this rewrite up to constraint order, and the
    result's size stays within the cube of the input's.
    """
    atomics = _atomic_constraints(program.constraint)
    constraint: Constraint = CTrue()
    if atomics:
        constraint = atomics[0]
        for c in atomics[1:]:
            constraint = CAnd(constraint, c)
    return LpcqProgram(
        _sum_normal_form(program.objective),
        constraint,
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

    def __add__(self, other: "ClosedSum") -> "ClosedSum":
        merged = dict(self.terms)
        for k, v in other.terms.items():
            new = merged.get(k, 0.0) + v
            if new == 0.0:
                merged.pop(k, None)
            else:
                merged[k] = new
        return ClosedSum(self.constant + other.constant, merged)

    def scale(self, factor: float) -> "ClosedSum":
        return ClosedSum(
            self.constant * factor, {k: v * factor for k, v in self.terms.items()}
        )

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
        diff = self.lhs + self.rhs.scale(-1.0)
        return (
            tuple((k.sort_key(), round(v, digits)) for k, v in diff.ordered_terms()),
            self.rel,
            round(-diff.constant, digits),
        )


class ClosedProgram:
    """Always a maximization; ``minimized`` records the surface sense."""

    def __init__(
        self,
        objective: ClosedSum,
        constraints: list[ClosedConstraint],
        minimized: bool = False,
    ):
        self.objective = objective
        self.constraints = constraints
        self.minimized = minimized

    def weight_exprs(self) -> list[WeightExprClosed]:
        seen: dict[WeightExprClosed, None] = {}
        for w in self.objective.terms:
            seen.setdefault(w)
        for con in self.constraints:
            for side in (con.lhs, con.rhs):
                for w in side.terms:
                    seen.setdefault(w)
        return sorted(seen, key=lambda w: w.sort_key())

    def queries_w(self) -> list[tuple[str, Query]]:
        seen: dict[tuple[str, Query], None] = {}
        for w in self.weight_exprs():
            seen.setdefault((w.query_name, w.query))
        return list(seen)

    def canonical(self, digits: int = 9):
        return (
            self.objective.canonical(digits),
            tuple(sorted(c.canonical(digits) for c in self.constraints)),
        )

    def user_value(self, opt_value: float) -> float:
        return -opt_value if self.minimized else opt_value

    def __repr__(self):
        return f"ClosedProgram({len(self.constraints)} constraints, {len(self.weight_exprs())} weights)"


# --- closure -----------------------------------------------------------------------


def _close_num(n: NumExpr, env: dict[str, Value], db: Database) -> float:
    if isinstance(n, Real):
        return n.value
    expr = n.expr
    if isinstance(expr, Var):
        if expr.name not in env:
            raise InternalFreeVariableError(f"num({expr.name}) has no binding")
        value = env[expr.name]
    else:
        value = expr.value
    if value.numeric is None:
        raise NumUndefinedError(f"value {value.text!r} has no numeric reading")
    return value.numeric


def _expand_binder(
    binders: tuple[str, ...], query: Query, env: dict[str, Value], db: Database
) -> list[dict[str, Value]]:
    """Environments for each answer of the binder query under *env*."""
    outer = {k: v for k, v in env.items() if k not in binders}
    bound = [(k, v) for k, v in outer.items() if k in query_free_vars(query)]
    grounded = substitute(query, [k for k, _ in bound], [v for _, v in bound])
    extended = extend(grounded, binders)
    rows = evaluate(extended, db, set(binders))
    envs = []
    for assignment in rows.assignments():
        child = dict(outer)
        child.update(dict(assignment.items()))
        envs.append(child)
    return envs


def _close_sum(node: Sum, env: dict[str, Value], db: Database) -> ClosedSum:
    if isinstance(node, SNum):
        return ClosedSum(_close_num(node.num, env, db))
    if isinstance(node, SScale):
        return _close_sum(node.body, env, db).scale(_close_num(node.num, env, db))
    if isinstance(node, SAdd):
        return _close_sum(node.left, env, db) + _close_sum(node.right, env, db)
    if isinstance(node, SWeight):
        targets = []
        for x, e in node.targets:
            if isinstance(e, Const):
                targets.append((x, e.value))
            else:
                if e.name not in env:
                    raise InternalFreeVariableError(
                        f"weight value variable {e.name!r} has no binding"
                    )
                targets.append((x, env[e.name]))
        key = WeightExprClosed(node.query_name, node.query, tuple(sorted(targets)))
        return ClosedSum(0.0, {key: 1.0})
    if isinstance(node, SSum):
        total = ClosedSum(0.0)
        for child in _expand_binder(node.binders, node.query, env, db):
            total = total + _close_sum(node.body, child, db)
        return total
    raise TypeError(node)


def _close_constraint(
    node: Constraint, env: dict[str, Value], db: Database
) -> list[ClosedConstraint]:
    if isinstance(node, CTrue):
        return []
    if isinstance(node, CCompare):
        return [
            ClosedConstraint(
                _close_sum(node.left, env, db), node.rel, _close_sum(node.right, env, db)
            )
        ]
    if isinstance(node, CAnd):
        return _close_constraint(node.left, env, db) + _close_constraint(node.right, env, db)
    if isinstance(node, CForall):
        out = []
        for child in _expand_binder(node.binders, node.query, env, db):
            out.extend(_close_constraint(node.body, child, db))
        return out
    raise TypeError(node)


def close(program: LpcqProgram, db: Database) -> ClosedProgram:
    """Unfold forall/sum/num over *db*, leaving only closed weight expressions."""
    objective = _close_sum(program.objective, {}, db)
    constraints = _close_constraint(program.constraint, {}, db)
    return ClosedProgram(objective, constraints, minimized=program.minimized)
