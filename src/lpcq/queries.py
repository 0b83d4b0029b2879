"""Conjunctive query ASTs, answer-set evaluation, and syntactic operators.

Queries are built from equalities, relational atoms, conjunction, and
existential quantification.  Query identity is exact AST equality: two
queries differing only in a bound-variable name are distinct objects, which
downstream naming schemes rely on.  Compound nodes hash their fields once and
cache the result (``hash_once``), since queries key many dicts.

Evaluation follows set semantics.  ``evaluate(q, db, X)`` returns the set of
assignments of X satisfying q, where variables of X not constrained by q
range over the whole domain.  The implementation joins per-conjunct factors
with hash joins; a brute-force enumerator with the same contract lives in
the test suite and serves as the oracle.

``rewrite`` is the one rewriter of query variables: it substitutes free
variables and renames bound ones, with quantifiers shadowing as usual.
``substitute``, ``rename_bound``, ``canonical_form`` and the parser's binder
hygiene are thin callers of it.

Concrete syntax::

    exists y. R1(x) /\\ R2(y)
    x == "w1" /\\ S(x, 10.5)
    true

Identifiers match [A-Za-z_][A-Za-z0-9_']*; constants are quoted strings or
numeric literals.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import (
    ArityMismatchError,
    LengthMismatchError,
    MissingFreeVariableError,
    ParseError,
    UnknownRelationError,
)
from .lexer import TokenStream, tokenize
from .relations import Assignment, Database, Value


# --- AST --------------------------------------------------------------------


def hash_once(cls):
    """Class decorator for a frozen dataclass that keys many dicts: the hash
    of its fields is computed on first use and kept in the instance dict
    under ``_hash``.  That is outside the dataclass fields, so ``==``,
    ``repr`` and ``fields()`` do not see it, and it is left out of pickled
    state because string hashes differ between processes."""
    names = [f.name for f in fields(cls)]

    def __hash__(self) -> int:
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = self.__dict__["_hash"] = hash(tuple(getattr(self, n) for n in names))
        return cached

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k != "_hash"}

    cls.__hash__ = __hash__
    cls.__getstate__ = __getstate__
    return cls


@dataclass(frozen=True)
class Var:
    name: str

    def __repr__(self):
        return self.name


@dataclass(frozen=True)
class Const:
    value: Value

    def __repr__(self):
        return f"<{self.value.text}>"


Expr = Var | Const


@hash_once
@dataclass(frozen=True)
class Equal:
    left: Expr
    right: Expr


@hash_once
@dataclass(frozen=True)
class Atom:
    relation: str
    args: tuple[Expr, ...]


@hash_once
@dataclass(frozen=True)
class And:
    left: "Query"
    right: "Query"


@hash_once
@dataclass(frozen=True)
class Exists:
    var: str
    body: "Query"


@dataclass(frozen=True)
class TrueQuery:
    pass


Query = Equal | Atom | And | Exists | TrueQuery
TRUE = TrueQuery()


def conjoin(parts: Iterable[Query]) -> Query:
    """Left-associated conjunction of *parts*; empty input gives true."""
    result: Query | None = None
    for part in parts:
        result = part if result is None else And(result, part)
    return TRUE if result is None else result


def conjuncts(q: Query) -> list[Query]:
    """Flatten nested conjunction into a list (true disappears)."""
    out: list[Query] = []
    stack = [q]
    while stack:
        node = stack.pop()
        if isinstance(node, And):
            stack.append(node.right)
            stack.append(node.left)
        elif not isinstance(node, TrueQuery):
            out.append(node)
    return out


def free_vars(q: Query) -> frozenset[str]:
    if isinstance(q, TrueQuery):
        return frozenset()
    if isinstance(q, Equal):
        out = set()
        for e in (q.left, q.right):
            if isinstance(e, Var):
                out.add(e.name)
        return frozenset(out)
    if isinstance(q, Atom):
        return frozenset(e.name for e in q.args if isinstance(e, Var))
    if isinstance(q, And):
        return free_vars(q.left) | free_vars(q.right)
    if isinstance(q, Exists):
        return free_vars(q.body) - {q.var}
    raise TypeError(f"not a query: {q!r}")


def all_vars(q: Query) -> frozenset[str]:
    """Free and bound variable names appearing anywhere in q."""
    if isinstance(q, Exists):
        return all_vars(q.body) | {q.var}
    if isinstance(q, And):
        return all_vars(q.left) | all_vars(q.right)
    return free_vars(q)


def lookup(expr: Expr, env: Mapping[str, Expr]) -> Expr:
    """*expr* with a variable named in *env* replaced by its expression."""
    return env.get(expr.name, expr) if isinstance(expr, Var) else expr


def rewrite(
    q: Query, env: Mapping[str, Expr], bind: Callable[[str], str] | None = None
) -> Query:
    """Replace every free variable named in *env* by its expression.

    With *bind*, every bound variable is renamed to ``bind(name)``, left to
    right and outer before inner.  A quantifier shadows the *env* entry for
    its own variable.
    """
    if isinstance(q, TrueQuery) or (not env and bind is None):
        return q
    if isinstance(q, Equal):
        return Equal(lookup(q.left, env), lookup(q.right, env))
    if isinstance(q, Atom):
        return Atom(q.relation, tuple(lookup(e, env) for e in q.args))
    if isinstance(q, And):
        return And(rewrite(q.left, env, bind), rewrite(q.right, env, bind))
    if isinstance(q, Exists):
        inner = {k: v for k, v in env.items() if k != q.var}
        if bind is None:
            return Exists(q.var, rewrite(q.body, inner))
        new = bind(q.var)
        inner[q.var] = Var(new)
        return Exists(new, rewrite(q.body, inner, bind))
    raise TypeError(f"not a query: {q!r}")


def substitute(q: Query, variables: Iterable[str], constants: Iterable[Value]) -> Query:
    """Replace free occurrences of each variable by the matching constant."""
    variables = list(variables)
    constants = list(constants)
    if len(variables) != len(constants):
        raise LengthMismatchError(
            f"{len(variables)} variables vs {len(constants)} constants"
        )
    if len(set(variables)) != len(variables):
        raise LengthMismatchError("substituted variables must be pairwise distinct")
    return rewrite(q, {x: Const(c) for x, c in zip(variables, constants)})


def extend(q: Query, variables: Iterable[str]) -> Query:
    """Conjoin ``x == x`` for each listed variable not already free in q."""
    fv = free_vars(q)
    return conjoin([*(Equal(Var(x), Var(x)) for x in variables if x not in fv), q])


def rename_bound(q: Query, taken: set[str]) -> Query:
    """Rename bound variables so they avoid *taken* and each other."""
    used = set(taken) | all_vars(q)
    taken = set(taken)

    def bind(name: str) -> str:
        if name not in taken:
            taken.add(name)
            return name
        i = 1
        while f"{name}_{i}" in used:
            i += 1
        new = f"{name}_{i}"
        used.add(new)
        return new

    return rewrite(q, {}, bind)


def prenex(q: Query) -> tuple[list[str], Query]:
    """Hoist all existential quantifiers to a prefix.

    Bound variables are renamed apart from every other variable in the query
    first, so hoisting cannot capture.  Returns the prefix in left-to-right
    source order plus the quantifier-free body.
    """
    clean = rename_bound(q, set(free_vars(q)))
    prefix: list[str] = []

    def strip(node: Query) -> Query:
        if isinstance(node, Exists):
            prefix.append(node.var)
            return strip(node.body)
        if isinstance(node, And):
            return And(strip(node.left), strip(node.right))
        return node

    body = strip(clean)
    return prefix, body


def is_quantifier_free(q: Query) -> bool:
    if isinstance(q, Exists):
        return False
    if isinstance(q, And):
        return is_quantifier_free(q.left) and is_quantifier_free(q.right)
    return True


def qf(q: Query) -> Query:
    """Quantifier-free variant preserving the full (unprojected) answer set.

    The body is conjoined with ``y == y`` for each quantified variable, in
    quantifier order, so queries with distinct prefixes stay syntactically
    distinct after the rewrite.
    """
    if is_quantifier_free(q):
        return q
    prefix, body = prenex(q)
    return conjoin([body, *(Equal(Var(v), Var(v)) for v in prefix)])


def canonical_form(q: Query) -> tuple[Query, dict[str, str]]:
    """Alpha-invariant form: bound variables become positional placeholders.

    Returns the renamed query plus the placeholder -> original-name mapping,
    which lets callers align bound variables of two alpha-equivalent queries.
    """
    mapping: dict[str, str] = {}

    def bind(name: str) -> str:
        placeholder = f"__b{len(mapping)}"
        mapping[placeholder] = name
        return placeholder

    return rewrite(q, {}, bind), mapping


# --- answer sets -------------------------------------------------------------

def projector(
    from_vars: Sequence[str], to_vars: Iterable[str]
) -> Callable[[tuple], tuple[Value, ...]]:
    """Function taking a row over *from_vars* to the tuple of its values on
    *to_vars*, in the order given.  Every relational operator keys and
    projects rows through it, so all of them agree on key shapes: a 1-tuple
    for one variable and () for none."""
    idx = [from_vars.index(v) for v in to_vars]
    if len(idx) > 1:
        return itemgetter(*idx)
    if idx:
        (i,) = idx
        return lambda row: (row[i],)
    return lambda row: ()


def _row_sort_key(row: tuple[Value, ...]) -> tuple[str, ...]:
    return tuple(v.text for v in row)


class AnswerSet:
    """Set of assignments over an ordered variable tuple.

    Rows are value tuples aligned with ``variables`` (sorted by name) and are
    kept sorted by text for deterministic iteration; consumers must not read
    meaning into the order.
    """

    __slots__ = ("variables", "rows", "_member_cache")

    def __init__(self, variables: Iterable[str], rows: Iterable[tuple[Value, ...]]):
        self.variables = tuple(sorted(variables))
        unique = rows if isinstance(rows, set) else set(rows)
        self.rows = sorted(unique, key=_row_sort_key)
        self._member_cache: set | None = None

    def _members(self) -> set:
        if self._member_cache is None:
            self._member_cache = set(self.rows)
        return self._member_cache

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[tuple[Value, ...]]:
        return iter(self.rows)

    def __contains__(self, item) -> bool:
        if isinstance(item, Assignment):
            if item.variables != self.variables:
                return False
            return item.values in self._members()
        return item in self._members()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AnswerSet)
            and self.variables == other.variables
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.variables, tuple(self.rows)))

    def assignments(self) -> Iterator[Assignment]:
        for row in self.rows:
            yield Assignment(self.variables, row)

    def to_set(self) -> set[Assignment]:
        return {Assignment(self.variables, row) for row in self.rows}

    def restrict(self, variables: Iterable[str]) -> "AnswerSet":
        wanted = tuple(sorted(set(variables)))
        if not set(wanted) <= set(self.variables):
            raise MissingFreeVariableError(
                f"cannot restrict {self.variables} to {wanted}"
            )
        if wanted == self.variables:
            return self
        project = projector(self.variables, wanted)
        return AnswerSet(wanted, {project(row) for row in self.rows})

    def group_by(self, variables: Iterable[str]) -> dict[tuple[Value, ...], list[int]]:
        """Row indices grouped by their projection to *variables* (sorted order)."""
        project = projector(self.variables, sorted(set(variables)))
        groups: dict[tuple[Value, ...], list[int]] = {}
        for i, row in enumerate(self.rows):
            groups.setdefault(project(row), []).append(i)
        return groups

    def __repr__(self) -> str:
        return f"AnswerSet({self.variables}, {len(self.rows)} rows)"


# --- evaluation ---------------------------------------------------------------

class _Factor:
    """Intermediate relation over a tuple of distinct variables."""

    __slots__ = ("vars", "rows")

    def __init__(self, vars: tuple[str, ...], rows: list[tuple[Value, ...]]):
        self.vars = vars
        self.rows = rows

    def __len__(self):
        return len(self.rows)


def _atom_factor(atom: Atom, db: Database) -> _Factor:
    """Project an atom's relation to its distinct variables, applying constant
    and repeated-variable filters.  A ground atom yields a nullary factor
    whose emptiness decides satisfiability."""
    rel = db.relation(atom.relation)
    if rel is None:
        raise UnknownRelationError(f"relation {atom.relation!r} not in database")
    if rel.arity != len(atom.args):
        raise ArityMismatchError(
            f"{atom.relation}/{rel.arity} used with {len(atom.args)} arguments"
        )
    positions: dict[str, list[int]] = {}
    consts: list[tuple[int, Value]] = []
    for i, arg in enumerate(atom.args):
        if isinstance(arg, Var):
            positions.setdefault(arg.name, []).append(i)
        else:
            consts.append((i, arg.value))
    var_order = tuple(positions)
    rows = set()
    for row in rel.tuples:
        if any(row[i] is not v for i, v in consts):
            continue
        ok = True
        for pos_list in positions.values():
            first = row[pos_list[0]]
            if any(row[p] is not first for p in pos_list[1:]):
                ok = False
                break
        if ok:
            rows.add(tuple(row[pos[0]] for pos in positions.values()))
    if not var_order:
        # ground atom: empty factor means the whole query is unsatisfiable
        return _Factor((), [()] if rows else [])
    return _Factor(var_order, list(rows))


def _join(a: _Factor, b: _Factor) -> _Factor:
    """Hash join on the shared variables; with none shared, every row of a
    meets every row of b under the key ()."""
    shared = [v for v in a.vars if v in b.vars]
    extra = [v for v in b.vars if v not in a.vars]
    a_key = projector(a.vars, shared)
    b_key = projector(b.vars, shared)
    b_tail = projector(b.vars, extra)
    buckets: dict[tuple, list[tuple]] = {}
    for row in b.rows:
        buckets.setdefault(b_key(row), []).append(b_tail(row))
    rows = []
    append = rows.append
    for row in a.rows:
        hit = buckets.get(a_key(row))
        if hit:
            for tail in hit:
                append(row + tail)
    return _Factor(a.vars + tuple(extra), rows)


def query_factors(body: Query, db: Database, needed_vars: Iterable[str]) -> list[_Factor] | None:
    """Decompose a quantifier-free body into joinable factors.

    Adds full-domain factors for variables of *needed_vars* not otherwise
    constrained (the semantics of unconstrained variables and of x == x).
    Returns None when a ground conjunct is false.
    """
    factors: list[_Factor] = []
    domain_vars: set[str] = set()
    for part in conjuncts(body):
        if isinstance(part, Atom):
            f = _atom_factor(part, db)
            if f.vars == () and not f.rows:
                return None
            if f.vars:
                factors.append(f)
        elif isinstance(part, Equal):
            left, right = part.left, part.right
            if isinstance(left, Const) and isinstance(right, Const):
                if left.value is not right.value:
                    return None
            elif isinstance(left, Var) and isinstance(right, Var):
                if left.name == right.name:
                    domain_vars.add(left.name)
                else:
                    diag = [(v, v) for v in db.domain]
                    factors.append(_Factor((left.name, right.name), diag))
            else:
                var = left if isinstance(left, Var) else right
                const = right if isinstance(right, Const) else left
                assert isinstance(var, Var) and isinstance(const, Const)
                rows = [(const.value,)] if const.value in db.domain else []
                factors.append(_Factor((var.name,), rows))
        else:
            raise TypeError(f"body is not quantifier-free: {part!r}")

    covered = set()
    for f in factors:
        covered.update(f.vars)
    for v in sorted(set(needed_vars) | domain_vars):
        if v not in covered:
            factors.append(_Factor((v,), [(d,) for d in db.domain]))
    return factors


def join_factors(factors: list[_Factor]) -> _Factor:
    """Greedy hash-join plan: start small, prefer connected factors."""
    if not factors:
        return _Factor((), [()])
    pending = sorted(factors, key=len)
    current = pending.pop(0)
    while pending:
        best = None
        best_rank = None
        for i, f in enumerate(pending):
            shared = sum(1 for v in f.vars if v in current.vars)
            rank = (-min(shared, 1), len(f))
            if best_rank is None or rank < best_rank:
                best_rank = rank
                best = i
        nxt = pending.pop(best)
        current = _join(current, nxt)
        if not current.rows:
            # keep the full variable tuple so projection stays well-defined
            tail = list(current.vars)
            for f in pending:
                tail.extend(v for v in f.vars if v not in tail)
            return _Factor(tuple(tail), [])
    return current


def evaluate(q: Query, db: Database, variables: Iterable[str] | None = None) -> AnswerSet:
    """Answer set of q over db for a variable set X covering fv(q).

    Existential quantifiers evaluate as projections of the extended
    evaluation; variables of X unconstrained by q range over the domain.
    """
    fv = free_vars(q)
    X = frozenset(variables) if variables is not None else fv
    if not fv <= X:
        raise MissingFreeVariableError(
            f"variable set {sorted(X)} misses free variables {sorted(fv - X)}"
        )
    prefix, body = prenex(q)
    # prefix names were renamed apart from fv; keep X's names untouched
    eval_vars = set(X) | set(prefix)
    factors = query_factors(body, db, eval_vars)
    if factors is None:
        return AnswerSet(X, [])
    joined = join_factors(factors)
    project = projector(joined.vars, sorted(X))
    return AnswerSet(X, {project(row) for row in joined.rows})


# --- concrete syntax ----------------------------------------------------------

def parse_query(text: str) -> Query:
    stream = TokenStream(tokenize(text))
    q = parse_query_tokens(stream)
    stream.expect("EOF")
    return q


def parse_query_tokens(stream: TokenStream) -> Query:
    """Parse a query from the current stream position.

    ``exists`` extends as far right as possible; conjunction stops at the
    first token that cannot continue a query, which lets enclosing grammars
    place their own '.' after an embedded query.
    """
    if stream.at_name("exists"):
        stream.next()
        names = [stream.expect("NAME").text]
        while stream.accept("OP", ","):
            names.append(stream.expect("NAME").text)
        stream.expect("OP", ".")
        body = parse_query_tokens(stream)
        for name in reversed(names):
            body = Exists(name, body)
        return body
    node = _parse_query_primary(stream)
    while stream.at("OP", "/\\"):
        stream.next()
        if stream.at_name("exists"):
            rhs = parse_query_tokens(stream)
            return And(node, rhs)
        node = And(node, _parse_query_primary(stream))
    return node


def _parse_query_primary(stream: TokenStream) -> Query:
    tok = stream.peek()
    if stream.at_name("true"):
        stream.next()
        return TRUE
    if stream.at("OP", "("):
        stream.next()
        inner = parse_query_tokens(stream)
        stream.expect("OP", ")")
        return inner
    if tok.kind == "NAME" and stream.peek(1).kind == "OP" and stream.peek(1).text == "(":
        name = stream.next().text
        stream.next()  # (
        args: list[Expr] = []
        if not stream.at("OP", ")"):
            args.append(parse_value_expr(stream))
            while stream.accept("OP", ","):
                args.append(parse_value_expr(stream))
        stream.expect("OP", ")")
        return Atom(name, tuple(args))
    left = parse_value_expr(stream)
    stream.expect("OP", "==")
    right = parse_value_expr(stream)
    return Equal(left, right)


def parse_value_expr(stream: TokenStream) -> Expr:
    """A variable or a constant: the argument of an atom, ``==`` or ``num``."""
    tok = stream.peek()
    if tok.kind == "NAME":
        stream.next()
        return Var(tok.text)
    if tok.kind == "NUMBER":
        stream.next()
        return Const(Value(tok.text))
    if tok.kind == "STRING":
        stream.next()
        return Const(Value(tok.text))
    if tok.kind == "OP" and tok.text == "-" and stream.peek(1).kind == "NUMBER":
        stream.next()
        num = stream.next()
        return Const(Value("-" + num.text))
    raise ParseError(f"expected a variable or constant, found {tok.text!r}", tok.span)


def format_query(q: Query) -> str:
    """Concrete-syntax rendering; parse_query(format_query(q)) == q."""
    if isinstance(q, TrueQuery):
        return "true"
    if isinstance(q, Equal):
        return f"{_format_expr(q.left)} == {_format_expr(q.right)}"
    if isinstance(q, Atom):
        return f"{q.relation}({', '.join(_format_expr(a) for a in q.args)})"
    if isinstance(q, And):
        left = format_query(q.left)
        if isinstance(q.left, Exists):
            left = f"({left})"
        right = format_query(q.right)
        if isinstance(q.right, Exists):
            right = f"({right})"
        return f"{left} /\\ {right}"
    if isinstance(q, Exists):
        names = [q.var]
        body = q.body
        while isinstance(body, Exists):
            names.append(body.var)
            body = body.body
        return f"exists {', '.join(names)}. {format_query(body)}"
    raise TypeError(f"not a query: {q!r}")


def _format_expr(e: Expr) -> str:
    if isinstance(e, Var):
        return e.name
    text = e.value.text
    if e.value.numeric is not None:
        return text
    escaped = text.replace('"', '""')
    return f'"{escaped}"'
