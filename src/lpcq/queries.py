"""Conjunctive query ASTs, answer-set evaluation, and syntactic operators.

Queries are built from equalities, relational atoms, conjunction, and
existential quantification.  Query identity is exact AST equality: two
queries differing only in a bound-variable name are distinct objects, which
downstream naming schemes rely on.  Compound nodes hash their fields once and
cache the result (``hash_once``), since queries key many dicts.

Evaluation follows set semantics.  ``evaluate(q, db, X)`` returns the set of
assignments of X satisfying q, where variables of X not constrained by q
range over the whole domain.  It runs on the database's int32 codes: each
atom becomes a factor through column masks (constants, repeated variables)
and a dedupe, and factors are joined by sort-merge on their shared columns
(``relations.match``).  An answer set holds its rows as codes in text
order and decodes them to ``Value`` tuples only when asked; ``groups``
groups them with a lexsort.  A brute-force enumerator with the same
contract lives in the test suite and serves as the oracle.

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
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import (
    ArityMismatchError,
    LengthMismatchError,
    MissingFreeVariableError,
    ParseError,
    RaggedRowsError,
    UnknownRelationError,
)
from .lexer import TokenStream, tokenize
from .relations import (
    Assignment,
    Database,
    Dictionary,
    Value,
    join_keys,
    match,
    row_groups,
    unique_rows,
)


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

class Groups:
    """Rows of an answer set grouped by their projection to some variables.

    Groups are numbered in the text order of their keys; group g holds the
    rows ``order[bounds[g]:bounds[g + 1]]``, in ascending order, and its key
    is row g of ``keys``, codes into ``dictionary``.
    """

    __slots__ = ("keys", "order", "bounds", "dictionary", "_index")

    def __init__(self, keys: np.ndarray, order: np.ndarray, bounds: np.ndarray,
                 dictionary: Dictionary):
        self.keys = keys
        self.order = order
        self.bounds = bounds
        self.dictionary = dictionary
        self._index: dict[tuple[int, ...], int] | None = None

    def __len__(self) -> int:
        return len(self.keys)

    def members(self, g: int) -> np.ndarray:
        return self.order[self.bounds[g]:self.bounds[g + 1]]

    def find(self, key: tuple[Value, ...]) -> np.ndarray:
        """The rows whose projection is the value tuple *key*, in ascending
        order; none when no row has it."""
        if self._index is None:
            self._index = {k: g for g, k in enumerate(map(tuple, self.keys.tolist()))}
        g = self._index.get(tuple(map(self.dictionary.code, key)))
        return self.order[:0] if g is None else self.members(g)


class AnswerSet:
    """Set of assignments over an ordered variable tuple.

    The rows are held as ``codes``, an ``(n, k)`` int32 array of codes into
    ``dictionary``, columns aligned with ``variables`` (sorted by name) and
    rows distinct and in text order, for deterministic iteration; consumers
    must not read meaning into the order.  ``rows``, iteration and
    membership decode them to value tuples on first use.  An answer set
    built from value rows gets a dictionary of its own values.
    """

    __slots__ = ("variables", "codes", "dictionary", "_rows", "_member_cache")

    def __init__(self, variables: Iterable[str], rows: Iterable[tuple[Value, ...]]):
        variables = tuple(sorted(variables))
        unique = rows if isinstance(rows, (set, frozenset)) else set(rows)
        for row in unique:
            if len(row) != len(variables):
                raise RaggedRowsError(
                    f"answer row of length {len(row)} over {len(variables)} variables"
                )
        dictionary = Dictionary(v for row in unique for v in row)
        codes = unique_rows(dictionary.encode(unique, len(variables)))
        self._set(variables, codes, dictionary)

    def _set(self, variables: tuple[str, ...], codes: np.ndarray, dictionary: Dictionary) -> None:
        self.variables = variables
        self.codes = codes
        self.dictionary = dictionary
        self._rows: list[tuple[Value, ...]] | None = None
        self._member_cache: set | None = None

    @classmethod
    def from_codes(
        cls, variables: Iterable[str], codes: np.ndarray, dictionary: Dictionary
    ) -> "AnswerSet":
        """The answer set of *codes* into *dictionary*: columns aligned with
        the sorted *variables*, rows distinct and in lexicographic order."""
        answers = cls.__new__(cls)
        answers._set(tuple(sorted(variables)), codes, dictionary)
        return answers

    @property
    def rows(self) -> list[tuple[Value, ...]]:
        if self._rows is None:
            self._rows = self.dictionary.decode(self.codes)
        return self._rows

    def columns(self, variables: Iterable[str]) -> np.ndarray:
        """The code columns of *variables*, in the order given."""
        return self.codes[:, [self.variables.index(v) for v in variables]]

    def _members(self) -> set:
        if self._member_cache is None:
            self._member_cache = set(self.rows)
        return self._member_cache

    def __len__(self) -> int:
        return len(self.codes)

    def __iter__(self) -> Iterator[tuple[Value, ...]]:
        return iter(self.rows)

    def __contains__(self, item) -> bool:
        if isinstance(item, Assignment):
            if item.variables != self.variables:
                return False
            return item.values in self._members()
        return item in self._members()

    def __eq__(self, other) -> bool:
        if not (
            isinstance(other, AnswerSet)
            and self.variables == other.variables
            and len(self) == len(other)
        ):
            return False
        if self.dictionary is other.dictionary:
            return bool(np.array_equal(self.codes, other.codes))
        return self.rows == other.rows

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
        return AnswerSet.from_codes(wanted, unique_rows(self.columns(wanted)), self.dictionary)

    def groups(self, variables: Iterable[str]) -> Groups:
        """The rows grouped by their projection to *variables*: one id per
        row, numbered in the text order of the key columns, and a stable
        sort of the ids."""
        columns = self.columns(sorted(set(variables)))
        order, bounds = row_groups(columns)
        return Groups(columns[order[bounds[:-1]]], order, bounds, self.dictionary)

    def group_by(self, variables: Iterable[str]) -> dict[tuple[Value, ...], list[int]]:
        """Row indices grouped by their projection to *variables* (sorted
        order), groups in the order of their first row."""
        groups = self.groups(variables)
        keys = groups.dictionary.decode(groups.keys)
        firsts = groups.order[groups.bounds[:-1]]
        return {keys[g]: groups.members(g).tolist() for g in np.argsort(firsts).tolist()}

    def __repr__(self) -> str:
        return f"AnswerSet({self.variables}, {len(self)} rows)"


# --- evaluation ---------------------------------------------------------------

class _Factor:
    """Intermediate relation over a tuple of distinct variables: an
    ``(n, len(vars))`` array of codes into the database's dictionary, rows
    distinct."""

    __slots__ = ("vars", "codes")

    def __init__(self, vars: tuple[str, ...], codes: np.ndarray):
        self.vars = vars
        self.codes = codes

    def __len__(self):
        return len(self.codes)

    def columns(self, variables: Sequence[str]) -> np.ndarray:
        return self.codes[:, [self.vars.index(v) for v in variables]]


def _no_rows(width: int) -> np.ndarray:
    return np.zeros((0, width), dtype=np.int32)


def _domain_column(db: Database) -> np.ndarray:
    return np.arange(len(db.dictionary), dtype=np.int32)[:, None]


def _atom_factor(atom: Atom, db: Database) -> _Factor:
    """Project an atom's relation to its distinct variables, applying constant
    and repeated-variable filters as column masks.  A ground atom yields a
    nullary factor whose emptiness decides satisfiability."""
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
    codes = rel.codes
    mask = None
    for i, value in consts:
        code = db.dictionary.code(value)
        if code is None:
            return _Factor(tuple(positions), _no_rows(len(positions)))
        hit = codes[:, i] == code
        mask = hit if mask is None else mask & hit
    for first, *rest in positions.values():
        for p in rest:
            hit = codes[:, p] == codes[:, first]
            mask = hit if mask is None else mask & hit
    if mask is not None:
        codes = codes[mask]
    firsts = [pos[0] for pos in positions.values()]
    if len(firsts) < rel.arity:
        # dropped columns can make rows equal
        codes = unique_rows(codes[:, firsts])
    return _Factor(tuple(positions), codes)


def _join(a: _Factor, b: _Factor) -> _Factor:
    """Sort-merge join on the shared variables; with none shared, every row
    of a meets every row of b."""
    shared = [v for v in a.vars if v in b.vars]
    extra = [v for v in b.vars if v not in a.vars]
    i, j = match(*join_keys(a.columns(shared), b.columns(shared)))
    width = len(a.vars)
    codes = np.empty((len(i), width + len(extra)), dtype=np.int32)
    codes[:, :width] = a.codes[i]
    codes[:, width:] = b.columns(extra)[j]
    return _Factor(a.vars + tuple(extra), codes)


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
            if f.vars == () and not len(f):
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
                    diag = np.repeat(_domain_column(db), 2, axis=1)
                    factors.append(_Factor((left.name, right.name), diag))
            else:
                var = left if isinstance(left, Var) else right
                const = right if isinstance(right, Const) else left
                assert isinstance(var, Var) and isinstance(const, Const)
                code = db.dictionary.code(const.value)
                rows = _no_rows(1) if code is None else np.array([[code]], dtype=np.int32)
                factors.append(_Factor((var.name,), rows))
        else:
            raise TypeError(f"body is not quantifier-free: {part!r}")

    covered = set()
    for f in factors:
        covered.update(f.vars)
    for v in sorted(set(needed_vars) | domain_vars):
        if v not in covered:
            factors.append(_Factor((v,), _domain_column(db)))
    return factors


def join_factors(factors: list[_Factor]) -> _Factor:
    """Greedy join plan: start small, prefer connected factors."""
    if not factors:
        return _Factor((), np.zeros((1, 0), dtype=np.int32))
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
        if not len(current):
            # keep the full variable tuple so projection stays well-defined
            tail = list(current.vars)
            for f in pending:
                tail.extend(v for v in f.vars if v not in tail)
            return _Factor(tuple(tail), _no_rows(len(tail)))
    return current


def evaluate(q: Query, db: Database, variables: Iterable[str] | None = None) -> AnswerSet:
    """Answer set of q over db for a variable set X covering fv(q).

    Existential quantifiers evaluate as projections of the extended
    evaluation; variables of X unconstrained by q range over the domain.
    """
    fv = free_vars(q)
    X = sorted(variables if variables is not None else fv)
    if not fv <= set(X):
        raise MissingFreeVariableError(
            f"variable set {X} misses free variables {sorted(fv - set(X))}"
        )
    prefix, body = prenex(q)
    # prefix names were renamed apart from fv; keep X's names untouched
    factors = query_factors(body, db, set(X) | set(prefix))
    if factors is None:
        return AnswerSet.from_codes(X, _no_rows(len(X)), db.dictionary)
    joined = join_factors(factors)
    return AnswerSet.from_codes(X, unique_rows(joined.columns(X)), db.dictionary)


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
