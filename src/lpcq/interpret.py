"""From closed programs to concrete linear programs.

Three interpretations share one variable-naming discipline:

* ``natural``:     one variable per query answer; each weight expression
                   becomes the sum of the matching answer variables.
* ``replacement``: like natural, but weight expressions are replaced by
                   fresh stand-in variables defined by equality rows, so
                   the user constraints only mention the stand-ins.
* ``factorized``:  variables live on bag projections of a decomposition
                   tree; per-edge marginal-equality rows restore the
                   dependencies the factorization drops.  Requires
                   quantifier-free weight queries, which
                   ``quantifier_eliminate`` guarantees.

Every constraint carries a provenance tag (user, weight, soundness) for
diagnostics and reporting.  Rows come in that order: the user rows, then,
query by query, the weight rows and the soundness rows.

Each interpretation compiles straight to integer columns with an
``LpBuilder``: one block per query's answers (θ), per (query, bag) (ξ)
and for the stand-ins (ν).  A weight expression becomes the column
positions of its ``group_by`` group, cached per (query, target
variables); a soundness row, the positions of a parent's and a child's
bag rows.  No row is built as a name-keyed dict.  Each θ and ξ block is
kept as a ``Block``, its rows and their columns in the built program,
which is all ``weightings.lift_answers`` reads, in every mode.

Names are still generated, once per block, because they fix the column
order: ``LpBuilder.build`` sorts them once and puts every column at its
name's place.  The optimal vertex HiGHS returns depends on that order.
Handed the same LPs with columns in block order (one run each on a 2-core
VM), dual simplex took 4,290 iterations instead of 3,675 on the
factorized delivery benchmark (m=300, seed 1), and 1,250 instead of 1,210
on the natural one, and returned optimal vertices that differ by up to
203 and 49 in a coordinate.  The interior point solver with crossover,
which the factorized LPs go to, took the same 12 to 16 iterations in
either order, but its vertex moved too: by up to 38 in a coordinate at
m=100 and 17 at m=500 (seed 1; not at all at m=300).  Either would change
the lifted weights.  So ``VarNaming._claim`` and ``CONTENT_NAME_LIMIT`` stay.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .decomp import DecompTree, bag_projections, validate
from .errors import IncompatibleDecompositionError, MissingDecompositionError
from .language import ClosedProgram, ClosedSum, WeightExprClosed
from .linprog import LpBuilder, Side, SparseLp
from .queries import AnswerSet, Query, evaluate, is_quantifier_free, qf
from .relations import Database, Value

QueryKey = tuple[str, Query]

# row-content variable names are used up to this family size, positional
# suffixes beyond it; both are deterministic given the sorted row order
CONTENT_NAME_LIMIT = 5000


def qid(name: str) -> str:
    """Identifier of a query in its variables' names: the query name with
    every non-alphanumeric character replaced by ``_``."""
    return "".join(ch if ch.isalnum() else "_" for ch in name)


class VarNaming:
    """Deterministic, injective names for answer, stand-in, and bag variables.

    Every name is claimed in one set shared by all θ, ξ and ν names of the
    program, so two variables never share a name, even when they come from
    different queries or their names are built from colliding values.
    """

    def __init__(self):
        self._taken: set[str] = set()

    def _claim(self, base: str) -> str:
        """*base*, or *base* with the first free ``_k2``, ``_k3``, … suffix."""
        name = base
        bump = 1
        while name in self._taken:
            bump += 1
            name = f"{base}_k{bump}"
        self._taken.add(name)
        return name

    def _claim_all(self, bases: list[str]) -> list[str]:
        """``_claim`` of each base in turn; one set operation when no base
        is taken or repeated, which is the common case."""
        fresh = set(bases)
        if len(fresh) == len(bases) and fresh.isdisjoint(self._taken):
            self._taken |= fresh
            return bases
        return [self._claim(base) for base in bases]

    def _row_names(self, prefix: str, rows: AnswerSet) -> list[str]:
        if len(rows) > CONTENT_NAME_LIMIT:
            return self._claim_all([f"{prefix}_r{i}" for i in range(len(rows))])
        return self._claim_all([
            f"{prefix}_{'_'.join([v.token for v in row])}" if row else f"{prefix}_all"
            for row in rows.rows
        ])

    def theta_names(self, key: QueryKey, answers: AnswerSet) -> list[str]:
        return self._row_names(f"th_{qid(key[0])}", answers)

    def xi_names(self, key: QueryKey, node: int, proj: AnswerSet) -> list[str]:
        return self._row_names(f"xi_{qid(key[0])}_n{node}", proj)

    def nu_name(self, w: WeightExprClosed) -> str:
        """A new stand-in name for *w*; each call claims one."""
        parts = "_".join(f"{x}_{v.token}" for x, v in w.targets) or "all"
        return self._claim(f"nu_{qid(w.query_name)}_{parts}")


@dataclass(frozen=True)
class Block:
    """Answer (θ) or bag (ξ) variables: row i of *rows* is the variable at
    column ``columns[i]`` of the program, named ``program.names[columns[i]]``."""

    rows: AnswerSet
    columns: np.ndarray


@dataclass
class InterpretedLp:
    """A compiled LP plus the bookkeeping linking its variables back to
    query answers and bag projections: a θ block per query in natural and
    replacement mode, a ξ block per (query, bag) in factorized mode."""

    mode: str
    program: SparseLp
    provenance: list[str]
    theta: dict[QueryKey, Block] = field(default_factory=dict)
    nu: dict[WeightExprClosed, str] = field(default_factory=dict)
    xi: dict[QueryKey, dict[int, Block]] = field(default_factory=dict)
    trees: dict[QueryKey, DecompTree] = field(default_factory=dict)

    @property
    def theta_count(self) -> int:
        return sum(len(b.rows) for b in self.theta.values())

    @property
    def xi_count(self) -> int:
        return sum(len(b.rows) for nodes in self.xi.values() for b in nodes.values())

    @property
    def nu_count(self) -> int:
        return len(self.nu)

    @property
    def variable_count(self) -> int:
        return self.theta_count + self.xi_count + self.nu_count

    def provenance_counts(self) -> dict[str, int]:
        out = {"user": 0, "weight": 0, "soundness": 0}
        for tag in self.provenance:
            out[tag] += 1
        return out


class _AnswerColumns:
    """The θ blocks of a program's queries, one per query's answers, and
    the natural reading of a weight expression: the columns of the answers
    its targets select, one ``group_by`` per (query, target variables)."""

    def __init__(self, cp: ClosedProgram, db: Database, naming: VarNaming, builder: LpBuilder):
        self.answers = {key: evaluate(key[1], db) for key in cp.queries_w()}
        self.starts = {
            key: builder.block(naming.theta_names(key, rows)) for key, rows in self.answers.items()
        }
        self.builder = builder
        self._groups: dict[tuple[QueryKey, frozenset[str]], dict] = {}

    def blocks(self) -> dict[QueryKey, Block]:
        """Each query's θ block, once the program is built."""
        return {
            key: Block(rows, self.builder.columns(self.starts[key], len(rows)))
            for key, rows in self.answers.items()
        }

    def __call__(self, w: WeightExprClosed) -> list[int]:
        key = (w.query_name, w.query)
        target_vars = w.target_vars()
        gkey = (key, target_vars)
        groups = self._groups.get(gkey)
        if groups is None:
            groups = self._groups[gkey] = self.answers[key].group_by(target_vars)
        values = tuple(v for _, v in w.targets)  # targets sorted by variable
        members = groups.get(values, ())
        start = self.starts[key]
        return [start + i for i in members] if start else members


def _side(s: ClosedSum, columns_of) -> Side:
    """*s* over columns: each column's coefficients summed in term order,
    zeros dropped."""
    terms = s.ordered_terms()
    if len(terms) == 1:  # one expression names each of its columns once
        ((w, coeff),) = terms
        cols = columns_of(w)
        return s.constant, cols, array("d", [coeff]) * len(cols)
    acc: dict[int, float] = {}
    for w, coeff in terms:
        for col in columns_of(w):
            acc[col] = acc.get(col, 0.0) + coeff
    if 0.0 in acc.values():
        acc = {col: v for col, v in acc.items() if v != 0.0}
    return s.constant, list(acc), list(acc.values())


def _ones(cols: list[int]) -> Side:
    return 0.0, cols, array("d", [1.0]) * len(cols)


def _user_rows(cp: ClosedProgram, builder: LpBuilder, columns_of) -> list[str]:
    """The program's own constraints, the first rows of every interpretation."""
    for con in cp.constraints:
        builder.row(_side(con.lhs, columns_of), con.rel, _side(con.rhs, columns_of))
    return ["user"] * len(cp.constraints)


def natural(cp: ClosedProgram, db: Database) -> InterpretedLp:
    """One LP variable per query answer, weight expressions inlined."""
    builder = LpBuilder()
    columns_of = _AnswerColumns(cp, db, VarNaming(), builder)
    provenance = _user_rows(cp, builder, columns_of)
    program = builder.build("maximize", _side(cp.objective, columns_of))
    return InterpretedLp(
        mode="natural", program=program, provenance=provenance, theta=columns_of.blocks()
    )


def replacement(cp: ClosedProgram, db: Database) -> InterpretedLp:
    """Fresh stand-in variable per weight expression plus defining equalities."""
    naming = VarNaming()
    builder = LpBuilder()
    answer_columns = _AnswerColumns(cp, db, naming, builder)

    weights = cp.weight_exprs()
    nu = {w: naming.nu_name(w) for w in weights}
    nu_start = builder.block(list(nu.values()))
    nu_col = {w: nu_start + j for j, w in enumerate(weights)}

    provenance = _user_rows(cp, builder, lambda w: [nu_col[w]])
    for w in weights:
        builder.row(_ones([nu_col[w]]), "=", _ones(answer_columns(w)))
        provenance.append("weight")
    program = builder.build("maximize", _side(cp.objective, lambda w: [nu_col[w]]))
    return InterpretedLp(
        mode="replacement",
        program=program,
        provenance=provenance,
        theta=answer_columns.blocks(),
        nu=nu,
    )


def quantifier_eliminate(cp: ClosedProgram) -> ClosedProgram:
    """Replace each weight query by its quantifier-free rewrite.

    Distinct quantified queries stay distinct, since the rewrite tags the
    body with one trivial equality per eliminated variable.
    """
    cache: dict[Query, Query] = {}

    def rewrite_weight(w: WeightExprClosed) -> WeightExprClosed:
        if w.query not in cache:
            cache[w.query] = qf(w.query)
        new_query = cache[w.query]
        if new_query == w.query:
            return w
        return WeightExprClosed(w.query_name, new_query, w.targets)

    def rewrite_sum(s: ClosedSum) -> ClosedSum:
        return ClosedSum(s.constant, {rewrite_weight(w): c for w, c in s.terms.items()})

    constraints = [
        type(con)(rewrite_sum(con.lhs), con.rel, rewrite_sum(con.rhs))
        for con in cp.constraints
    ]
    return ClosedProgram(rewrite_sum(cp.objective), constraints, minimized=cp.minimized)


def factorized(
    cp: ClosedProgram, decomps: Mapping[QueryKey, DecompTree], db: Database
) -> InterpretedLp:
    """LP over bag-projection variables with per-edge marginal equalities.

    Each weight expression maps to the single bag variable carrying its
    target assignment (or to zero when the assignment is not a projection
    row); soundness rows tie the per-bag masses together across each edge.
    """
    naming = VarNaming()
    targets_by_query: dict[QueryKey, list[WeightExprClosed]] = {}
    for w in cp.weight_exprs():
        targets_by_query.setdefault((w.query_name, w.query), []).append(w)

    builder = LpBuilder()
    projections: dict[QueryKey, dict[int, AnswerSet]] = {}
    starts: dict[QueryKey, dict[int, int]] = {}
    trees: dict[QueryKey, DecompTree] = {}
    witnesses: dict[QueryKey, dict] = {}
    nu: dict[WeightExprClosed, str] = {}
    nu_col: dict[WeightExprClosed, int] = {}

    for key in cp.queries_w():
        name, query = key
        if not is_quantifier_free(query):
            raise IncompatibleDecompositionError(
                f"query {name!r} still has quantifiers; eliminate them first"
            )
        tree = decomps.get(key)
        if tree is None:
            raise MissingDecompositionError(f"no decomposition for query {name!r}")
        validate(tree, query)
        weights = targets_by_query.get(key, [])
        # a target's witness is the bag equal to it closest to the root, the
        # smallest id on ties, so that reruns pick the same variables
        witnesses[key] = witness = {}
        for node in sorted(tree.bags, key=lambda n: (tree.depth(n), n)):
            witness.setdefault(tree.bags[node], node)
        missing = [w.target_vars() for w in weights if w.target_vars() not in witness]
        if missing:
            raise IncompatibleDecompositionError(
                f"decomposition of {name!r} is incompatible: "
                f"no bag equals target set {sorted(missing[0])!r}"
            )

        proj = projections[key] = bag_projections(query, tree, db)
        starts[key] = {
            node: builder.block(naming.xi_names(key, node, proj[node]))
            for node in sorted(tree.bags)
        }
        trees[key] = tree
        for w in weights:
            nu[w] = naming.nu_name(w)
            nu_col[w] = builder.block([nu[w]])

    provenance = _user_rows(cp, builder, lambda w: [nu_col[w]])
    for key, tree in trees.items():
        nodes = projections[key]
        row_of: dict[int, dict[tuple[Value, ...], int]] = {}
        for w in targets_by_query.get(key, []):
            witness = witnesses[key][w.target_vars()]
            if witness not in row_of:
                row_of[witness] = {row: i for i, row in enumerate(nodes[witness].rows)}
            i = row_of[witness].get(tuple(v for _, v in w.targets))
            rhs = [starts[key][witness] + i] if i is not None else []
            builder.row(_ones([nu_col[w]]), "=", _ones(rhs))
            provenance.append("weight")

        for parent, child in sorted(tree.edges):
            shared = tree.bags[parent] & tree.bags[child]
            pg = nodes[parent].group_by(shared)
            cg = nodes[child].group_by(shared)
            p_start = starts[key][parent]
            c_start = starts[key][child]
            for gamma in sorted(set(pg) | set(cg), key=lambda t: tuple(v.text for v in t)):
                builder.row(
                    _ones([p_start + i for i in pg.get(gamma, ())]),
                    "=",
                    _ones([c_start + i for i in cg.get(gamma, ())]),
                )
                provenance.append("soundness")

    program = builder.build("maximize", _side(cp.objective, lambda w: [nu_col[w]]))
    return InterpretedLp(
        mode="factorized",
        program=program,
        provenance=provenance,
        nu=nu,
        xi={
            key: {
                node: Block(rows, builder.columns(starts[key][node], len(rows)))
                for node, rows in sorted(nodes.items())
            }
            for key, nodes in projections.items()
        },
        trees=trees,
    )
