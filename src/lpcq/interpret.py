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

Each interpretation compiles whole weight families to integer columns
with an ``LpBuilder``: one block per query's answers (θ), per (query, bag)
(ξ) and for the stand-ins (ν).  A θ block's answers fall into classes by
their values on the variables the query's weight families read; the
answers of a class are the same in every row, so rows hold one entry per
class, on its lead (``SparseLp.lead``).  The terms of a family find the
classes or bag rows their targets select all at once (``Groups.find`` on
the target codes, one grouping per query and target variables); a
soundness row holds a parent's and a child's bag rows with one separator
value, values in text order on their codes.  Rows go to ``LpBuilder.rows`` as arrays, in the
closed program's order, each side's terms in rank (``sort_key``) order.
Names are built from one ``Value.token`` per dictionary entry.  Each θ
and ξ block is kept as a ``Block``, its rows and their columns in the
built program, which is all ``weightings.lift_answers`` reads, in every
mode.

Names fix the column order: ``LpBuilder.build`` puts every column at its
name's place in sorted order, and the optimal vertex HiGHS returns
depends on that order.  Handed the same LPs with columns in block order
(one run each on a 2-core VM), dual simplex took 4,290 iterations instead
of 3,675 on the
factorized delivery benchmark (m=300, seed 1), and 1,250 instead of 1,210
on the natural one, and returned optimal vertices that differ by up to
203 and 49 in a coordinate.  Primal simplex after presolve, which the
factorized LPs go to once their forced-equal columns are merged, took 367
iterations instead of 330 at m=100, 1,145 instead of 870 at m=300 and
1,258 instead of 1,233 at m=500 (seed 1), and its vertex moved by up to
76, 156 and 103 in a coordinate.  Either would change the lifted weights.
So ``VarNaming._claim`` and ``CONTENT_NAME_LIMIT`` stay.  A block of more
than ``CONTENT_NAME_LIMIT`` rows is named by position, ``P_r0``,
``P_r1``, …, and goes to the builder as its stem and count
(``Positional``): its names' order follows from the digits of the row
numbers, so they are made only where they are printed or looked up
(``SparseLp.names``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .decomp import DecompTree, bag_projections, validate
from .errors import IncompatibleDecompositionError, MissingDecompositionError
from .language import ClosedProgram
from .linprog import LpBuilder, Positional, Side, SparseLp, slices
from .queries import AnswerSet, Groups, Query, evaluate, is_quantifier_free, qf
from .relations import Database, key_ids, ranges, row_groups

QueryKey = tuple[str, Query]

# row-content variable names are used up to this family size, positional
# suffixes beyond it; both are deterministic given the sorted row order
CONTENT_NAME_LIMIT = 5000


def qid(name: str) -> str:
    """Identifier of a query in its variables' names: the query name with
    every non-alphanumeric character replaced by ``_``."""
    return "".join(ch if ch.isalnum() else "_" for ch in name)


def _numbers_below(text: str, count: int) -> bool:
    """Whether *text* is ``str(i)`` for an i below *count*."""
    return (text.isascii() and text.isdigit() and (text == "0" or text[0] != "0")
            and len(text) <= len(str(count)) and int(text) < count)


class VarNaming:
    """Deterministic, injective names for answer, stand-in, and bag variables.

    Every name is claimed once for the whole program, so two variables
    never share a name, even when they come from different queries or
    their names are built from colliding values.  Names are claimed in one
    set, except the names ``P_r0``, ``P_r1``, … of a block of more than
    ``CONTENT_NAME_LIMIT`` rows, which are claimed as their stem ``P_r``
    and count (``Positional``) and never made here.  Such a block whose
    names are not all free is made name by name instead, so every name,
    ``_k`` suffixes included, is the one claimed in turn.
    """

    def __init__(self):
        self._taken: set[str] = set()
        self._stems: dict[str, int] = {}  # positional blocks claimed: stem -> count

    def _positional(self, name: str) -> bool:
        """Whether *name* is one of the names of a positional block claimed."""
        head, r, number = name.rpartition("_r")
        return _numbers_below(number, self._stems.get(head + r, 0))

    def _claim(self, base: str) -> str:
        """*base*, or *base* with the first free ``_k2``, ``_k3``, … suffix."""
        name = base
        bump = 1
        while name in self._taken or self._positional(name):
            bump += 1
            name = f"{base}_k{bump}"
        self._taken.add(name)
        return name

    def _claim_all(self, bases: list[str]) -> list[str]:
        """``_claim`` of each base in turn; one set operation when no base
        is taken or repeated, which is the common case."""
        fresh = set(bases)
        if (len(fresh) == len(bases) and fresh.isdisjoint(self._taken)
                and not (self._stems and any(map(self._positional, bases)))):
            self._taken |= fresh
            return bases
        return [self._claim(base) for base in bases]

    def _claim_positional(self, stem: str, count: int) -> Sequence[str]:
        """The names ``stem + str(i)``, i below *count*: a ``Positional``
        block when all are free, else claimed one by one."""
        if stem not in self._stems and not any(
            name.startswith(stem) and _numbers_below(name[len(stem):], count)
            for name in self._taken
        ):
            self._stems[stem] = count
            return Positional(stem, count)
        return self._claim_all([f"{stem}{i}" for i in range(count)])

    def _row_names(self, prefix: str, rows: AnswerSet) -> Sequence[str]:
        if len(rows) > CONTENT_NAME_LIMIT:
            return self._claim_positional(f"{prefix}_r", len(rows))
        if not rows.variables:
            return self._claim_all([f"{prefix}_all"] * len(rows))
        # one token per dictionary entry, joined column by column
        tokens = rows.dictionary.tokens
        names = prefix + "_" + tokens[rows.codes[:, 0]]
        for j in range(1, len(rows.variables)):
            names = names + "_" + tokens[rows.codes[:, j]]
        return self._claim_all(names.tolist())

    def theta_names(self, key: QueryKey, answers: AnswerSet) -> Sequence[str]:
        return self._row_names(f"th_{qid(key[0])}", answers)

    def xi_names(self, key: QueryKey, node: int, proj: AnswerSet) -> Sequence[str]:
        return self._row_names(f"xi_{qid(key[0])}_n{node}", proj)

    def nu_names(self, cp: ClosedProgram, ranks: np.ndarray) -> list[str]:
        """New stand-in names for the weight expressions of *cp* at *ranks*
        (``ClosedProgram.weights``), claimed in that order."""
        weights = cp.weights
        tokens = cp.dictionary.tokens
        bases = np.empty(weights.count, dtype=object)
        for f, codes, at in zip(cp.families, weights.codes, weights.ranks):
            base = f"nu_{qid(f.query_name)}"
            for j, x in enumerate(f.variables):
                base = base + f"_{x}_" + tokens[codes[:, j]]
            bases[at] = base if f.variables else base + "_all"
        return self._claim_all(bases[ranks].tolist())


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
    nu: list[str] = field(default_factory=list)  # stand-in names, in column order
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
    the natural reading of weight terms: the columns of the answers their
    targets select, one ``groups`` per (query, target variables).

    A query's answers fall into classes by their values on the variables
    its weight families read: every term selects answers by equality on
    some of those, so the answers of a class meet the same terms with the
    same coefficients.  Terms find classes, on the table of the classes'
    distinct values, and each class is one column to the rows, named by
    its first answer (``LpBuilder.block``'s stand-ins)."""

    def __init__(self, cp: ClosedProgram, db: Database, naming: VarNaming, builder: LpBuilder):
        self.answers = {key: evaluate(key[1], db) for key in cp.queries_w()}
        read: dict[QueryKey, set[str]] = {key: set() for key in self.answers}
        for f in cp.families:
            read[f.key].update(f.variables)
        self.classes: dict[QueryKey, tuple[AnswerSet, np.ndarray]] = {}
        self.starts = {}
        for key, rows in self.answers.items():
            columns = rows.columns(sorted(read[key]))
            (ids,), count = key_ids(columns)
            first = np.empty(count, dtype=np.int64)
            first[ids[::-1]] = np.arange(len(ids) - 1, -1, -1)  # the last write is the first row
            table = AnswerSet.from_codes(read[key], columns[first], rows.dictionary)
            self.classes[key] = table, first
            self.starts[key] = builder.block(naming.theta_names(key, rows), first[ids])
        self.builder = builder
        self.recode = db.dictionary.recode(cp.dictionary)
        self._columns: dict[tuple[QueryKey, tuple[str, ...]], tuple[Groups, np.ndarray]] = {}

    def blocks(self) -> dict[QueryKey, Block]:
        """Each query's θ block, once the program is built."""
        return {
            key: Block(rows, self.builder.columns(self.starts[key], len(rows)))
            for key, rows in self.answers.items()
        }

    def __call__(self, key: QueryKey, variables: tuple[str, ...], codes: np.ndarray):
        """``(source, starts, counts)``: the classes of the answers of *key*
        whose *variables* are ``codes[k]`` have the columns
        ``source[starts[k]:][:counts[k]]``."""
        if (key, variables) not in self._columns:
            table, first = self.classes[key]
            groups = table.groups(variables)
            self._columns[key, variables] = groups, first[groups.order] + self.starts[key]
        groups, source = self._columns[key, variables]
        return source, *groups.find(self.recode[codes])


def _sides(count: int, pieces) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """*count* row sides as ``LpBuilder.rows`` takes them, from pieces
    ``(slots, ranks, coeffs, source, starts, widths)``: term t goes to side
    ``slots[t]`` with ``coeffs[t]``, at rank ``ranks[t]`` (``sort_key``
    order), naming the columns ``source[starts[t]:starts[t] + widths[t]]``.
    A side lists its terms by rank; if it has more than one, each column
    once, its coefficients summed in that order, zeros dropped."""
    none = np.zeros(0, dtype=np.int64)
    pieces = [(none, none, none, none, none, none), *pieces]
    slots, ranks, widths = (np.concatenate([piece[k] for piece in pieces]) for k in (0, 1, 5))
    order = np.lexsort((ranks, slots))
    place = np.empty(len(order), dtype=np.int64)  # where each term's columns go
    place[order] = np.cumsum(widths[order]) - widths[order]
    cols, vals = np.empty(int(widths.sum()), dtype=np.int64), np.empty(int(widths.sum()))
    at = 0
    for _, _, coeffs, source, starts, counts in pieces:
        for lo, hi in slices(counts):  # bounded temporaries
            width = counts[lo:hi]
            into = ranges(place[at + lo:at + hi], width)
            cols[into] = source[ranges(starts[lo:hi], width)]
            vals[into] = np.repeat(coeffs[lo:hi], width)
        at += len(counts)
    counts = np.bincount(slots, widths, count).astype(np.int64)
    multi = np.flatnonzero(np.bincount(slots, minlength=count) > 1)  # sides to sum up
    if len(multi):
        merged = ranges((np.cumsum(counts) - counts)[multi], counts[multi])
        side = np.repeat(multi, counts[multi])
        _, first, group = np.unique(side * (int(cols.max(initial=0)) + 1) + cols[merged],
                                    return_index=True, return_inverse=True)
        sums = np.bincount(group, weights=vals[merged])
        keep = np.ones(len(cols), dtype=bool)
        keep[merged] = False
        keep[merged[first[sums != 0.0]]] = True
        vals[merged[first]] = sums
        counts[multi] = np.bincount(side[first[sums != 0.0]], minlength=count)[multi]
        cols, vals = cols[keep], vals[keep]
    return counts, cols, vals


def _program_rows(cp: ClosedProgram, builder: LpBuilder, columns_of) -> tuple[list[str], Side]:
    """Add the program's own constraints, the first rows of every
    interpretation, with each term's columns from ``columns_of(family,
    ranks)``; returns their provenance and the objective."""
    counts, cols, vals = _sides(len(cp.constants), [
        (f.slots, ranks, f.coeffs, *columns_of(f, ranks))
        for f, ranks in zip(cp.families, cp.weights.terms)
    ])
    n = counts[0]
    builder.rows(cp.constants[1::2], cp.constants[2::2], cp.eq, counts[1:], cols[n:], vals[n:])
    return ["user"] * len(cp.eq), (cp.constants[0], cols[:n], vals[:n])


def _stand_ins(columns: np.ndarray):
    """``columns_of`` for ``_program_rows``: a stand-in column per rank."""
    return lambda family, ranks: (columns, ranks, np.ones(len(ranks), dtype=np.int64))


def _weight_rows(builder: LpBuilder, nu_cols: np.ndarray, pieces) -> list[str]:
    """Row r: the stand-in at ``nu_cols[r]`` equals the columns of the terms
    ``t`` of pieces ``(rows, source, starts, widths)`` with ``rows[t] == r``."""
    n, ones = len(nu_cols), np.ones(len(nu_cols))
    sides = _sides(2 * n, [(2 * np.arange(n), ones, ones, nu_cols, np.arange(n), ones.astype(int))] + [
        (2 * rows + 1, rows, np.ones(len(rows)), *columns) for rows, *columns in pieces
    ])
    builder.rows(np.zeros(n), np.zeros(n), np.ones(n, dtype=bool), *sides)
    return ["weight"] * n


def natural(cp: ClosedProgram, db: Database) -> InterpretedLp:
    """One LP variable per query answer, weight expressions inlined."""
    builder = LpBuilder()
    answer_columns = _AnswerColumns(cp, db, VarNaming(), builder)

    def columns_of(family, ranks):
        return answer_columns(family.key, family.variables, family.codes)

    provenance, objective = _program_rows(cp, builder, columns_of)
    program = builder.build("maximize", objective)
    return InterpretedLp(
        mode="natural", program=program, provenance=provenance, theta=answer_columns.blocks()
    )


def replacement(cp: ClosedProgram, db: Database) -> InterpretedLp:
    """Fresh stand-in variable per weight expression plus defining equalities."""
    naming = VarNaming()
    builder = LpBuilder()
    answer_columns = _AnswerColumns(cp, db, naming, builder)

    weights = cp.weights
    nu = naming.nu_names(cp, np.arange(weights.count))
    nu_cols = builder.block(nu) + np.arange(len(nu))

    provenance, objective = _program_rows(cp, builder, _stand_ins(nu_cols))
    provenance += _weight_rows(builder, nu_cols, [
        (ranks, *answer_columns(f.key, f.variables, codes))
        for f, codes, ranks in zip(cp.families, weights.codes, weights.ranks)
    ])
    program = builder.build("maximize", objective)
    return InterpretedLp(
        mode="replacement",
        program=program,
        provenance=provenance,
        theta=answer_columns.blocks(),
        nu=nu,
    )


def quantifier_eliminate(cp: ClosedProgram) -> ClosedProgram:
    """Replace each weight query by its quantifier-free rewrite, once per
    query.

    Distinct quantified queries stay distinct, since the rewrite tags the
    body with one trivial equality per eliminated variable.
    """
    cache: dict[Query, Query] = {}

    def rewrite(query: Query) -> Query:
        if query not in cache:
            cache[query] = qf(query)
        return cache[query]

    return cp.with_queries(rewrite)


def factorized(
    cp: ClosedProgram, decomps: Mapping[QueryKey, DecompTree], db: Database
) -> InterpretedLp:
    """LP over bag-projection variables with per-edge marginal equalities.

    Each weight expression maps to the single bag variable carrying its
    target assignment (or to zero when the assignment is not a projection
    row); soundness rows tie the per-bag masses together across each edge.
    """
    naming = VarNaming()
    weights = cp.weights
    families_of: dict[QueryKey, list[int]] = {}
    for t, f in enumerate(cp.families):
        families_of.setdefault(f.key, []).append(t)
    recode = db.dictionary.recode(cp.dictionary)  # -1 for a value outside db

    builder = LpBuilder()
    projections: dict[QueryKey, dict[int, AnswerSet]] = {}
    starts: dict[QueryKey, dict[int, int]] = {}
    trees: dict[QueryKey, DecompTree] = {}
    witnesses: dict[QueryKey, dict] = {}
    nu: list[str] = []
    nu_cols = np.zeros(weights.count, dtype=np.int64)
    ranks_of: dict[QueryKey, np.ndarray] = {}  # a query's weight expressions

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
        # a target's witness is the bag equal to it closest to the root, the
        # smallest id on ties, so that reruns pick the same variables
        witnesses[key] = witness = {}
        for node in sorted(tree.bags, key=lambda n: (tree.depth(n), n)):
            witness.setdefault(tree.bags[node], node)
        missing = [t for t in families_of[key] if frozenset(cp.families[t].variables) not in witness]
        if missing:
            first = cp.families[min(missing, key=lambda t: weights.ranks[t].min())]
            raise IncompatibleDecompositionError(
                f"decomposition of {name!r} is incompatible: "
                f"no bag equals target set {sorted(first.variables)!r}"
            )

        proj = projections[key] = bag_projections(query, tree, db)
        starts[key] = {
            node: builder.block(naming.xi_names(key, node, proj[node]))
            for node in sorted(tree.bags)
        }
        trees[key] = tree
        ranks = ranks_of[key] = np.sort(np.concatenate([weights.ranks[t] for t in families_of[key]]))
        names = naming.nu_names(cp, ranks)
        nu_cols[ranks] = builder.block(names) + np.arange(len(names))
        nu += names

    provenance, objective = _program_rows(cp, builder, _stand_ins(nu_cols))
    for key, tree in trees.items():
        nodes = projections[key]
        pieces = []
        for t in families_of[key]:  # a witness bag's rows, each its own group
            witness = witnesses[key][frozenset(cp.families[t].variables)]
            groups = nodes[witness].groups(nodes[witness].variables)
            local = np.searchsorted(ranks_of[key], weights.ranks[t])
            pieces.append((local, groups.order + starts[key][witness],
                           *groups.find(recode[weights.codes[t]])))
        provenance += _weight_rows(builder, nu_cols[ranks_of[key]], pieces)

        for parent, child in sorted(tree.edges):
            # one row per separator value γ of either side, in text order:
            # both sides' rows grouped together, each group's parent rows
            # first, so the grouped order lists every row's sides in turn
            shared = sorted(tree.bags[parent] & tree.bags[child])
            split = len(nodes[parent])
            order, bounds = row_groups(np.concatenate(
                [nodes[parent].columns(shared), nodes[child].columns(shared)]
            ))
            in_parent = order < split
            p_bounds = np.concatenate(([0], np.cumsum(in_parent)))[bounds]
            counts = np.stack([np.diff(p_bounds), np.diff(bounds - p_bounds)], axis=1).ravel()
            cols = np.where(in_parent, order + starts[key][parent],
                            order - split + starts[key][child])
            groups = len(bounds) - 1
            builder.rows(np.zeros(groups), np.zeros(groups), np.ones(groups, dtype=bool),
                         counts, cols, np.ones(len(cols)))
            provenance.extend(["soundness"] * groups)

    program = builder.build("maximize", objective)
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
