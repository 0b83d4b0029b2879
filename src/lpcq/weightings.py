"""Weightings over answer sets and their reconstruction from bag marginals.

A weighting assigns a nonnegative mass to every row of an answer set.
Projecting a weighting onto a variable subset sums masses over extension
classes and preserves total mass.  A *weighting collection* holds one
weighting per node of a decomposition tree; it is *sound* when adjacent
nodes agree on their shared-variable marginals.

The centerpiece is ``reconstruct``: given a sound collection on any valid
tree whose underlying relation is conjunctively decomposed (true for answer
sets of quantifier-free queries), it builds a weighting of the full relation
whose per-bag projections are exactly the collection.  A row's mass is the
clique/separator product of decomposable models (Lauritzen, *Graphical
Models*, 1996)::

    w(a) = w_root(a|B_root) * prod over edges (p, c) of
           w_c(a|B_c) / m_c(a|B_p & B_c)

where ``m_c`` is the child's marginal on the separator.  It is the function
the textbook bottom-up pass over a normalized tree computes: there the
extend-node ratios telescope to the per-edge ratios, and the project steps
and the join node's division by mass^(k-1) cancel, since soundness makes
both sides of every separator equal.  A separator marginal at or below
``ZERO_TOL`` (1e-12) makes the row's mass 0.  ``reconstruct_point``
evaluates the same function at one row without materializing anything.

The lift runs on integer codes (``_Lift``).  Every variable of the tree gets
a dictionary of its values in the bag projections, in text order, so that
comparing codes compares texts; each bag becomes an ``(n, k)`` array of
codes and a vector of masses.  A separator marginal is an ``np.bincount``
over separator keys, which adds in row order as ``project_weighting`` does.
Keys over several columns are compacted one column at a time with
``np.unique``, so no key overflows int64, whatever the dictionary sizes.
``check_sound``, ``reconstruct``, ``reconstruct_point`` and ``lift_answers``
share this kernel, so the formula above is written once (``_Lift.masses_at``).

``lift_answers`` lifts a solved factorized program without evaluating its
query again: it enumerates the answers from the bag projections the program
was built from.  After the two semi-join passes of ``bag_projections``,
each bag holds exactly the projection of the answer set.  The bags cover
every free variable, and every atom and variable equality lies inside one
bag, so the join of the bags is exactly the answer set.  Each variable's
bags form a connected subtree, so joining every child to its parent on
their separator, down the tree, computes that join (the join phase of
Yannakakis, VLDB 1981).  Every partial row extends to an answer, so no
intermediate is larger than the output (Olteanu and Závodný, TODS 2015).
The rows are put in ``AnswerSet`` order with ``np.lexsort`` on the codes,
and each row's mass is the product above, edges in sorted order and
multiplied left to right, as ``reconstruct`` computes it.

``solution_to_weights`` turns those columns into a ``Weighting``: the
bag-variable values form a sound collection (up to solver tolerance), and
the lift gives per-answer weights that are feasible for the answer-variable
formulation at the same objective value.  It and ``reconstruct`` refuse
more than ``MATERIALIZE_LIMIT`` answers; ``lift_answers`` has no limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, Mapping, Sequence

import numpy as np

from .decomp import DecompTree
from .errors import (
    BadSubsetError,
    NotAnAnswerError,
    TooLargeError,
    UnsoundCollectionError,
)
# evaluate is no longer called here; it stays importable because the
# benchmark's tracer (perfbench/tracer.py) wraps lpcq.weightings.evaluate
from .queries import AnswerSet, evaluate, projector  # noqa: F401
from .relations import Assignment, Value

ZERO_TOL = 1e-12
SOUND_TOL = 1e-7
# marginal disagreement a solved factorized program may show from solver
# drift and still be lifted
LIFT_TOL = 1e-5
MATERIALIZE_LIMIT = 10**6

_text = attrgetter("text")


class Weighting:
    """Total nonnegative mass function on an answer set."""

    __slots__ = ("base", "values")

    def __init__(self, base: AnswerSet, values: Mapping):
        self.base = base
        self.values: dict[tuple[Value, ...], float] = {}
        for key, mass in values.items():
            if isinstance(key, Assignment):
                key = tuple(key[v] for v in base.variables)
            self.values[key] = float(mass)
        for row in base.rows:
            if row not in self.values:
                raise BadSubsetError("weighting is not total on its answer set")
        if len(self.values) != len(base):
            raise BadSubsetError("weighting assigns rows outside its answer set")
        for mass in self.values.values():
            if mass < 0:
                raise BadSubsetError("weightings are nonnegative")

    @classmethod
    def uniform(cls, base: AnswerSet, mass: float = 1.0) -> "Weighting":
        return cls(base, {row: mass for row in base.rows})

    def __getitem__(self, key) -> float:
        if isinstance(key, Assignment):
            key = tuple(key[v] for v in self.base.variables)
        return self.values[key]

    def get(self, key, default: float = 0.0) -> float:
        if isinstance(key, Assignment):
            key = tuple(key.get(v) for v in self.base.variables)
        return self.values.get(key, default)

    def total(self) -> float:
        return sum(self.values.values())

    def items(self):
        for row in self.base.rows:
            yield Assignment(self.base.variables, row), self.values[row]

    def __repr__(self):
        return f"Weighting({len(self.values)} rows, total={self.total():g})"


def project_weighting(w: Weighting, variables: Iterable[str]) -> Weighting:
    """Mass-preserving projection onto a subset of the variables."""
    wanted = frozenset(variables)
    if not wanted <= set(w.base.variables):
        raise BadSubsetError(
            f"{sorted(wanted)} is not a subset of {w.base.variables}"
        )
    restricted = w.base.restrict(wanted)
    groups = w.base.group_by(wanted)
    rows = w.base.rows
    out = {key: sum(w.values[rows[i]] for i in members) for key, members in groups.items()}
    return Weighting(restricted, out)


class WeightingCollection:
    """One weighting per tree node, each over the bag's projection.

    A collection is frozen once ``reconstruct_point`` has lifted it: the
    lift is kept per tolerance, so later points cost one row each, and a
    weighting changed afterwards is not seen by them.
    """

    def __init__(self, tree: DecompTree, per_node: Mapping[int, Weighting]):
        self.tree = tree
        self.per_node = dict(per_node)
        self._lifts: dict[float, _Lift] = {}
        for node in tree.bags:
            if node not in self.per_node:
                raise BadSubsetError(f"collection misses node {node}")

    def __getitem__(self, node: int) -> Weighting:
        return self.per_node[node]

    def __repr__(self):
        return f"WeightingCollection({len(self.per_node)} nodes)"


def collection_from_weighting(w: Weighting, tree: DecompTree) -> WeightingCollection:
    """Per-bag projections of one weighting; always sound."""
    return WeightingCollection(
        tree, {node: project_weighting(w, bag) for node, bag in tree.bags.items()}
    )


class SoundnessViolation:
    __slots__ = ("edge", "gamma", "lhs", "rhs")

    def __init__(self, edge, gamma, lhs, rhs):
        self.edge = edge
        self.gamma = gamma
        self.lhs = lhs
        self.rhs = rhs

    def __repr__(self):
        shared = ",".join(v.text for v in self.gamma)
        return f"violation at edge {self.edge} on ({shared}): {self.lhs} != {self.rhs}"


# --- the lift on integer codes --------------------------------------------------


@dataclass(frozen=True)
class AnswerColumns:
    """Answers and their masses as integer columns, rows in ``AnswerSet``
    order: ``codes[i, j]`` indexes ``dictionaries[j]``, the values of
    ``variables[j]``."""

    variables: tuple[str, ...]
    dictionaries: tuple[list[Value], ...]
    codes: np.ndarray
    masses: np.ndarray

    @classmethod
    def of_rows(cls, variables: Sequence[str], rows: Sequence[tuple[Value, ...]], masses):
        """Columns of value *rows* over *variables*, in the order given."""
        dictionaries = []
        codes = np.empty((len(rows), len(variables)), dtype=np.int32)
        for j in range(len(variables)):
            column = [row[j] for row in rows]
            values, code = _dictionary(column)
            codes[:, j] = _encode(column, code)
            dictionaries.append(values)
        return cls(tuple(variables), tuple(dictionaries), codes, np.asarray(masses, dtype=np.float64))

    def __len__(self) -> int:
        return len(self.masses)

    def rows(self) -> list[tuple[Value, ...]]:
        """The answers as value tuples."""
        columns = [
            np.array(values, dtype=object)[self.codes[:, j]].tolist()
            for j, values in enumerate(self.dictionaries)
        ]
        return list(zip(*columns)) if columns else [()] * len(self)


def _dictionary(values: Iterable[Value]) -> tuple[list[Value], dict[Value, int]]:
    """The distinct *values* in text order, and each one's code there."""
    ordered = sorted(set(values), key=_text)
    return ordered, {v: i for i, v in enumerate(ordered)}


def _encode(column: Iterable[Value], code: Mapping[Value, int]) -> np.ndarray:
    return np.fromiter(map(code.__getitem__, column), dtype=np.int32)


def _dense_ids(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Ids of the rows of two code arrays over the same columns, numbered
    in one id space in the rows' lexicographic order, and how many
    distinct rows there are.

    The columns are folded in one at a time: each (id so far, code) pair is
    packed into one integer and compacted again with ``np.unique``.  An id
    stays below the row count, so no packed key can overflow int64.
    """
    stacked = np.concatenate([a, b])
    ids = np.zeros(len(stacked), dtype=np.int64)
    distinct = 1 if len(stacked) else 0
    for column in stacked.T if len(stacked) else ():
        keys, ids = np.unique(ids * (int(column.max()) + 1) + column, return_inverse=True)
        distinct = len(keys)
    return ids[:len(a)], ids[len(a):], distinct


@dataclass(frozen=True)
class _Edge:
    """A tree edge on codes.  Separator rows have ids in text order;
    ``parent_ids`` and ``child_ids`` give each bag row's, and the
    marginals are indexed by id.  ``ratio`` is each child row's mass over
    its separator marginal, and ``dead`` marks the rows whose marginal is
    at most ``ZERO_TOL``; both end with one more entry, 0 and dead, which
    is what position -1, no child row, reads."""

    parent: int
    child: int
    shared: tuple[str, ...]
    parent_ids: np.ndarray
    child_ids: np.ndarray
    parent_marginal: np.ndarray
    child_marginal: np.ndarray
    ratio: np.ndarray
    dead: np.ndarray


class _Lift:
    """A weighting collection on integer codes, and the lift formula.

    *bags* gives each node of *tree* its projection, rows over the bag's
    variables in sorted order, and the rows' masses.
    """

    def __init__(self, tree: DecompTree, bags: Mapping[int, tuple[AnswerSet, Sequence[float]]]):
        self.tree = tree
        self.variables = tuple(sorted(frozenset().union(*tree.bags.values())))
        self.bags = {node: proj for node, (proj, _) in bags.items()}
        seen: dict[str, set[Value]] = {v: set() for v in self.variables}
        for proj in self.bags.values():
            for j, v in enumerate(proj.variables):
                seen[v].update(row[j] for row in proj.rows)
        self.dictionaries, code = {}, {}
        for v in self.variables:
            self.dictionaries[v], code[v] = _dictionary(seen[v])
        self.codes = {}
        for node, proj in self.bags.items():
            self.codes[node] = np.empty((len(proj), len(proj.variables)), dtype=np.int32)
            for j, v in enumerate(proj.variables):
                self.codes[node][:, j] = _encode((row[j] for row in proj.rows), code[v])
        self.masses = {node: np.asarray(m, dtype=np.float64) for node, (_, m) in bags.items()}
        self.edges = [self._edge(parent, child) for parent, child in sorted(tree.edges)]
        self._positions: dict[int, dict[tuple[Value, ...], int]] | None = None

    @classmethod
    def of(cls, collection: WeightingCollection) -> "_Lift":
        weightings = {node: collection[node] for node in collection.tree.bags}
        return cls(collection.tree, {
            node: (w.base, [w.values[row] for row in w.base.rows])
            for node, w in weightings.items()
        })

    def _columns(self, node: int, variables: Sequence[str]) -> np.ndarray:
        bag = self.bags[node].variables
        return self.codes[node][:, [bag.index(v) for v in variables]]

    def _edge(self, parent: int, child: int) -> _Edge:
        shared = tuple(sorted(self.tree.bags[parent] & self.tree.bags[child]))
        parent_ids, child_ids, distinct = _dense_ids(
            self._columns(parent, shared), self._columns(child, shared)
        )
        parent_marginal = np.bincount(parent_ids, self.masses[parent], distinct)
        child_marginal = np.bincount(child_ids, self.masses[child], distinct)
        denominator = np.append(child_marginal[child_ids], 0.0)
        dead = denominator <= ZERO_TOL
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.append(self.masses[child], 0.0) / denominator
        ratio[dead] = 0.0
        return _Edge(parent, child, shared, parent_ids, child_ids,
                     parent_marginal, child_marginal, ratio, dead)

    def violation(self, tol: float) -> SoundnessViolation | None:
        """The first separator row, edges in sorted order and rows in text
        order, whose two marginals differ by more than *tol*."""
        for e in self.edges:
            bad = np.flatnonzero(np.abs(e.parent_marginal - e.child_marginal) > tol)
            if not bad.size:
                continue
            g = bad[0]
            node, ids = (e.parent, e.parent_ids) if g in e.parent_ids else (e.child, e.child_ids)
            codes = self._columns(node, e.shared)[np.flatnonzero(ids == g)[0]]
            gamma = tuple(self.dictionaries[v][c] for v, c in zip(e.shared, codes.tolist()))
            return SoundnessViolation(
                (e.parent, e.child), gamma,
                float(e.parent_marginal[g]), float(e.child_marginal[g]),
            )
        return None

    def checked(self, tol: float) -> "_Lift":
        """This lift, or ``UnsoundCollectionError`` on its first violation."""
        v = self.violation(tol)
        if v is not None:
            raise UnsoundCollectionError(v.edge, v.gamma, v.lhs, v.rhs, tol)
        return self

    def masses_at(self, index: Mapping[int, np.ndarray]) -> np.ndarray:
        """The lifted mass of rows given by their position in every bag, -1
        where a row's restriction is no bag row.  The root's mass times,
        edge by edge in sorted order, the child's ratio; 0 where one
        separator marginal is at most ``ZERO_TOL`` or a restriction is
        missing."""
        root = self.tree.root
        mass = np.append(self.masses[root], 0.0)[index[root]]
        dead = np.zeros(len(mass), dtype=bool)
        for e in self.edges:
            mass *= e.ratio[index[e.child]]
            dead |= e.dead[index[e.child]]
        mass[dead] = 0.0
        return mass

    def locate(self, variables: Sequence[str], rows: Sequence[tuple]) -> dict[int, np.ndarray]:
        """The position in every bag of each value row over *variables*, -1
        where its restriction is no bag row."""
        if self._positions is None:
            self._positions = {
                node: {row: i for i, row in enumerate(proj.rows)}
                for node, proj in self.bags.items()
            }
        index = {}
        for node, proj in self.bags.items():
            get, to_bag = self._positions[node].get, projector(variables, proj.variables)
            index[node] = np.fromiter((get(to_bag(row), -1) for row in rows), dtype=np.int64)
        return index

    def join(self) -> dict[int, np.ndarray]:
        """Every answer's position in every bag, from the join of the bags:
        down the tree, each child is joined to its parent on their
        separator by sorting the child's separator ids and gathering the
        ranges ``searchsorted`` finds.

        Only the positions of nodes with children still to join are carried
        through each join.  A node set aside earlier is brought to the final
        rows at the end, through the joins made after it.
        """
        tree = self.tree
        edge_of = {e.child: e for e in self.edges}
        waiting = {node: len(tree.children[node]) for node in tree.bags}
        live = {tree.root: np.arange(len(self.masses[tree.root]))}
        aside: list[tuple[int, np.ndarray, int]] = []  # node, positions, joins before
        extends: list[np.ndarray] = []  # per join, the earlier row each row extends
        if not waiting[tree.root]:
            aside.append((tree.root, live.pop(tree.root), 0))
        for parent in tree.bfs_order():
            for child in sorted(tree.children[parent]):
                e = edge_of[child]
                keys = e.parent_ids[live[parent]]
                order = np.argsort(e.child_ids, kind="stable")
                ids = e.child_ids[order]
                low = np.searchsorted(ids, keys, "left")
                count = np.searchsorted(ids, keys, "right") - low
                step = np.repeat(np.arange(len(keys)), count)
                offset = np.arange(len(step)) - np.repeat(np.cumsum(count) - count, count)
                found = order[low[step] + offset]
                waiting[parent] -= 1
                if not waiting[parent]:
                    aside.append((parent, live.pop(parent), len(extends)))
                extends.append(step)
                for node in live:
                    live[node] = live[node][step]
                if waiting[child]:
                    live[child] = found
                else:
                    aside.append((child, found, len(extends)))

        index = {}
        later: np.ndarray | None = None  # final row -> row after the join at hand
        for joins in range(len(extends), -1, -1):
            for node, positions, made in aside:
                if made == joins:
                    index[node] = positions if later is None else positions[later]
            if joins:
                step = extends.pop()
                later = step if later is None else step[later]
        return index

    def answers(self) -> AnswerColumns:
        """The join of the bags with each row's lifted mass, in
        ``AnswerSet`` order."""
        index = self.join()
        masses = self.masses_at(index)
        top = {}
        for node in reversed(self.tree.bfs_order()):
            top.update(dict.fromkeys(self.bags[node].variables, node))
        columns = [
            self.codes[top[v]][index[top[v]], self.bags[top[v]].variables.index(v)]
            for v in self.variables
        ]
        del index
        codes = np.empty((len(masses), len(columns)), dtype=np.int32)
        if columns:
            order = np.lexsort(columns[::-1])
            masses = masses[order]
            for j in range(len(columns)):
                codes[:, j] = columns[j][order]
                columns[j] = None
        return AnswerColumns(
            self.variables, tuple(self.dictionaries[v] for v in self.variables), codes, masses
        )


def _lift_of(collection: WeightingCollection, tol: float) -> _Lift:
    if tol not in collection._lifts:
        collection._lifts[tol] = _Lift.of(collection).checked(tol)
    return collection._lifts[tol]


def check_sound(
    collection: WeightingCollection, tol: float = SOUND_TOL
) -> SoundnessViolation | None:
    """First marginal disagreement along a tree edge, or None when the
    collection is sound."""
    return _Lift.of(collection).violation(tol)


def _refuse_above_limit(count: int, instead: str) -> None:
    if count > MATERIALIZE_LIMIT:
        raise TooLargeError(
            f"{count} answers exceed the materialization guard; use {instead}"
        )


def reconstruct(
    collection: WeightingCollection,
    answers: AnswerSet,
    tol: float = SOUND_TOL,
) -> Weighting:
    """Weighting of *answers* whose per-bag projections equal the collection.

    Works on any valid tree.  Requires a collection sound up to *tol* and a
    conjunctively decomposed relation (query answer sets qualify).
    """
    _refuse_above_limit(len(answers), "reconstruct_point")
    lift = _Lift.of(collection).checked(tol)
    masses = lift.masses_at(lift.locate(answers.variables, answers.rows))
    return Weighting(answers, dict(zip(answers.rows, masses.tolist())))


def reconstruct_point(collection: WeightingCollection, alpha: Assignment) -> float:
    """Mass of one answer under the reconstruction, without materializing
    the answer set.

    The first call on a collection checks its soundness and builds the lift;
    later calls reuse it.
    """
    tree = collection.tree
    bound = dict(alpha.items())

    def row_for(variables: Iterable[str]) -> tuple[Value, ...]:
        try:
            return tuple(bound[v] for v in sorted(variables))
        except KeyError as exc:
            raise NotAnAnswerError(f"assignment misses variable {exc}") from exc

    for node, bag in tree.bags.items():
        if row_for(bag) not in collection[node].values:
            raise NotAnAnswerError(
                f"restriction to bag of node {node} is not a projection row"
            )
    lift = _lift_of(collection, SOUND_TOL)
    return float(lift.masses_at(lift.locate(alpha.variables, [alpha.values]))[0])


def lift_answers(solution, interpreted, query_key) -> AnswerColumns:
    """Per-answer weights of a solved factorized program, as columns.

    Reads the bag-variable values for *query_key* by column and enumerates
    the answers from the program's bag projections on its tree as given;
    solver drift beyond ``LIFT_TOL`` in the bag marginals is an error.
    """
    if solution.status != "optimal":
        raise ValueError(f"solution status is {solution.status!r}, need optimal")
    columns = interpreted.xi_columns[query_key]
    lift = _Lift(interpreted.trees[query_key], {
        node: (proj, solution.values(names, columns[node]))
        for node, (proj, names) in interpreted.xi[query_key].items()
    })
    return lift.checked(LIFT_TOL).answers()


def solution_to_weights(solution, interpreted, query_key, db) -> Weighting:
    """Per-answer weights from a solved factorized program.

    The ``lift_answers`` columns as a ``Weighting``.  *db* is not read: the
    answers come from the bag projections the program holds.
    """
    lifted = lift_answers(solution, interpreted, query_key)
    _refuse_above_limit(len(lifted), "lift_answers")
    rows = lifted.rows()
    return Weighting(AnswerSet(lifted.variables, rows), dict(zip(rows, lifted.masses.tolist())))
