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

The lift runs on integer codes (``_Lift``): each bag is its projection's
``(n, k)`` array of codes, read as it is when the projections share a
dictionary (those of one database do; codes follow text order, so
comparing codes compares texts), and a vector of masses.  A separator
marginal is an ``np.bincount`` over separator keys, which adds in row
order as ``project_weighting`` does.  Keys over several columns are
compacted one column at a time (``relations.key_ids``), so no key
overflows int64, whatever the dictionary size.
``check_sound``, ``reconstruct``, ``reconstruct_point`` and ``lift_answers``
share this kernel, so the formula above is written once (``_Lift.masses_at``).

``lift_answers`` is the one reader of per-answer weights from a solved
program, in every mode, and ``solution_to_weights`` wraps its columns in a
``Weighting``.  A natural or replacement query's θ block is read as a
one-bag tree, whose lift is the θ values.  A factorized query is lifted
without evaluating it again: the answers are enumerated from the bag
projections the program was built from.  After the two semi-join passes of
``bag_projections``, each bag holds exactly the projection of the answer
set.  The bags cover every free variable, and every atom and variable
equality lies inside one bag, so the join of the bags is exactly the
answer set.  Each variable's bags form a connected subtree, so joining
every child to its parent on their separator, down the tree, computes that
join (the join phase of Yannakakis, VLDB 1981).  Every partial row extends
to an answer, so no intermediate is larger than the output (Olteanu and
Závodný, TODS 2015); each bag's row positions are carried in the smallest
integer type that holds its row count.  The rows are put in ``AnswerSet``
order with ``np.lexsort`` on the codes, and each row's mass is the product
above, edges in sorted order and multiplied left to right, as
``reconstruct`` computes it.  The bag-variable values form a sound collection (up to solver
tolerance), and the lifted weights are feasible for the answer-variable
formulation at the same objective value.  ``solution_to_weights`` and
``reconstruct`` refuse more than ``MATERIALIZE_LIMIT`` answers;
``lift_answers`` has no limit.
"""

from __future__ import annotations

from dataclasses import dataclass
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
from .queries import AnswerSet, evaluate  # noqa: F401
from .relations import Assignment, Dictionary, Value, key_ids, match

ZERO_TOL = 1e-12
SOUND_TOL = 1e-7
# marginal disagreement a solved factorized program may show from solver
# drift and still be lifted
LIFT_TOL = 1e-5
MATERIALIZE_LIMIT = 10**6


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
    lift is kept, so later points cost one row each, and a weighting
    changed afterwards is not seen by them.
    """

    def __init__(self, tree: DecompTree, per_node: Mapping[int, Weighting]):
        self.tree = tree
        self.per_node = dict(per_node)
        self._lift: _Lift | None = None
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
    order: ``codes[i, j]`` is the code of row i's value of ``variables[j]``
    in ``dictionary``."""

    variables: tuple[str, ...]
    dictionary: Dictionary
    codes: np.ndarray
    masses: np.ndarray

    def __len__(self) -> int:
        return len(self.masses)

    def rows(self) -> list[tuple[Value, ...]]:
        """The answers as value tuples."""
        return self.dictionary.decode(self.codes)


def _index_dtype(count: int) -> np.dtype:
    """The smallest signed integer type holding every position below
    *count*, and -1."""
    return np.min_scalar_type(-max(count, 1))


def _common_codes(sets: Sequence[AnswerSet]) -> tuple[Dictionary, list[np.ndarray]]:
    """The code arrays of answer sets over one dictionary: theirs when they
    share one, as those of a database's queries do, else the union of
    theirs."""
    dictionaries = {id(s.dictionary): s.dictionary for s in sets}
    if len(dictionaries) == 1:
        return sets[0].dictionary, [s.codes for s in sets]
    union = Dictionary(v for d in dictionaries.values() for v in d.values.tolist())
    return union, [union.recode(s.dictionary)[s.codes] for s in sets]


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
    variables in sorted order, and the rows' masses.  The lift reads the
    projections' codes as they are when they share a dictionary.
    """

    def __init__(self, tree: DecompTree, bags: Mapping[int, tuple[AnswerSet, Sequence[float]]]):
        self.tree = tree
        self.variables = tuple(sorted(frozenset().union(*tree.bags.values())))
        self.bags = {node: proj for node, (proj, _) in bags.items()}
        self.dictionary, codes = _common_codes(list(self.bags.values()))
        self.codes = dict(zip(self.bags, codes))
        self.masses = {node: np.asarray(m, dtype=np.float64) for node, (_, m) in bags.items()}
        self.edges = [self._edge(parent, child) for parent, child in sorted(tree.edges)]

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
        (parent_ids, child_ids), distinct = key_ids(
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
            gamma = tuple(self.dictionary.values[codes].tolist())
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

    def locate(self, variables: Sequence[str], codes: np.ndarray) -> dict[int, np.ndarray]:
        """The position in every bag of each row of *codes*, codes into this
        lift's dictionary over *variables*, -1 where its restriction is no
        bag row.  A code of -1, a value outside the dictionary, matches no
        row; every code is shifted up by one so that it keys apart."""
        index = {}
        for node, proj in self.bags.items():
            columns = [variables.index(v) for v in proj.variables]
            (row_ids, bag_ids), count = key_ids(codes[:, columns] + 1, self.codes[node] + 1)
            position = np.full(count, -1, dtype=np.int64)
            position[bag_ids] = np.arange(len(bag_ids))
            index[node] = position[row_ids]
        return index

    def join(self) -> dict[int, np.ndarray]:
        """Every answer's position in every bag, from the join of the bags:
        down the tree, each child is joined to its parent on their
        separator (``relations.match``).

        Only the positions of nodes with children still to join are carried
        through each join, each in the smallest integer type that holds its
        bag's row count.  A node set aside earlier is brought to the final
        rows at the end, through the joins made after it.
        """
        tree = self.tree
        edge_of = {e.child: e for e in self.edges}
        waiting = {node: len(tree.children[node]) for node in tree.bags}
        size = {node: len(m) for node, m in self.masses.items()}
        live = {tree.root: np.arange(size[tree.root], dtype=_index_dtype(size[tree.root]))}
        aside: list[tuple[int, np.ndarray, int]] = []  # node, positions, joins before
        extends: list[np.ndarray] = []  # per join, the earlier row each row extends
        if not waiting[tree.root]:
            aside.append((tree.root, live.pop(tree.root), 0))
        for parent in tree.bfs_order():
            for child in sorted(tree.children[parent]):
                e = edge_of[child]
                keys = e.parent_ids[live[parent]]
                step, found = match(keys, e.child_ids)
                step = step.astype(_index_dtype(len(keys)))
                found = found.astype(_index_dtype(size[child]))
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
        return AnswerColumns(self.variables, self.dictionary, codes, masses)


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
    codes = answers.codes
    if answers.dictionary is not lift.dictionary:
        codes = lift.dictionary.recode(answers.dictionary)[codes]
    masses = lift.masses_at(lift.locate(answers.variables, codes))
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
    if collection._lift is None:
        collection._lift = _Lift.of(collection).checked(SOUND_TOL)
    lift = collection._lift
    codes = [lift.dictionary.code(v) for v in alpha.values]
    row = np.array([[-1 if c is None else c for c in codes]], dtype=np.int64)
    return float(lift.masses_at(lift.locate(alpha.variables, row))[0])


def lift_answers(solution, interpreted, query_key) -> AnswerColumns:
    """Per-answer weights of a solved program for *query_key*, as columns,
    in every mode.

    A factorized query's answers are enumerated from the program's bag
    projections on its tree as given, and solver drift beyond ``LIFT_TOL``
    in the bag marginals is an error.  A natural or replacement query's θ
    block is read as a one-bag tree, whose lift is the θ values.
    """
    if solution.status != "optimal":
        raise ValueError(f"solution status is {solution.status!r}, need optimal")
    if query_key in interpreted.trees:
        tree, blocks = interpreted.trees[query_key], interpreted.xi[query_key]
    else:
        theta = interpreted.theta[query_key]
        tree, blocks = DecompTree(0, {0: theta.rows.variables}, ()), {0: theta}
    lift = _Lift(tree, {
        node: (block.rows, solution.values(block.columns)) for node, block in blocks.items()
    })
    return lift.checked(LIFT_TOL).answers()


def solution_to_weights(solution, interpreted, query_key, db) -> Weighting:
    """Per-answer weights from a solved program, in every mode.

    The ``lift_answers`` columns as a ``Weighting``.  *db* is not read: the
    answers come from the blocks the program holds.
    """
    lifted = lift_answers(solution, interpreted, query_key)
    _refuse_above_limit(len(lifted), "lift_answers")
    answers = AnswerSet.from_codes(lifted.variables, lifted.codes, lifted.dictionary)
    return Weighting(answers, dict(zip(answers.rows, lifted.masses.tolist())))
