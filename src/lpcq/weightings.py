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

``solution_to_weights`` applies this to a solved factorized program: the
bag-variable values form a sound collection (up to solver tolerance), and
reconstruction lifts them to per-answer weights that are feasible for the
answer-variable formulation at the same objective value.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping

from .decomp import DecompTree
from .errors import (
    BadSubsetError,
    NotAnAnswerError,
    TooLargeError,
    UnsoundCollectionError,
)
from .queries import AnswerSet, evaluate, projector
from .relations import Assignment, Database, Value

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
    lift is kept per variable order and tolerance, so later points cost one
    row each, and a weighting changed afterwards is not seen by them.
    """

    def __init__(self, tree: DecompTree, per_node: Mapping[int, Weighting]):
        self.tree = tree
        self.per_node = dict(per_node)
        self._lifts: dict[tuple[tuple[str, ...], float], Callable] = {}
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


def _separator_marginals(collection: WeightingCollection) -> list:
    """Per tree edge (parent, child), in sorted order: the edge, its
    separator, and the parent's and the child's marginals on it."""
    tree = collection.tree
    out = []
    for u, v in sorted(tree.edges):
        shared = tree.bags[u] & tree.bags[v]
        out.append((
            (u, v),
            shared,
            project_weighting(collection[u], shared).values,
            project_weighting(collection[v], shared).values,
        ))
    return out


def _first_violation(marginals, tol: float) -> SoundnessViolation | None:
    for edge, _, left, right in marginals:
        for gamma in sorted(set(left) | set(right), key=lambda row: tuple(x.text for x in row)):
            lhs = left.get(gamma, 0.0)
            rhs = right.get(gamma, 0.0)
            if abs(lhs - rhs) > tol:
                return SoundnessViolation(edge, gamma, lhs, rhs)
    return None


def check_sound(
    collection: WeightingCollection, tol: float = SOUND_TOL
) -> SoundnessViolation | None:
    """First marginal disagreement along a tree edge, or None when the
    collection is sound."""
    return _first_violation(_separator_marginals(collection), tol)


def _lift(
    collection: WeightingCollection, variables: tuple[str, ...], tol: float
) -> Callable[[tuple[Value, ...]], float]:
    """Function giving the reconstructed mass of a row over *variables*.

    Each edge contributes the child bag's mass divided by the child's
    marginal on the separator; a separator marginal at or below ``ZERO_TOL``
    makes the row's mass 0.  Each marginal is tested on its own, never
    their product, which could underflow.  The soundness check and the lift
    share one projection of each bag per edge.
    """
    marginals = _separator_marginals(collection)
    violation = _first_violation(marginals, tol)
    if violation is not None:
        raise UnsoundCollectionError(
            violation.edge, violation.gamma, violation.lhs, violation.rhs, tol
        )
    tree = collection.tree
    to_root = projector(variables, sorted(tree.bags[tree.root]))
    root_mass = collection[tree.root].values
    edges = []
    for (_, child), shared, _, sep_mass in marginals:
        edges.append((
            projector(variables, sorted(tree.bags[child])),
            collection[child].values,
            projector(variables, sorted(shared)),
            sep_mass,
        ))

    def mass(row: tuple[Value, ...]) -> float:
        value = root_mass.get(to_root(row), 0.0)
        for to_bag, bag_mass, to_sep, sep_mass in edges:
            denom = sep_mass.get(to_sep(row), 0.0)
            if denom <= ZERO_TOL:
                return 0.0
            value *= bag_mass.get(to_bag(row), 0.0) / denom
        return value

    return mass


def reconstruct(
    collection: WeightingCollection,
    answers: AnswerSet,
    tol: float = SOUND_TOL,
) -> Weighting:
    """Weighting of *answers* whose per-bag projections equal the collection.

    Works on any valid tree.  Requires a collection sound up to *tol* and a
    conjunctively decomposed relation (query answer sets qualify).
    """
    if len(answers) > MATERIALIZE_LIMIT:
        raise TooLargeError(
            f"{len(answers)} answers exceed the materialization guard; "
            "use reconstruct_point"
        )
    mass = _lift(collection, answers.variables, tol)
    return Weighting(answers, {row: mass(row) for row in answers.rows})


def reconstruct_point(collection: WeightingCollection, alpha: Assignment) -> float:
    """Mass of one answer under the reconstruction, without materializing
    the answer set.

    The first call on a collection checks its soundness and builds the lift;
    later calls over the same variables reuse it.
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
    variables = tuple(sorted(bound))
    key = (variables, SOUND_TOL)
    if key not in collection._lifts:
        collection._lifts[key] = _lift(collection, variables, SOUND_TOL)
    return collection._lifts[key](row_for(variables))


def solution_to_weights(solution, interpreted, query_key, db: Database) -> Weighting:
    """Per-answer weights from a solved factorized program.

    Reads the bag-variable values for *query_key* by column and
    reconstructs over the full answer set on the program's tree as given;
    solver drift beyond ``LIFT_TOL`` in the bag marginals is an error.
    """
    if solution.status != "optimal":
        raise ValueError(f"solution status is {solution.status!r}, need optimal")
    tree = interpreted.trees[query_key]
    columns = interpreted.xi_columns[query_key]
    per_node = {
        node: Weighting(proj, dict(zip(proj.rows, solution.values(names, columns[node]))))
        for node, (proj, names) in interpreted.xi[query_key].items()
    }
    collection = WeightingCollection(tree, per_node)
    answers = evaluate(query_key[1], db)
    return reconstruct(collection, answers, tol=LIFT_TOL)
