"""Weightings over answer sets and their reconstruction from bag marginals.

A weighting assigns a nonnegative mass to every row of an answer set.
Projecting a weighting onto a variable subset sums masses over extension
classes and preserves total mass.  A *weighting collection* holds one
weighting per node of a decomposition tree; it is *sound* when adjacent
nodes agree on their shared-variable marginals.

The centerpiece is ``reconstruct``: given a sound collection on a
normalized tree whose underlying relation is conjunctively decomposed (true
for answer sets of quantifier-free queries), it builds a weighting of the
full relation whose per-bag projections are exactly the collection.  The
construction is a single bottom-up pass with multiplicative corrections at
extend and join nodes; near-zero denominators route to the zero branch
deterministically (threshold 1e-12).  ``reconstruct_point`` evaluates the
same function at one row without materializing anything.

``solution_to_weights`` applies this to a solved factorized program: the
bag-variable values form a sound collection (up to solver tolerance), and
reconstruction lifts them to per-answer weights that are feasible for the
answer-variable formulation at the same objective value.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .decomp import DecompTree, normalize
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
    """One weighting per tree node, each over the bag's projection."""

    def __init__(self, tree: DecompTree, per_node: Mapping[int, Weighting]):
        self.tree = tree
        self.per_node = dict(per_node)
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


def check_sound(
    collection: WeightingCollection,
    tol: float = SOUND_TOL,
    pairwise: bool = False,
) -> SoundnessViolation | None:
    """First marginal disagreement, or None when the collection is sound.

    Edge-wise by default, which is what the construction and the factorized
    program's constraints use; ``pairwise`` additionally checks every node
    pair (strict mode).
    """
    tree = collection.tree
    if pairwise:
        nodes = sorted(tree.bags)
        pairs = [(u, v) for i, u in enumerate(nodes) for v in nodes[i + 1:]]
    else:
        pairs = sorted(tree.edges)
    for u, v in pairs:
        shared = tree.bags[u] & tree.bags[v]
        left = project_weighting(collection[u], shared)
        right = project_weighting(collection[v], shared)
        keys = set(left.values) | set(right.values)
        for gamma in sorted(keys, key=lambda row: tuple(x.text for x in row)):
            lhs = left.values.get(gamma, 0.0)
            rhs = right.values.get(gamma, 0.0)
            if abs(lhs - rhs) > tol:
                return SoundnessViolation((u, v), gamma, lhs, rhs)
    return None


def reconstruct(
    collection: WeightingCollection,
    answers: AnswerSet,
    debug: bool = False,
    tol: float = SOUND_TOL,
) -> Weighting:
    """Weighting of *answers* whose per-bag projections equal the collection.

    Requires a normalized tree, a collection sound up to *tol*, and a
    conjunctively decomposed relation (query answer sets qualify).  ``debug``
    additionally verifies that every intermediate weighting is the
    projection of the final one, which is quadratic and meant for tests.
    """
    tree = collection.tree
    if not tree.is_normalized():
        raise ValueError("reconstruct needs a normalized tree; normalize() first")
    if len(answers) > MATERIALIZE_LIMIT:
        raise TooLargeError(
            f"{len(answers)} answers exceed the materialization guard; "
            "use reconstruct_point"
        )
    violation = check_sound(collection, tol)
    if violation is not None:
        raise UnsoundCollectionError(
            violation.edge, violation.gamma, violation.lhs, violation.rhs, tol
        )

    down = tree.down_vars()
    down_sets: dict[int, AnswerSet] = {
        node: answers.restrict(down[node]) for node in tree.bags
    }
    omega: dict[int, dict[tuple[Value, ...], float]] = {}

    for node in tree.post_order():
        kind = tree.classify(node)
        base = down_sets[node]
        rows = base.rows
        values: dict[tuple[Value, ...], float] = {}
        if kind.kind == "leaf":
            w = collection[node]
            for row in rows:
                values[row] = w.values[row]
        elif kind.kind == "project":
            (child,) = tree.children[node]
            values = omega[child]
        elif kind.kind == "extend":
            (child,) = tree.children[node]
            to_bag = projector(base.variables, sorted(tree.bags[node]))
            to_child_bag = projector(base.variables, sorted(tree.bags[child]))
            to_child_down = projector(base.variables, sorted(down[child]))
            bag_w = collection[node].values
            child_bag_w = collection[child].values
            child_omega = omega[child]
            for row in rows:
                denom = child_bag_w.get(to_child_bag(row), 0.0)
                if denom > ZERO_TOL:
                    values[row] = (
                        bag_w.get(to_bag(row), 0.0)
                        / denom
                        * child_omega[to_child_down(row)]
                    )
                else:
                    values[row] = 0.0
        else:  # join
            kids = tree.children[node]
            to_bag = projector(base.variables, sorted(tree.bags[node]))
            kid_proj = [(k, projector(base.variables, sorted(down[k]))) for k in kids]
            bag_w = collection[node].values
            k = len(kids)
            for row in rows:
                mass = bag_w.get(to_bag(row), 0.0)
                if mass > ZERO_TOL:
                    prod = 1.0
                    for kid, proj in kid_proj:
                        prod *= omega[kid][proj(row)]
                    values[row] = prod / mass ** (k - 1)
                else:
                    values[row] = 0.0
        omega[node] = values

    result = Weighting(down_sets[tree.root], omega[tree.root])
    if debug:
        for node in tree.bags:
            expected = project_weighting(result, down[node])
            for row, mass in omega[node].items():
                if abs(expected.values[row] - mass) > 1e-6:
                    raise AssertionError(
                        f"node {node}: intermediate weight {mass} vs projection "
                        f"{expected.values[row]}"
                    )
    return result


def reconstruct_point(collection: WeightingCollection, alpha: Assignment) -> float:
    """Mass of one answer under the reconstruction, via a root-to-leaf walk."""
    tree = collection.tree
    if not tree.is_normalized():
        raise ValueError("reconstruct_point needs a normalized tree; normalize() first")
    bound = dict(alpha.items())

    def row_for(node: int, variables: Iterable[str]) -> tuple[Value, ...]:
        try:
            return tuple(bound[v] for v in sorted(variables))
        except KeyError as exc:
            raise NotAnAnswerError(f"assignment misses variable {exc}") from exc

    for node, bag in tree.bags.items():
        if row_for(node, bag) not in collection[node].values:
            raise NotAnAnswerError(
                f"restriction to bag of node {node} is not a projection row"
            )

    def value(node: int) -> float:
        kind = tree.classify(node)
        if kind.kind == "leaf":
            return collection[node].values[row_for(node, tree.bags[node])]
        if kind.kind == "project":
            (child,) = tree.children[node]
            return value(child)
        if kind.kind == "extend":
            (child,) = tree.children[node]
            denom = collection[child].values.get(row_for(child, tree.bags[child]), 0.0)
            if denom <= ZERO_TOL:
                return 0.0
            return (
                collection[node].values.get(row_for(node, tree.bags[node]), 0.0)
                / denom
                * value(child)
            )
        kids = tree.children[node]
        mass = collection[node].values.get(row_for(node, tree.bags[node]), 0.0)
        if mass <= ZERO_TOL:
            return 0.0
        prod = 1.0
        for kid in kids:
            prod *= value(kid)
        return prod / mass ** (len(kids) - 1)

    return value(tree.root)


def transport_collection(
    collection: WeightingCollection, normalized: DecompTree
) -> WeightingCollection:
    """Carry a collection from a tree onto its normalized form.

    Each normalized node's bag sits inside the bag of its recorded source
    node, so its weighting is that source's projection; edge soundness
    transfers because projections commute.
    """
    per_node = {}
    for node, bag in normalized.bags.items():
        src = normalized.source[node]
        per_node[node] = project_weighting(collection[src], bag)
    return WeightingCollection(normalized, per_node)


def solution_to_weights(solution, interpreted, query_key, db: Database) -> Weighting:
    """Per-answer weights from a solved factorized program.

    Reads the bag-variable values for *query_key* and reconstructs over the
    full answer set; solver drift beyond ``LIFT_TOL`` in the bag marginals is
    an error.
    """
    if solution.status != "optimal":
        raise ValueError(f"solution status is {solution.status!r}, need optimal")
    tree = interpreted.trees[query_key]
    entries = interpreted.xi[query_key]
    per_node = {}
    for node, (proj, names) in entries.items():
        per_node[node] = Weighting(
            proj,
            {
                row: max(0.0, solution.assignment.get(name, 0.0))
                for row, name in zip(proj.rows, names)
            },
        )
    collection = WeightingCollection(tree, per_node)

    if not tree.is_normalized():
        collection = transport_collection(collection, normalize(tree))

    answers = evaluate(query_key[1], db)
    return reconstruct(collection, answers, tol=LIFT_TOL)
