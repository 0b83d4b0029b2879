"""Decomposition trees for quantifier-free conjunctive queries.

A decomposition tree is a rooted, bag-labeled tree whose edges point from
the root toward the leaves.  Validity demands three things: each variable's
bags form a connected subtree, the bags jointly cover the query's free
variables, and each conjunct's variable set fits inside some bag.  Equality
conjuncts between two distinct variables are covered like atoms, since the
projection machinery can only enforce them inside a bag.

``attach_target_bags`` fits a tree to the target sets of its query's
weight expressions: every target, the empty one included, becomes a bag,
which is what the factorized interpretation needs.  ``bag_projections``
computes the restriction of the query's answer set to every bag with the
classic two-phase semi-join reduction, never materializing the full answer
set.  ``heuristic_decompose`` provides a min-fill fallback when no tree is
supplied.  Trees are factorized as they stand: no step rewrites them into
the textbook normal form of leaf, extend, project and join nodes.
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    DisconnectedVariableError,
    IncompatibleTargetError,
    NotATreeError,
    ParseError,
    UncoverableVariableError,
    UncoveredAtomError,
    UncoveredVariableError,
)
from .linprog import LpBuilder, solve
from .queries import (
    AnswerSet,
    Atom,
    Equal,
    Query,
    Var,
    canonical_form,
    conjuncts,
    free_vars,
    is_quantifier_free,
    join_factors,
    prenex,
    qf,
    query_factors,
    _domain_column,
    _Factor,
)
from .relations import Database, join_keys, unique_rows


class DecompTree:
    """Rooted bag-labeled tree, optionally tied to the query it decomposes."""

    def __init__(
        self,
        root: int,
        bags: Mapping[int, Iterable[str]],
        edges: Iterable[tuple[int, int]],
        query: Query | None = None,
    ):
        self.root = root
        self.bags: dict[int, frozenset[str]] = {
            n: frozenset(bag) for n, bag in bags.items()
        }
        self.edges: list[tuple[int, int]] = [(int(p), int(c)) for p, c in edges]
        self.query = query

        self.children: dict[int, list[int]] = {n: [] for n in self.bags}
        self.parent: dict[int, int | None] = {n: None for n in self.bags}
        for p, c in self.edges:
            if p not in self.bags or c not in self.bags:
                raise NotATreeError(f"edge ({p}, {c}) references an unknown node")
            if self.parent.get(c) is not None:
                raise NotATreeError(f"node {c} has two parents")
            self.parent[c] = p
            self.children[p].append(c)
        if root not in self.bags:
            raise NotATreeError(f"root {root} is not a node")
        if self.parent[root] is not None:
            raise NotATreeError("root has a parent")

        seen = set()
        stack = [root]
        while stack:
            node = stack.pop()
            if node in seen:
                raise NotATreeError("cycle reached from the root")
            seen.add(node)
            stack.extend(self.children[node])
        if seen != set(self.bags):
            raise NotATreeError("nodes unreachable from the root")

        self._depth = {root: 0}
        for node in self.bfs_order():
            for child in self.children[node]:
                self._depth[child] = self._depth[node] + 1

    # --- traversal helpers -------------------------------------------------

    @property
    def nodes(self) -> list[int]:
        return sorted(self.bags)

    def depth(self, node: int) -> int:
        return self._depth[node]

    def bfs_order(self) -> list[int]:
        order = []
        queue = deque([self.root])
        while queue:
            node = queue.popleft()
            order.append(node)
            queue.extend(sorted(self.children[node]))
        return order

    def post_order(self) -> list[int]:
        return list(reversed(self.bfs_order()))

    def __repr__(self):
        return f"DecompTree({len(self.bags)} nodes, root={self.root})"


# --- validation ------------------------------------------------------------


def _coverage_units(q: Query) -> list[tuple[str, frozenset[str]]]:
    """Conjuncts that must fit inside a single bag: atoms, plus equalities
    between two distinct variables."""
    units = []
    for part in conjuncts(q):
        if isinstance(part, Atom):
            vars_ = frozenset(a.name for a in part.args if isinstance(a, Var))
            if vars_:
                units.append((f"{part.relation}({', '.join(sorted(vars_))})", vars_))
        elif isinstance(part, Equal):
            if isinstance(part.left, Var) and isinstance(part.right, Var):
                if part.left.name != part.right.name:
                    units.append(
                        (f"{part.left.name} == {part.right.name}",
                         frozenset({part.left.name, part.right.name}))
                    )
    return units


def validate(tree: DecompTree, q: Query) -> None:
    """Check the three decomposition invariants of *tree* against *q*."""
    if not is_quantifier_free(q):
        raise UncoveredAtomError("decompositions are defined on quantifier-free queries")
    fv = free_vars(q)

    union = set()
    for bag in tree.bags.values():
        union |= bag
    missing = fv - union
    if missing:
        raise UncoveredVariableError(f"variables {sorted(missing)} appear in no bag")
    stray = union - fv
    if stray:
        raise UncoveredVariableError(
            f"bag variables {sorted(stray)} are not free variables of the query"
        )

    for var in sorted(union):
        holders = {n for n, bag in tree.bags.items() if var in bag}
        # connected iff exactly one holder lacks a holding parent
        tops = [n for n in holders if tree.parent[n] not in holders]
        if len(tops) != 1:
            raise DisconnectedVariableError(var)

    for label, vars_ in _coverage_units(q):
        if not any(vars_ <= bag for bag in tree.bags.values()):
            raise UncoveredAtomError(f"{label} fits in no bag")


# --- widths -------------------------------------------------------------------


def fractional_bag_width(bag: Iterable[str], q: Query) -> float:
    """Minimal total weight of a fractional cover of *bag* by atoms of *q*."""
    bag = frozenset(bag)
    if not bag:
        return 0.0
    atoms = []
    for part in conjuncts(q):
        if isinstance(part, Atom):
            vars_ = frozenset(a.name for a in part.args if isinstance(a, Var))
            atoms.append(vars_)
    cover_of: dict[str, list[int]] = {v: [] for v in bag}
    for i, vars_ in enumerate(atoms):
        for v in vars_ & bag:
            cover_of[v].append(i)
    for v, owners in cover_of.items():
        if not owners:
            raise UncoverableVariableError(f"variable {v!r} occurs in no atom")

    builder = LpBuilder()
    builder.block([f"c{i}" for i in range(len(atoms))])
    for v in sorted(bag):  # -sum of the covering atoms' weights <= -1
        owners = cover_of[v]
        builder.row((0.0, owners, [-1.0] * len(owners)), "<=", (-1.0, (), ()))
    sol = solve(builder.build("minimize", (0.0, range(len(atoms)), [1.0] * len(atoms))))
    assert sol.status == "optimal"
    return sol.value


def tree_width(tree: DecompTree, q: Query) -> float:
    return max(
        (fractional_bag_width(bag, q) for bag in tree.bags.values()), default=0.0
    )


def attach_target_bags(
    tree: DecompTree, weight_targets: Iterable[Iterable[str]]
) -> DecompTree:
    """Fit *tree* to its weight targets: give every target set a bag.

    A target that equals no bag gets a new leaf under the covering node
    closest to the root (smallest id on ties).  When the empty target is
    asked for and no bag is empty, a chain of project bags goes above the
    root, dropping the root's variables in sorted order, down to an empty
    root.  New nodes take ids from ``max(bags) + 1`` on, the leaves first in
    sorted target order, then the chain; the variable names of the
    factorized program depend on them.  A no-op when every target already
    equals a bag.  Raises IncompatibleTargetError when some target fits
    inside no bag.
    """
    bags = dict(tree.bags)
    edges = list(tree.edges)
    next_id = max(bags) + 1
    existing = set(bags.values())
    targets = {frozenset(t) for t in weight_targets}
    for target in sorted(targets - existing - {frozenset()}, key=sorted):
        hosts = [n for n, bag in tree.bags.items() if target <= bag]
        if not hosts:
            raise IncompatibleTargetError(f"target set {sorted(target)!r} fits inside no bag")
        host = min(hosts, key=lambda n: (tree.depth(n), n))
        bags[next_id] = target
        edges.append((host, next_id))
        next_id += 1

    root = tree.root
    if frozenset() in targets - existing:
        cur_bag = tree.bags[root]
        for var in sorted(cur_bag):
            cur_bag = cur_bag - {var}
            bags[next_id] = cur_bag
            edges.append((next_id, root))
            root = next_id
            next_id += 1
    return DecompTree(root, bags, edges, query=tree.query)


# --- bag projections -----------------------------------------------------------


def bag_projections(q: Query, tree: DecompTree, db: Database) -> dict[int, AnswerSet]:
    """Restriction of the query's answers to every bag, as answer sets over
    the database's codes.

    Builds one local relation per bag by joining a connected factor cover:
    each factor added shares a variable with those already chosen, so the
    local join never multiplies unrelated factors.  Only a bag variable that
    no connected factor reaches brings in a disconnected factor or the whole
    domain, and only then is the join a product.  The local relation is
    filtered with every conjunct contained in the bag, then a bottom-up and a
    top-down semi-join pass runs (``np.isin`` on the separator keys); after
    both passes each node holds exactly the projection of the full answer
    set to its bag.
    """
    if not is_quantifier_free(q):
        raise UncoveredAtomError("bag projections need a quantifier-free query")
    factors = query_factors(q, db, free_vars(q))
    if factors is None:
        return {
            n: AnswerSet.from_codes(bag, np.zeros((0, len(bag)), dtype=np.int32), db.dictionary)
            for n, bag in tree.bags.items()
        }

    local: dict[int, _Factor] = {}
    for node in tree.bags:
        local[node] = _local_relation(tree.bags[node], factors, db)

    order = tree.post_order()
    for node in order:  # bottom-up
        for child in tree.children[node]:
            local[node] = _semijoin(local[node], local[child])
    for node in reversed(order):  # top-down
        for child in tree.children[node]:
            local[child] = _semijoin(local[child], local[node])

    # local relations keep their bag's variables in sorted order and their
    # rows in lexicographic order, as AnswerSet holds them; a semi-join keeps
    # a subset of the rows in their order
    return {n: AnswerSet.from_codes(local[n].vars, local[n].codes, db.dictionary)
            for n in tree.bags}


def _local_relation(bag: frozenset[str], factors: list[_Factor], db: Database) -> _Factor:
    if not bag:
        return _Factor((), np.zeros((1, 0), dtype=np.int32))
    chosen: list[_Factor] = []
    reached: set[str] = set()  # variables of the chosen factors
    uncovered = set(bag)
    pool = sorted(factors, key=lambda f: (len(f), f.vars))
    while uncovered:
        # a factor joining the chosen ones on a shared variable first, then
        # the most missing bag variables, then the fewest rows (pool order)
        best = min(
            (f for f in pool if not uncovered.isdisjoint(f.vars)),
            key=lambda f: (reached.isdisjoint(f.vars), -len(uncovered.intersection(f.vars))),
            default=None,
        )
        if best is None:
            # unconstrained bag variable: ranges over the whole domain
            var = sorted(uncovered)[0]
            best = _Factor((var,), _domain_column(db))
        chosen.append(best)
        reached.update(best.vars)
        uncovered -= reached

    joined = join_factors(list(chosen))
    bag_vars = tuple(sorted(bag))
    rel = _Factor(bag_vars, unique_rows(joined.columns(bag_vars)))

    for f in factors:
        if f in chosen:
            continue
        if set(f.vars) <= bag and f.vars:
            rel = _semijoin(rel, f)
    return rel


def _semijoin(left: _Factor, right: _Factor) -> _Factor:
    """The rows of *left* that agree with some row of *right* on their
    shared variables, in their order."""
    shared = [v for v in left.vars if v in right.vars]
    left_keys, right_keys = join_keys(left.columns(shared), right.columns(shared))
    return _Factor(left.vars, left.codes[np.isin(left_keys, right_keys)])


# --- heuristic decomposition ----------------------------------------------------


def heuristic_decompose(q: Query, targets: Iterable[Iterable[str]] = ()) -> DecompTree:
    """Min-fill elimination tree for a quantifier-free query.

    Optional *targets* are treated as cliques so each target set ends up
    inside some bag; the tree is then fitted with ``attach_target_bags``, so
    every target, the empty one included, is a bag.  No width optimality is
    guaranteed.
    """
    fv = sorted(free_vars(q))
    adj: dict[str, set[str]] = {v: set() for v in fv}
    cliques = [unit for _, unit in _coverage_units(q)]
    cliques.extend(frozenset(t) for t in targets)
    for clique in cliques:
        for a in clique:
            for b in clique:
                if a != b:
                    adj[a].add(b)

    remaining = dict(adj)
    order: list[tuple[str, frozenset[str]]] = []
    while remaining:
        best = None
        best_cost = None
        for v in sorted(remaining):
            nbrs = sorted(remaining[v])
            cost = sum(
                1
                for i in range(len(nbrs))
                for j in range(i + 1, len(nbrs))
                if nbrs[j] not in remaining[nbrs[i]]
            )
            if best_cost is None or cost < best_cost:
                best_cost = cost
                best = v
        nbrs = frozenset(remaining[best])
        order.append((best, nbrs))
        for a in nbrs:
            remaining[a] |= nbrs - {a}
            remaining[a].discard(best)
        del remaining[best]

    eliminated_at = {v: i for i, (v, _) in enumerate(order)}
    bags: dict[int, frozenset[str]] = {}
    edges: list[tuple[int, int]] = []
    roots: list[int] = []
    for i, (v, nbrs) in enumerate(order):
        bags[i] = nbrs | {v}
        if nbrs:
            parent = min(eliminated_at[w] for w in nbrs)
            edges.append((parent, i))
        else:
            roots.append(i)

    if not bags:
        tree = DecompTree(0, {0: frozenset()}, [], query=q)
        return attach_target_bags(tree, targets)

    if len(roots) == 1:
        root = roots[0]
    else:
        root = max(bags) + 1
        bags[root] = frozenset()
        edges.extend((root, r) for r in roots)

    tree = DecompTree(root, bags, edges, query=q)
    tree = _absorb_subset_bags(tree)
    return attach_target_bags(tree, targets)


def _absorb_subset_bags(tree: DecompTree) -> DecompTree:
    """Contract edges whose bags are nested; keeps the decomposition valid."""
    bags = dict(tree.bags)
    children = {n: list(ks) for n, ks in tree.children.items()}
    parent = dict(tree.parent)
    root = tree.root

    def drop(node: int, into: int):
        children[into].remove(node)
        children[into].extend(children[node])
        for c in children[node]:
            parent[c] = into
        del children[node]
        del bags[node]
        del parent[node]

    changed = True
    while changed:
        changed = False
        for p in sorted(children):
            for c in list(children.get(p, ())):
                if c not in bags or p not in bags:
                    continue
                if bags[c] <= bags[p]:
                    drop(c, p)
                    changed = True
                elif bags[p] < bags[c]:
                    # child swallows parent: move child into parent's place
                    children[p].remove(c)
                    children[c].extend(children[p])
                    for s in children[p]:
                        parent[s] = c
                    gp = parent[p]
                    if gp is None:
                        root = c
                        parent[c] = None
                    else:
                        children[gp][children[gp].index(p)] = c
                        parent[c] = gp
                    del children[p]
                    del bags[p]
                    del parent[p]
                    changed = True
                if changed:
                    break
            if changed:
                break
    edges = [(p, c) for p, kids in children.items() for c in kids]
    return DecompTree(root, bags, edges, query=tree.query)


# --- JSON interchange ------------------------------------------------------------


def tree_to_dict(tree: DecompTree) -> dict:
    from .queries import format_query

    out = {
        "root": tree.root,
        "nodes": [{"id": n, "bag": sorted(tree.bags[n])} for n in tree.nodes],
        "edges": [[p, c] for p, c in sorted(tree.edges)],
    }
    if tree.query is not None:
        out["query"] = format_query(tree.query)
    return out


def save_decompositions(trees: Sequence[DecompTree], path: str | Path) -> None:
    payload = [tree_to_dict(t) for t in trees]
    Path(path).write_text(json.dumps(payload if len(payload) != 1 else payload[0], indent=2))


def load_decompositions(path: str | Path) -> list[DecompTree]:
    """Trees of a JSON file holding one tree object or a list of them.

    Raises ParseError naming the file when it is not UTF-8 JSON of that
    shape, among others when a tree gives a node id twice or a bag that is
    not a list of strings, or when its edges do not form a tree rooted at
    its root (the message names the tree's index in the file), and OSError
    when it cannot be read.
    """
    from .queries import parse_query

    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
        if isinstance(raw, dict):
            raw = [raw]
        trees = []
        for entry in raw:
            bags = {}
            for n in entry["nodes"]:
                node, bag = int(n["id"]), n["bag"]
                if node in bags:
                    raise ParseError(f"{path}: node {node} is given twice")
                if not (isinstance(bag, list) and all(isinstance(v, str) for v in bag)):
                    raise ParseError(f"{path}: the bag of node {node} is not a list of strings")
                bags[node] = bag
            edges = [(int(p), int(c)) for p, c in entry.get("edges", [])]
            query = parse_query(entry["query"]) if "query" in entry else None
            try:
                trees.append(DecompTree(int(entry["root"]), bags, edges, query=query))
            except NotATreeError as exc:
                raise ParseError(f"{path}: tree {len(trees)}: {exc}") from exc
    except KeyError as exc:
        raise ParseError(f"{path}: decomposition misses field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: not a decomposition file: {exc}") from exc
    return trees


def match_tree_to_query(tree: DecompTree, target: Query) -> DecompTree | None:
    """Rekey a loaded tree onto *target* when its query is alpha-equivalent.

    Free variables must match by name; bound variables are aligned
    positionally.  The tree's declared query may be the quantified original,
    the bare quantifier-free body, or the full quantifier-free rewrite.  The
    returned tree is keyed by ``qf(target)`` with bags renamed to its
    variable names.
    """
    if tree.query is None:
        return None
    target_qf = qf(target)

    # quantified-vs-quantified, aligned through positional placeholders
    canon_c, map_c = canonical_form(tree.query)
    canon_t, _ = canonical_form(target)
    if map_c and canon_c == canon_t:
        prefix, _body = prenex(target)  # names as they appear in qf(target)
        qf_names = {f"__b{i}": name for i, name in enumerate(prefix)}
        rename = {map_c[ph]: qf_names[ph] for ph in map_c}
        bags = {
            n: frozenset(rename.get(v, v) for v in bag)
            for n, bag in tree.bags.items()
        }
        return DecompTree(tree.root, bags, tree.edges, query=target_qf)

    # quantifier-free declarations must match by exact variable names
    if qf(tree.query) == target_qf:
        return DecompTree(tree.root, tree.bags, tree.edges, query=target_qf)
    if tree.query == prenex(target)[1]:
        return DecompTree(tree.root, tree.bags, tree.edges, query=target_qf)
    return None
