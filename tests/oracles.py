"""Independent reference implementations used as test oracles.

Everything here is deliberately naive: brute-force enumeration over the
domain for query answers, vertex enumeration for linear programs, a natural
join of assignment sets, a brute-force test of conjunctive decomposition,
and ``dict_assembly``, which builds an interpretation's LP row by row as
``{name: coefficient}`` dicts.  The decomposition test and the dict
assembly read answer sets through the production ``AnswerSet.restrict`` and
``group_by``, and the dict assembly names variables with the production
``VarNaming``, so it checks the compilation to columns and nothing before
it; the rest shares no code with the paths it checks.

``normalize`` rewrites a tree into the textbook normal form, which no solve
path uses: the tests take normalized trees as extra input shapes.

``dict_lift`` is the lift as lpcq computed it before it ran on integer
codes: separator marginals from ``project_weighting``, and one row's mass
through dict lookups.  ``weights_csv`` writes a weights file the old way,
evaluating the answers again and writing every row through ``csv.writer``.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from lpcq.decomp import DecompTree, bag_projections
from lpcq.errors import TooLargeError, UnknownVariableError
from lpcq.interpret import VarNaming
from lpcq.language import ClosedProgram, ClosedSum
from lpcq.linprog import SparseLp
from lpcq.queries import (
    And,
    AnswerSet,
    Atom,
    Equal,
    Exists,
    Query,
    TrueQuery,
    Var,
    evaluate,
    free_vars,
)
from lpcq.relations import Assignment, Database, Value
from lpcq.weightings import (
    LIFT_TOL,
    ZERO_TOL,
    SoundnessViolation,
    Weighting,
    WeightingCollection,
    project_weighting,
)


def projector(
    from_vars: Sequence[str], to_vars: Iterable[str]
) -> Callable[[tuple], tuple[Value, ...]]:
    """Function taking a value row over *from_vars* to the tuple of its
    values on *to_vars*, in the order given: a 1-tuple for one variable and
    () for none."""
    idx = [from_vars.index(v) for v in to_vars]
    if len(idx) > 1:
        return itemgetter(*idx)
    if idx:
        (i,) = idx
        return lambda row: (row[i],)
    return lambda row: ()


def satisfies(q: Query, db: Database, binding: dict[str, Value]) -> bool:
    """Direct recursive satisfaction check of a query under a total binding."""
    if isinstance(q, TrueQuery):
        return True
    if isinstance(q, Equal):
        return _eval_expr(q.left, binding) is _eval_expr(q.right, binding)
    if isinstance(q, Atom):
        rel = db.relation(q.relation)
        row = tuple(_eval_expr(a, binding) for a in q.args)
        return rel is not None and row in rel.tuples
    if isinstance(q, And):
        return satisfies(q.left, db, binding) and satisfies(q.right, db, binding)
    if isinstance(q, Exists):
        for d in db.domain:
            inner = dict(binding)
            inner[q.var] = d
            if satisfies(q.body, db, inner):
                return True
        return False
    raise TypeError(q)


def _eval_expr(e, binding):
    if isinstance(e, Var):
        return binding[e.name]
    return e.value


def brute_force_answers(q: Query, db: Database, variables: Iterable[str] | None = None) -> set[Assignment]:
    """Enumerate domain^X and keep the satisfying assignments."""
    X = sorted(set(variables) if variables is not None else free_vars(q))
    domain = db.sorted_domain()
    out = set()
    for combo in itertools.product(domain, repeat=len(X)):
        binding = dict(zip(X, combo))
        if satisfies(q, db, binding):
            out.add(Assignment.of(binding))
    return out


def vertex_enumeration_optimum(
    sense: str,
    objective: dict[str, float],
    obj_const: float,
    constraints: list[tuple[dict[str, float], str, float]],
    variables: list[str],
    tol: float = 1e-9,
):
    """Optimum of a small LP over nonnegative variables by vertex enumeration.

    Constraints are (coeffs, rel, rhs) with rel in {"<=", "="}.  Returns
    (value, point) for bounded feasible programs, None when infeasible, and
    raises if every vertex scan hints at unboundedness (callers only use this
    on programs they know are bounded).
    """
    n = len(variables)
    rows = []
    rhs = []
    kinds = []  # "eq" rows always active
    for coeffs, rel, b in constraints:
        rows.append([coeffs.get(v, 0.0) for v in variables])
        rhs.append(b)
        kinds.append("eq" if rel in ("=", "==") else "ineq")
    for i in range(n):  # x_i >= 0 as -x_i <= 0
        row = [0.0] * n
        row[i] = -1.0
        rows.append(row)
        rhs.append(0.0)
        kinds.append("ineq")
    A = np.array(rows, dtype=float)
    b = np.array(rhs, dtype=float)
    m = len(rows)
    eq_idx = [i for i, k in enumerate(kinds) if k == "eq"]

    c = np.array([objective.get(v, 0.0) for v in variables])
    best = None
    best_point = None
    for combo in itertools.combinations(range(m), n):
        if any(i not in combo for i in eq_idx):
            continue
        sub = A[list(combo)]
        if abs(np.linalg.det(sub)) < tol:
            continue
        x = np.linalg.solve(sub, b[list(combo)])
        slack = A @ x - b
        feasible = True
        for i in range(m):
            if kinds[i] == "eq":
                if abs(slack[i]) > 1e-7:
                    feasible = False
                    break
            elif slack[i] > 1e-7:
                feasible = False
                break
        if not feasible:
            continue
        val = float(c @ x) + obj_const
        key = val if sense == "maximize" else -val
        if best is None or key > best:
            best = key
            best_point = dict(zip(variables, (float(t) for t in x)))
    if best is None:
        return None
    value = best if sense == "maximize" else -best
    return value, best_point


def _variable_set(assignments: Iterable[Assignment], declared) -> frozenset[str]:
    if declared is not None:
        return frozenset(declared)
    for a in assignments:
        return frozenset(a.variables)
    return frozenset()


def join_assignment_sets(
    a1: Iterable[Assignment],
    a2: Iterable[Assignment],
    vars1: Iterable[str] | None = None,
    vars2: Iterable[str] | None = None,
) -> set[Assignment]:
    """Natural join of two homogeneous assignment sets.

    The result contains exactly the unions of pairs agreeing on the shared
    variables.  Variable sets are taken from the elements unless passed
    explicitly (needed to disambiguate empty inputs).
    """
    a1 = list(a1)
    a2 = list(a2)
    x1 = _variable_set(a1, vars1)
    x2 = _variable_set(a2, vars2)
    for a in a1:
        if frozenset(a.variables) != x1:
            raise UnknownVariableError("left operand is not homogeneous")
    for a in a2:
        if frozenset(a.variables) != x2:
            raise UnknownVariableError("right operand is not homogeneous")

    shared = sorted(x1 & x2)
    buckets: dict[tuple[Value, ...], list[Assignment]] = {}
    for b in a2:
        key = tuple(b[v] for v in shared)
        buckets.setdefault(key, []).append(b)

    out: set[Assignment] = set()
    for a in a1:
        key = tuple(a[v] for v in shared)
        for b in buckets.get(key, ()):
            merged = a.union(b)
            if merged is not None:
                out.add(merged)
    return out


def down_vars(tree: DecompTree) -> dict[int, frozenset[str]]:
    """Union of the bags in each node's subtree."""
    out: dict[int, frozenset[str]] = {}
    for node in tree.post_order():
        acc = set(tree.bags[node])
        for child in tree.children[node]:
            acc |= out[child]
        out[node] = frozenset(acc)
    return out


def check_conj_decomposed(
    answers: AnswerSet, tree: DecompTree, guard: int = 10**4
):
    """Brute-force test of conjunctive decomposition; None when it holds.

    Returns a witness (node, beta, alpha_up, alpha_down) whose join escapes
    the relation otherwise.  Refuses relations above the guard size.
    """
    if len(answers) > guard:
        raise TooLargeError(f"{len(answers)} rows exceeds the brute-force guard {guard}")
    down = down_vars(tree)
    all_nodes = set(tree.bags)
    for u in sorted(tree.bags):
        down_set = {
            v for v in all_nodes
            if v == u or _is_descendant(tree, u, v)
        }
        up_set = (all_nodes - down_set) | {u}
        up_vars = frozenset().union(*(tree.bags[v] for v in up_set))
        a_up = answers.restrict(up_vars)
        a_dn = answers.restrict(down[u])
        bag = tree.bags[u]
        up_groups = _extensions(a_up, bag)
        dn_groups = _extensions(a_dn, bag)
        for beta_key, ups in up_groups.items():
            downs = dn_groups.get(beta_key, ())
            for alpha_up in ups:
                for alpha_dn in downs:
                    merged = alpha_up.union(alpha_dn)
                    if merged is None:
                        continue
                    full = merged.restrict(answers.variables)
                    if full not in answers:
                        beta = Assignment(tuple(sorted(bag)), beta_key)
                        return (u, beta, alpha_up, alpha_dn)
    return None


def _is_descendant(tree: DecompTree, root: int, node: int) -> bool:
    while node is not None:
        if node == root:
            return True
        node = tree.parent[node]
    return False


def _extensions(restricted: AnswerSet, bag: frozenset[str]) -> dict:
    groups = restricted.group_by(bag)
    return {
        key: [Assignment(restricted.variables, restricted.rows[i]) for i in members]
        for key, members in groups.items()
    }


# --- the normal form ------------------------------------------------------------


@dataclass(frozen=True)
class NodeKind:
    kind: str                 # leaf | extend | project | join
    var: str | None = None    # for extend/project
    child_count: int = 0      # for join


def classify(tree: DecompTree, node: int) -> NodeKind | None:
    """Node kind when the node fits the normalized-tree taxonomy, else None."""
    kids = tree.children[node]
    bag = tree.bags[node]
    if not kids:
        return NodeKind("leaf")
    if all(tree.bags[c] == bag for c in kids):
        return NodeKind("join", child_count=len(kids))
    if len(kids) == 1:
        child_bag = tree.bags[kids[0]]
        if len(bag) == len(child_bag) + 1 and child_bag < bag:
            (added,) = bag - child_bag
            return NodeKind("extend", var=added)
        if len(bag) == len(child_bag) - 1 and bag < child_bag:
            (removed,) = child_bag - bag
            return NodeKind("project", var=removed)
    return None


def is_normalized(tree: DecompTree) -> bool:
    return all(classify(tree, n) is not None for n in tree.bags)


def normalize(tree: DecompTree) -> DecompTree:
    """Rewrite into a tree where every node classifies as leaf, extend,
    project, or join, with an empty root bag.

    Every original bag survives and new bags are subsets of adjacent
    original bags, so the fractional width is unchanged.
    """
    bags: dict[int, frozenset[str]] = {}
    children: dict[int, list[int]] = {}

    def fresh(bag: frozenset[str]) -> int:
        nid = len(bags)
        bags[nid] = bag
        children[nid] = []
        return nid

    def chain_to(parent_bag: frozenset[str], child_id: int) -> int:
        """Stack project/extend steps above child_id until its bag equals parent_bag."""
        cur = child_id
        for var in sorted(bags[child_id] - parent_bag):
            nid = fresh(bags[cur] - {var})
            children[nid].append(cur)
            cur = nid
        for var in sorted(parent_bag - bags[cur]):
            nid = fresh(bags[cur] | {var})
            children[nid].append(cur)
            cur = nid
        return cur

    def build(node: int) -> int:
        bag = tree.bags[node]
        kids = sorted(tree.children[node])
        if not kids:
            return fresh(bag)
        tops = [chain_to(bag, build(child)) for child in kids]
        if len(tops) == 1 and bags[tops[0]] == bag and tree.bags[kids[0]] != bag:
            # the chain's top already realizes this node's bag
            return tops[0]
        join = fresh(bag)
        children[join].extend(tops)
        return join

    cur = build(tree.root)
    for var in sorted(bags[cur]):
        nid = fresh(bags[cur] - {var})
        children[nid].append(cur)
        cur = nid

    edges = [(p, c) for p, kids in children.items() for c in kids]
    return DecompTree(cur, bags, edges, query=tree.query)


# --- programs as dicts ------------------------------------------------------------


def written_rows(lp: SparseLp) -> list:
    """Each row of *lp* as written, ``(lhs, rel, rhs)``: a side is its
    constant and its ``{name: coefficient}`` terms without zeros."""

    def side(constant, cols, vals):
        return constant, {lp.names[c]: v for c, v in zip(cols, vals) if v != 0.0}

    return [(side(*lhs), rel, side(*rhs)) for lhs, rel, rhs in lp.rows()]


def objective_terms(lp: SparseLp) -> dict[str, float]:
    return {lp.names[c]: v for c, v in zip(lp.obj_cols.tolist(), lp.obj_vals.tolist()) if v != 0.0}


def moved_left(lp: SparseLp):
    """*lp* as ``vertex_enumeration_optimum`` takes it after the sense: the
    objective's terms and constant, each row's terms moved left with their
    bound, and the variables."""
    rows = []
    for (lconst, lhs), rel, (rconst, rhs) in written_rows(lp):
        coeffs = dict(lhs)
        for name, coeff in rhs.items():
            coeffs[name] = coeffs.get(name, 0.0) - coeff
        rows.append(({n: c for n, c in coeffs.items() if c != 0.0}, rel, rconst - lconst))
    return objective_terms(lp), lp.obj_const, rows, lp.names


# --- dict assembly -------------------------------------------------------------


class DictLp(NamedTuple):
    """An interpretation's LP as plain dicts: the objective and each side of
    a row ``(lhs, rel, rhs)`` are a constant and ``{name: coefficient}``
    terms without zeros."""

    objective: tuple[float, dict[str, float]]
    rows: list
    variables: list[str]


class _WeightSums:
    """Natural reading of weight expressions as sums of answer variables."""

    def __init__(self, answers, names):
        self.answers = answers
        self.names = names
        self._groups = {}

    def natural_sum(self, w) -> dict[str, float]:
        key = (w.query_name, w.query)
        target_vars = w.target_vars()
        gkey = (key, target_vars)
        if gkey not in self._groups:
            self._groups[gkey] = self.answers[key].group_by(target_vars)
        values = tuple(v for _, v in w.targets)
        members = self._groups[gkey].get(values, ())
        return {self.names[key][i]: 1.0 for i in members}


def _closed_sum(s: ClosedSum, term_of) -> tuple[float, dict[str, float]]:
    acc: dict[str, float] = {}
    for w, coeff in s.ordered_terms():
        for var, c in term_of(w).items():
            acc[var] = acc.get(var, 0.0) + c * coeff
    return s.constant, {var: c for var, c in acc.items() if c != 0.0}


def _assemble(cp: ClosedProgram, term_of, extra_rows, declared) -> tuple[DictLp, list[str]]:
    rows = [
        (_closed_sum(con.lhs, term_of), con.rel, _closed_sum(con.rhs, term_of))
        for con in cp.constraints
    ]
    provenance = ["user"] * len(rows)
    for row, tag in extra_rows:
        rows.append(row)
        provenance.append(tag)
    return DictLp(_closed_sum(cp.objective, term_of), rows, sorted(declared)), provenance


def _one(var) -> tuple[float, dict[str, float]]:
    return 0.0, ({var: 1.0} if var is not None else {})


def dict_assembly(mode: str, cp: ClosedProgram, db: Database, decomps=None):
    """(DictLp, provenance) of one interpretation, each row built as
    ``{name: coefficient}`` dicts: user rows, then weight rows, then
    soundness rows, query by query."""
    naming = VarNaming()
    if mode == "factorized":
        return _dict_factorized(cp, decomps, db, naming)
    answers = {key: evaluate(key[1], db) for key in cp.queries_w()}
    names = {key: naming.theta_names(key, rows) for key, rows in answers.items()}
    sums = _WeightSums(answers, names)
    declared = [n for key in answers for n in names[key]]
    if mode == "natural":
        return _assemble(cp, sums.natural_sum, [], declared)
    nu = {w: naming.nu_name(w) for w in cp.weight_exprs()}
    rows = [((_one(nu[w]), "=", (0.0, sums.natural_sum(w))), "weight") for w in cp.weight_exprs()]
    declared += list(nu.values())
    return _assemble(cp, lambda w: {nu[w]: 1.0}, rows, declared)


def _dict_factorized(cp: ClosedProgram, decomps, db: Database, naming: VarNaming):
    targets_by_query = {}
    for w in cp.weight_exprs():
        targets_by_query.setdefault((w.query_name, w.query), []).append(w)
    nu = {}
    declared = []
    extra_rows = []
    for key in cp.queries_w():
        tree = decomps[key]
        weights = targets_by_query.get(key, [])
        proj = bag_projections(key[1], tree, db)
        names = {}
        for node in sorted(tree.bags):
            names[node] = naming.xi_names(key, node, proj[node])
            declared += names[node]
        for w in weights:
            nu[w] = naming.nu_name(w)
            # the bag equal to the target closest to the root, smallest id on ties
            witness = min(
                (n for n, bag in tree.bags.items() if bag == w.target_vars()),
                key=lambda n: (tree.depth(n), n),
            )
            var = dict(zip(proj[witness].rows, names[witness])).get(tuple(v for _, v in w.targets))
            extra_rows.append(((_one(nu[w]), "=", _one(var)), "weight"))
        for parent, child in sorted(tree.edges):
            shared = tree.bags[parent] & tree.bags[child]
            pg = proj[parent].group_by(shared)
            cg = proj[child].group_by(shared)
            for gamma in sorted(set(pg) | set(cg), key=lambda t: tuple(v.text for v in t)):
                lhs = {names[parent][i]: 1.0 for i in pg.get(gamma, ())}
                rhs = {names[child][i]: 1.0 for i in cg.get(gamma, ())}
                extra_rows.append((((0.0, lhs), "=", (0.0, rhs)), "soundness"))
    declared += list(nu.values())
    return _assemble(cp, lambda w: {nu[w]: 1.0}, extra_rows, declared)


# --- the dict lift --------------------------------------------------------------


def separator_marginals(collection: WeightingCollection) -> list:
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


def first_violation(marginals, tol: float) -> SoundnessViolation | None:
    for edge, _, left, right in marginals:
        for gamma in sorted(set(left) | set(right), key=lambda row: tuple(x.text for x in row)):
            lhs = left.get(gamma, 0.0)
            rhs = right.get(gamma, 0.0)
            if abs(lhs - rhs) > tol:
                return SoundnessViolation(edge, gamma, lhs, rhs)
    return None


def dict_lift(collection: WeightingCollection, variables: tuple[str, ...]):
    """Function giving the lifted mass of a row over *variables*: the root's
    mass times each edge's child mass over the child's separator marginal,
    0 as soon as one marginal is at most ``ZERO_TOL``."""
    tree = collection.tree
    to_root = projector(variables, sorted(tree.bags[tree.root]))
    root_mass = collection[tree.root].values
    edges = []
    for (_, child), shared, _, sep_mass in separator_marginals(collection):
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


def solution_collection(solution, interpreted, key) -> WeightingCollection:
    """The bag-variable values of a solved factorized program for *key*."""
    return WeightingCollection(interpreted.trees[key], {
        node: Weighting(block.rows, dict(zip(block.rows.rows, solution.values(block.columns))))
        for node, block in interpreted.xi[key].items()
    })


def weights_csv(path, cp_qf, interpreted, solution, db: Database) -> None:
    """A weights CSV as ``lpcq solve --weights`` wrote it row by row: the
    answers of a factorized run evaluated again and lifted one by one
    (after the soundness check at ``LIFT_TOL``), each row through
    ``csv.writer``."""
    sections = []
    for key in cp_qf.queries_w():
        if interpreted.mode in ("natural", "replacement"):
            answers = interpreted.theta[key].rows
            masses = dict(zip(answers.rows, solution.values(interpreted.theta[key].columns)))
        else:
            collection = solution_collection(solution, interpreted, key)
            assert first_violation(separator_marginals(collection), LIFT_TOL) is None
            answers = evaluate(key[1], db)
            mass = dict_lift(collection, answers.variables)
            masses = {row: mass(row) for row in answers.rows}
        sections.append((key[0], answers.variables, answers.rows, masses))
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        for name, variables, rows, masses in sections:
            handle.write(f"# {name}\n")
            for row in rows:
                cells = [f"{v}={val.text}" for v, val in zip(variables, row)]
                cells.append(f"{masses[row]:.12g}")
                writer.writerow(cells)
