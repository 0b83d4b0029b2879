"""Independent reference implementations used as test oracles.

Everything here is deliberately naive: brute-force enumeration over the
domain for query answers, vertex enumeration for linear programs, a natural
join of assignment sets, a brute-force test of conjunctive decomposition,
and ``dict_assembly``, which builds an interpretation's LP row by row as
``{name: coefficient}`` dicts.  The decomposition test and the dict
assembly read answer sets through the production ``AnswerSet.restrict`` and
``group_by``, so it checks the compilation to columns and nothing before
it; the rest shares no code with the paths it checks.

``StringNaming`` names variables as lpcq did before it ordered positional
blocks from their row numbers: every name a string, claimed in one set.
The dict assembly names its variables with it.

``normalize`` rewrites a tree into the textbook normal form, which no solve
path uses: the tests take normalized trees as extra input shapes.

``dict_lift`` is the lift as lpcq computed it before it ran on integer
codes: separator marginals from ``project_weighting``, and one row's mass
through dict lookups.  ``weights_csv`` writes a weights file the old way,
evaluating the answers again and writing every row through ``csv.writer``.

``size`` is the symbol count that bounds the normal form's growth.
``row_closure`` is closure as lpcq computed it before it evaluated each
binder query once: the binder query evaluated again under every outer row,
one environment and one ``ClosedSum`` per row.  ``parse_lp`` reads the LP
files ``lpformat.export_lp`` writes.
"""

from __future__ import annotations

import csv
import itertools
import json
import re
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from lpcq.decomp import DecompTree, bag_projections
from lpcq.errors import (
    InternalFreeVariableError,
    IoError,
    NumUndefinedError,
    TooLargeError,
    UnknownVariableError,
)
from lpcq import interpret
from lpcq.interpret import qid
from lpcq.language import (
    CAnd,
    CCompare,
    CForall,
    ClosedConstraint,
    ClosedProgram,
    ClosedSum,
    Constraint,
    CTrue,
    LpcqProgram,
    NumExpr,
    NumOf,
    Real,
    SAdd,
    SNum,
    SScale,
    SSum,
    Sum,
    SWeight,
    WeightExprClosed,
)
from lpcq.linprog import LpBuilder, Side, SparseLp
from lpcq.lpformat import _SECTION_WORDS
from lpcq.queries import (
    And,
    AnswerSet,
    Atom,
    Const,
    Equal,
    Exists,
    Query,
    TrueQuery,
    Var,
    evaluate,
    extend,
    free_vars,
    substitute,
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


def column_fold_key_ids(*blocks: np.ndarray) -> tuple[list[np.ndarray], int]:
    """``relations.key_ids`` folding one column per ``np.unique``: each (id
    so far, code) pair packed into one integer and compacted again."""
    stacked = np.concatenate(blocks) if len(blocks) > 1 else blocks[0]
    n, k = stacked.shape
    ids = np.zeros(n, dtype=np.int64)
    distinct = 1 if n else 0
    for j in range(k if n else 0):
        column = stacked[:, j]
        packed = ids * (int(column.max()) + 1) + column if j else column
        keys, ids = np.unique(packed, return_inverse=True)
        distinct = len(keys)
    bounds = np.cumsum([len(b) for b in blocks[:-1]])
    return np.split(ids, bounds), distinct


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
    kinds = []  # "eq" or "ineq"
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
    # a vertex's active rows include a largest independent set of the
    # equality rows; the rest are checked with every other row below
    eq_idx = []
    for i, k in enumerate(kinds):
        if k == "eq" and np.linalg.matrix_rank(A[eq_idx + [i]]) > len(eq_idx):
            eq_idx.append(i)

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
    """The objective's ``{name: coefficient}`` terms without zeros, every
    column of a class with its lead's coefficient."""
    lp = lp.spread()
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


def groups_by_brute_force(lp: SparseLp) -> list[int]:
    """For each column of *lp*, the lowest column with the same cost and the
    same summed coefficient in every row, compared as Python floats: the
    coarsest split into identical columns (Andersen and Andersen's
    duplicate columns, 1995), which every class of ``SparseLp.lead`` lies
    within."""
    lp = lp.spread()
    sign = -1.0 if lp.sense == "maximize" else 1.0
    cost = [0.0] * len(lp.names)
    for c, v in zip(lp.obj_cols.tolist(), lp.obj_vals.tolist()):
        cost[c] += sign * v
    column = [[] for _ in lp.names]
    for r, ((_, lcols, lvals), _, (_, rcols, rvals)) in enumerate(lp.rows()):
        summed = {}
        for c, v in zip(list(lcols) + list(rcols), list(lvals) + [-v for v in rvals]):
            summed[c] = summed.get(c, 0.0) + v
        for c, v in summed.items():
            if v != 0.0:
                column[c].append((r, v))
    first = {}
    return [first.setdefault((cost[j], tuple(column[j])), j) for j in range(len(lp.names))]


def merged(want: DictLp, lp: SparseLp) -> tuple[DictLp, dict[str, str]]:
    """*want*, a program with a term on every column, merged by the classes
    of *lp*, a program over the same names: the terms of every column but
    its class's lead dropped, and each column's lead by name, as
    ``makers.sparse_lp`` takes its ``classes``."""
    names = list(lp.names)
    lead = {name: names[j] for name, j in zip(names, lp.lead.tolist())}

    def side(constant, terms):
        return constant, {n: c for n, c in terms.items() if lead.get(n, n) == n}

    rows = [(side(*lhs), rel, side(*rhs)) for lhs, rel, rhs in want.rows]
    return DictLp(side(*want.objective), rows, want.variables), lead


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


class StringNaming:
    """``interpret.VarNaming`` as it was before positional blocks: every
    name made and claimed as a string.  Reads ``CONTENT_NAME_LIMIT`` from
    ``lpcq.interpret`` at each call, so a test can patch it for both."""

    def __init__(self):
        self._taken: set[str] = set()

    def _claim(self, base: str) -> str:
        name = base
        bump = 1
        while name in self._taken:
            bump += 1
            name = f"{base}_k{bump}"
        self._taken.add(name)
        return name

    def _claim_all(self, bases: list[str]) -> list[str]:
        fresh = set(bases)
        if len(fresh) == len(bases) and fresh.isdisjoint(self._taken):
            self._taken |= fresh
            return bases
        return [self._claim(base) for base in bases]

    def _row_names(self, prefix: str, rows: AnswerSet) -> list[str]:
        if len(rows) > interpret.CONTENT_NAME_LIMIT:
            return self._claim_all([f"{prefix}_r{i}" for i in range(len(rows))])
        if not rows.variables:
            return self._claim_all([f"{prefix}_all"] * len(rows))
        tokens = rows.dictionary.tokens
        names = prefix + "_" + tokens[rows.codes[:, 0]]
        for j in range(1, len(rows.variables)):
            names = names + "_" + tokens[rows.codes[:, j]]
        return self._claim_all(names.tolist())

    def theta_names(self, key, answers: AnswerSet) -> list[str]:
        return self._row_names(f"th_{qid(key[0])}", answers)

    def xi_names(self, key, node: int, proj: AnswerSet) -> list[str]:
        return self._row_names(f"xi_{qid(key[0])}_n{node}", proj)

    def nu_names(self, cp: ClosedProgram, ranks: np.ndarray) -> list[str]:
        weights = cp.weights
        tokens = cp.dictionary.tokens
        bases = np.empty(weights.count, dtype=object)
        for f, codes, at in zip(cp.families, weights.codes, weights.ranks):
            base = f"nu_{qid(f.query_name)}"
            for j, x in enumerate(f.variables):
                base = base + f"_{x}_" + tokens[codes[:, j]]
            bases[at] = base if f.variables else base + "_all"
        return self._claim_all(bases[ranks].tolist())


def nu_name(naming: StringNaming, w) -> str:
    """A new stand-in name for *w*, claimed in *naming*."""
    parts = "_".join(f"{x}_{v.token}" for x, v in w.targets) or "all"
    return naming._claim(f"nu_{qid(w.query_name)}_{parts}")


def dict_assembly(mode: str, cp: ClosedProgram, db: Database, decomps=None):
    """(DictLp, provenance) of one interpretation, each row built as
    ``{name: coefficient}`` dicts: user rows, then weight rows, then
    soundness rows, query by query."""
    naming = StringNaming()
    if mode == "factorized":
        return _dict_factorized(cp, decomps, db, naming)
    answers = {key: evaluate(key[1], db) for key in cp.queries_w()}
    names = {key: naming.theta_names(key, rows) for key, rows in answers.items()}
    sums = _WeightSums(answers, names)
    declared = [n for key in answers for n in names[key]]
    if mode == "natural":
        return _assemble(cp, sums.natural_sum, [], declared)
    nu = {w: nu_name(naming, w) for w in cp.weight_exprs()}
    rows = [((_one(nu[w]), "=", (0.0, sums.natural_sum(w))), "weight") for w in cp.weight_exprs()]
    declared += list(nu.values())
    return _assemble(cp, lambda w: {nu[w]: 1.0}, rows, declared)


def _dict_factorized(cp: ClosedProgram, decomps, db: Database, naming: StringNaming):
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
            nu[w] = nu_name(naming, w)
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


# --- program size -----------------------------------------------------------------


def _query_size(q: Query) -> int:
    if isinstance(q, (TrueQuery, Var, Const)):
        return 1
    if isinstance(q, Equal):
        return 3
    if isinstance(q, Atom):
        return 1 + len(q.args)
    if isinstance(q, And):
        return 1 + _query_size(q.left) + _query_size(q.right)
    if isinstance(q, Exists):
        return 2 + _query_size(q.body)
    raise TypeError(q)


def size(node) -> int:
    """Symbol count of a program fragment, the measure normal form is bounded in."""
    if isinstance(node, LpcqProgram):
        return 1 + size(node.objective) + size(node.constraint)
    if isinstance(node, SNum):
        return 2 if isinstance(node.num, NumOf) else 1
    if isinstance(node, SScale):
        return size(SNum(node.num)) + size(node.body)
    if isinstance(node, SAdd):
        return 1 + size(node.left) + size(node.right)
    if isinstance(node, SSum):
        return 1 + len(node.binders) + _query_size(node.query) + size(node.body)
    if isinstance(node, SWeight):
        return 1 + len(node.scope) + 3 * len(node.targets) + _query_size(node.query)
    if isinstance(node, CTrue):
        return 1
    if isinstance(node, CCompare):
        return 1 + size(node.left) + size(node.right)
    if isinstance(node, CAnd):
        return 1 + size(node.left) + size(node.right)
    if isinstance(node, CForall):
        return 1 + len(node.binders) + _query_size(node.query) + size(node.body)
    raise TypeError(node)


# --- the row closure -------------------------------------------------------------


def plus(a: ClosedSum, b: ClosedSum) -> ClosedSum:
    """*a* + *b*: coefficients added in that order, a sum of 0 dropped."""
    merged = dict(a.terms)
    for k, v in b.terms.items():
        new = merged.get(k, 0.0) + v
        if new == 0.0:
            merged.pop(k, None)
        else:
            merged[k] = new
    return ClosedSum(a.constant + b.constant, merged)


def scaled(s: ClosedSum, factor: float) -> ClosedSum:
    return ClosedSum(s.constant * factor, {k: v * factor for k, v in s.terms.items()})


def _close_num(n: NumExpr, env: dict[str, Value], db: Database) -> float:
    if isinstance(n, Real):
        return n.value
    expr = n.expr
    if isinstance(expr, Var):
        if expr.name not in env:
            raise InternalFreeVariableError(f"num({expr.name}) has no binding")
        value = env[expr.name]
    else:
        value = expr.value
    if value.numeric is None:
        raise NumUndefinedError(f"value {value.text!r} has no numeric reading")
    return value.numeric


def _expand_binder(
    binders: tuple[str, ...], query: Query, env: dict[str, Value], db: Database
) -> list[dict[str, Value]]:
    """Environments for each answer of the binder query under *env*."""
    outer = {k: v for k, v in env.items() if k not in binders}
    bound = [(k, v) for k, v in outer.items() if k in free_vars(query)]
    grounded = substitute(query, [k for k, _ in bound], [v for _, v in bound])
    extended = extend(grounded, binders)
    rows = evaluate(extended, db, set(binders))
    envs = []
    for assignment in rows.assignments():
        child = dict(outer)
        child.update(dict(assignment.items()))
        envs.append(child)
    return envs


def _close_sum(node: Sum, env: dict[str, Value], db: Database) -> ClosedSum:
    if isinstance(node, SNum):
        return ClosedSum(_close_num(node.num, env, db))
    if isinstance(node, SScale):
        return scaled(_close_sum(node.body, env, db), _close_num(node.num, env, db))
    if isinstance(node, SAdd):
        return plus(_close_sum(node.left, env, db), _close_sum(node.right, env, db))
    if isinstance(node, SWeight):
        targets = []
        for x, e in node.targets:
            if isinstance(e, Const):
                targets.append((x, e.value))
            else:
                if e.name not in env:
                    raise InternalFreeVariableError(
                        f"weight value variable {e.name!r} has no binding"
                    )
                targets.append((x, env[e.name]))
        key = WeightExprClosed(node.query_name, node.query, tuple(sorted(targets)))
        return ClosedSum(0.0, {key: 1.0})
    if isinstance(node, SSum):
        total = ClosedSum(0.0)
        for child in _expand_binder(node.binders, node.query, env, db):
            total = plus(total, _close_sum(node.body, child, db))
        return total
    raise TypeError(node)


def _close_constraint(
    node: Constraint, env: dict[str, Value], db: Database
) -> list[ClosedConstraint]:
    if isinstance(node, CTrue):
        return []
    if isinstance(node, CCompare):
        return [
            ClosedConstraint(
                _close_sum(node.left, env, db), node.rel, _close_sum(node.right, env, db)
            )
        ]
    if isinstance(node, CAnd):
        return _close_constraint(node.left, env, db) + _close_constraint(node.right, env, db)
    if isinstance(node, CForall):
        out = []
        for child in _expand_binder(node.binders, node.query, env, db):
            out.extend(_close_constraint(node.body, child, db))
        return out
    raise TypeError(node)


def row_closure(program: LpcqProgram, db: Database) -> ClosedProgram:
    """Unfold forall/sum/num over *db* one binder row at a time: the binder
    query is evaluated again under every outer row, and every row gets its
    own environment and ``ClosedSum``."""
    objective = _close_sum(program.objective, {}, db)
    constraints = _close_constraint(program.constraint, {}, db)
    return ClosedProgram(objective, constraints, minimized=program.minimized)


# --- the LP-format reader ----------------------------------------------------------
#
# It accepts what ``lpformat.export_lp`` emits, plus the usual small
# variations (>=, implicit 1 coefficients, constants on either side), and
# builds the program through ``LpBuilder``, so files round trip up to term
# ordering.

_REL_OPS = {"<=", ">=", "=<", "=>", "=", "<", ">"}

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>[0-9]+(?:\.[0-9]*)?(?:[eE][+-]?[0-9]+)?|\.[0-9]+)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_.']*)"
    r"|(?P<op><=|>=|=<|=>|[:=+<>-]))"
)


def _tokenize_lp(text: str) -> list[str]:
    tokens: list[str] = []
    for raw_line in text.splitlines():
        line = raw_line.split("\\", 1)[0]
        pos = 0
        while pos < len(line):
            if line[pos].isspace():
                pos += 1
                continue
            m = _TOKEN_RE.match(line, pos)
            if not m:
                raise IoError(f"cannot tokenize LP line: {raw_line!r}")
            tokens.append(m.group(0).strip())
            pos = m.end()
    return tokens


class _LpReader:
    def __init__(self, tokens: list[str], renamed: dict[str, str]):
        self.tokens = tokens
        self.low = [t.lower() for t in tokens]
        self.renamed = renamed
        self.i = 0

    def done(self) -> bool:
        return self.i >= len(self.tokens)

    def at_section(self) -> str | None:
        if self.done():
            return "end"
        word = self.low[self.i]
        return _SECTION_WORDS.get(word)

    def expression(self, stop_at_relation: bool) -> tuple[float, dict[str, float]]:
        """Parse tokens into a constant and ``{name: coefficient}`` terms,
        without zeros, until a relation or section keyword."""
        constant = 0.0
        terms: dict[str, float] = {}
        sign = 1.0
        pending: float | None = None
        consumed = False

        def flush():
            nonlocal constant, pending, sign
            if pending is not None:
                constant += sign * pending
                pending = None
                sign = 1.0

        while not self.done():
            tok = self.tokens[self.i]
            if self.at_section():
                break
            if tok in _REL_OPS:
                if stop_at_relation:
                    break
                raise IoError(f"unexpected {tok!r} in expression")
            if tok == "+":
                flush()
                self.i += 1
                consumed = True
                continue
            if tok == "-":
                flush()
                sign = -sign
                self.i += 1
                consumed = True
                continue
            if tok == ":":
                raise IoError("misplaced ':'")
            if re.match(r"[0-9.]", tok):
                flush()
                pending = float(tok)
                self.i += 1
                consumed = True
                continue
            # a name followed by ':' is a row label: skip it when leading,
            # otherwise it starts the next row and ends this expression
            if self.i + 1 < len(self.tokens) and self.tokens[self.i + 1] == ":":
                if consumed:
                    break
                self.i += 2
                continue
            consumed = True
            name = self.renamed.get(tok, tok)
            coeff = sign * (pending if pending is not None else 1.0)
            new = terms.get(name, 0.0) + coeff
            if new == 0.0:
                terms.pop(name, None)
            else:
                terms[name] = new
            pending = None
            sign = 1.0
            self.i += 1
        flush()
        return constant, terms


def parse_lp(path: str | Path) -> SparseLp:
    """Parse an LP-format file; names from <path>.names.json are restored.

    Raises IoError naming the file when it or its sidecar cannot be read,
    is not UTF-8, or the sidecar is not a JSON object of names.
    """
    path = Path(path)
    try:
        tokens = _tokenize_lp(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise IoError(str(exc)) from exc
    except UnicodeDecodeError as exc:
        raise IoError(f"{path}: not UTF-8 text: {exc}") from exc
    renamed: dict[str, str] = {}
    sidecar = Path(str(path) + ".names.json")
    if sidecar.exists():
        try:
            renamed = json.loads(sidecar.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:  # JSON and UTF-8 errors are ValueErrors
            raise IoError(f"{sidecar}: not a names file: {exc}") from exc
        if not isinstance(renamed, dict) or not all(isinstance(v, str) for v in renamed.values()):
            raise IoError(f"{sidecar}: not a names file: expected an object of names")

    reader = _LpReader(tokens, renamed)
    section = reader.at_section()
    if section not in ("maximize", "minimize"):
        raise IoError("LP file must start with Maximize or Minimize")
    sense = section
    reader.i += 1

    builder = LpBuilder()
    index: dict[str, int] = {}

    def side(expr) -> Side:
        """*expr* over the builder's columns, one added per new name."""
        constant, terms = expr
        for name in terms.keys() - index.keys():
            index[name] = builder.block([name])
        return constant, [index[name] for name in terms], list(terms.values())

    objective = side(reader.expression(stop_at_relation=False))

    if reader.at_section() != "subject":
        raise IoError("missing Subject To section")
    reader.i += 1
    if not reader.done() and reader.low[reader.i] == "to":
        reader.i += 1

    while not reader.done() and reader.at_section() is None:
        lhs = side(reader.expression(stop_at_relation=True))
        if reader.done() or reader.tokens[reader.i] not in _REL_OPS:
            raise IoError("constraint missing relation")
        rel = reader.tokens[reader.i]
        reader.i += 1
        rhs = side(reader.expression(stop_at_relation=True))
        if rel in ("<=", "<", "=<"):
            builder.row(lhs, "<=", rhs)
        elif rel in (">=", ">", "=>"):
            builder.row(rhs, "<=", lhs)
        else:
            builder.row(lhs, "=", rhs)

    while not reader.done() and reader.at_section() != "end":
        if reader.at_section() in ("bounds", "skip"):
            reader.i += 1
            continue
        lhs = side(reader.expression(stop_at_relation=True))
        if not reader.done() and reader.tokens[reader.i] in _REL_OPS:
            reader.i += 1
            rhs = side(reader.expression(stop_at_relation=True))
            for constant, cols, _ in (lhs, rhs):
                if constant != 0.0 and not cols:
                    raise IoError("only nonnegativity bounds are supported")
    return builder.build(sense, objective)
