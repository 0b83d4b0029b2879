"""Independent reference implementations used as test oracles.

Everything here is deliberately naive: brute-force enumeration over the
domain for query answers, vertex enumeration for linear programs, a natural
join of assignment sets, a brute-force test of conjunctive decomposition,
and ``dict_assembly``, which builds an interpretation's LP row by row as
string-keyed ``LinSum`` dicts.  The decomposition test and the dict
assembly read answer sets through the production ``AnswerSet.restrict`` and
``group_by``, and the dict assembly names variables with the production
``VarNaming``, so it checks the compilation to columns and nothing before
it; the rest shares no code with the paths it checks.
"""

from __future__ import annotations

import itertools
from typing import Iterable

import numpy as np

from lpcq.decomp import DecompTree, bag_projections, check_compatible
from lpcq.errors import TooLargeError, UnknownVariableError
from lpcq.interpret import VarNaming
from lpcq.language import ClosedProgram, ClosedSum
from lpcq.linprog import LinConstraint, LinearProgram, LinSum
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


# --- dict assembly -------------------------------------------------------------


class _WeightSums:
    """Natural reading of weight expressions as sums of answer variables."""

    def __init__(self, answers, names):
        self.answers = answers
        self.names = names
        self._groups = {}

    def natural_sum(self, w) -> LinSum:
        key = (w.query_name, w.query)
        target_vars = w.target_vars()
        gkey = (key, target_vars)
        if gkey not in self._groups:
            self._groups[gkey] = self.answers[key].group_by(target_vars)
        values = tuple(v for _, v in w.targets)
        members = self._groups[gkey].get(values, ())
        return LinSum(0.0, {self.names[key][i]: 1.0 for i in members})


def _closed_sum_to_linsum(s: ClosedSum, term_of) -> LinSum:
    acc: dict[str, float] = {}
    for w, coeff in s.ordered_terms():
        for var, c in term_of(w).terms.items():
            acc[var] = acc.get(var, 0.0) + c * coeff
    return LinSum(s.constant, acc)


def _assemble(cp: ClosedProgram, term_of, extra_rows, declared) -> tuple[LinearProgram, list[str]]:
    objective = _closed_sum_to_linsum(cp.objective, term_of)
    constraints = []
    provenance = []
    for con in cp.constraints:
        constraints.append(
            LinConstraint(
                _closed_sum_to_linsum(con.lhs, term_of),
                con.rel,
                _closed_sum_to_linsum(con.rhs, term_of),
            )
        )
        provenance.append("user")
    for row, tag in extra_rows:
        constraints.append(row)
        provenance.append(tag)
    return LinearProgram("maximize", objective, constraints, declared=declared), provenance


def dict_assembly(mode: str, cp: ClosedProgram, db: Database, decomps=None):
    """(LinearProgram, provenance) of one interpretation, each row built as
    ``LinSum`` dicts keyed by variable name: user rows, then weight rows,
    then soundness rows, query by query."""
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
    rows = [
        (LinConstraint(LinSum.variable(nu[w]), "=", sums.natural_sum(w)), "weight")
        for w in cp.weight_exprs()
    ]
    declared += list(nu.values())
    return _assemble(cp, lambda w: LinSum.variable(nu[w]), rows, declared)


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
        witnesses = check_compatible(tree, [w.target_vars() for w in weights])
        proj = bag_projections(key[1], tree, db)
        names = {}
        for node in sorted(tree.bags):
            names[node] = naming.xi_names(key, node, proj[node])
            declared += names[node]
        for w in weights:
            nu[w] = naming.nu_name(w)
            witness = witnesses[w.target_vars()]
            var = dict(zip(proj[witness].rows, names[witness])).get(tuple(v for _, v in w.targets))
            rhs = LinSum.variable(var) if var is not None else LinSum(0.0)
            extra_rows.append((LinConstraint(LinSum.variable(nu[w]), "=", rhs), "weight"))
        for parent, child in sorted(tree.edges):
            shared = tree.bags[parent] & tree.bags[child]
            pg = proj[parent].group_by(shared)
            cg = proj[child].group_by(shared)
            for gamma in sorted(set(pg) | set(cg), key=lambda t: tuple(v.text for v in t)):
                lhs = LinSum(0.0, {names[parent][i]: 1.0 for i in pg.get(gamma, ())})
                rhs = LinSum(0.0, {names[child][i]: 1.0 for i in cg.get(gamma, ())})
                extra_rows.append((LinConstraint(lhs, "=", rhs), "soundness"))
    declared += list(nu.values())
    return _assemble(cp, lambda w: LinSum.variable(nu[w]), extra_rows, declared)
