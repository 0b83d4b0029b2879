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
diagnostics and reporting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .decomp import DecompTree, bag_projections, check_compatible, validate
from .errors import (
    IncompatibleDecompositionError,
    IncompatibleTargetError,
    MissingDecompositionError,
)
from .language import ClosedProgram, ClosedSum, WeightExprClosed
from .linprog import LinConstraint, LinearProgram, LinSum
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

    def _row_names(self, prefix: str, rows: AnswerSet) -> list[str]:
        if len(rows) > CONTENT_NAME_LIMIT:
            return [self._claim(f"{prefix}_r{i}") for i in range(len(rows))]
        return [
            self._claim(f"{prefix}_{'_'.join(v.token for v in row)}" if row else f"{prefix}_all")
            for row in rows.rows
        ]

    def theta_names(self, key: QueryKey, answers: AnswerSet) -> list[str]:
        return self._row_names(f"th_{qid(key[0])}", answers)

    def xi_names(self, key: QueryKey, node: int, proj: AnswerSet) -> list[str]:
        return self._row_names(f"xi_{qid(key[0])}_n{node}", proj)

    def nu_name(self, w: WeightExprClosed) -> str:
        """A new stand-in name for *w*; each call claims one."""
        parts = "_".join(f"{x}_{v.token}" for x, v in w.targets) or "all"
        return self._claim(f"nu_{qid(w.query_name)}_{parts}")


@dataclass
class InterpretedLp:
    """A concrete LP plus the bookkeeping linking its variables back to
    query answers and bag projections."""

    mode: str
    lp: LinearProgram
    provenance: list[str]
    theta: dict[QueryKey, tuple[AnswerSet, list[str]]] = field(default_factory=dict)
    nu: dict[WeightExprClosed, str] = field(default_factory=dict)
    xi: dict[QueryKey, dict[int, tuple[AnswerSet, list[str]]]] = field(default_factory=dict)
    trees: dict[QueryKey, DecompTree] = field(default_factory=dict)

    @property
    def theta_count(self) -> int:
        return sum(len(a) for a, _ in self.theta.values())

    @property
    def xi_count(self) -> int:
        return sum(len(a) for nodes in self.xi.values() for a, _ in nodes.values())

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


def _answer_sets(cp: ClosedProgram, db: Database) -> dict[QueryKey, AnswerSet]:
    return {key: evaluate(key[1], db) for key in cp.queries_w()}


class _WeightSums:
    """Natural reading of weight expressions as sums of answer variables."""

    def __init__(self, answers: Mapping[QueryKey, AnswerSet], names: Mapping[QueryKey, list[str]]):
        self.answers = answers
        self.names = names
        self._groups: dict[tuple[QueryKey, frozenset[str]], dict] = {}

    def natural_sum(self, w: WeightExprClosed) -> LinSum:
        key = (w.query_name, w.query)
        rows = self.answers[key]
        names = self.names[key]
        target_vars = w.target_vars()
        gkey = (key, target_vars)
        if gkey not in self._groups:
            self._groups[gkey] = rows.group_by(target_vars)
        groups = self._groups[gkey]
        values = tuple(v for _, v in w.targets)  # targets sorted by variable
        members = groups.get(values, ())
        return LinSum.adopt(0.0, {names[i]: 1.0 for i in members})


def _closed_sum_to_linsum(s: ClosedSum, term_of) -> LinSum:
    acc: dict[str, float] = {}
    for w, coeff in s.ordered_terms():
        for var, c in term_of(w).terms.items():
            acc[var] = acc.get(var, 0.0) + c * coeff
    return LinSum.adopt(s.constant, acc)


def _assemble(
    cp: ClosedProgram, term_of, extra_rows: list[tuple[LinConstraint, str]], declared
) -> tuple[LinearProgram, list[str]]:
    objective = _closed_sum_to_linsum(cp.objective, term_of)
    constraints: list[LinConstraint] = []
    provenance: list[str] = []
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
    lp = LinearProgram("maximize", objective, constraints, declared=declared)
    return lp, provenance


def natural(cp: ClosedProgram, db: Database) -> InterpretedLp:
    """One LP variable per query answer, weight expressions inlined."""
    naming = VarNaming()
    answers = _answer_sets(cp, db)
    names = {key: naming.theta_names(key, rows) for key, rows in answers.items()}
    sums = _WeightSums(answers, names)

    declared = [n for key in answers for n in names[key]]
    lp, provenance = _assemble(cp, sums.natural_sum, [], declared)
    sums._groups.clear()
    return InterpretedLp(
        mode="natural",
        lp=lp,
        provenance=provenance,
        theta={key: (answers[key], names[key]) for key in answers},
    )


def replacement(cp: ClosedProgram, db: Database) -> InterpretedLp:
    """Fresh stand-in variable per weight expression plus defining equalities."""
    naming = VarNaming()
    answers = _answer_sets(cp, db)
    names = {key: naming.theta_names(key, rows) for key, rows in answers.items()}
    sums = _WeightSums(answers, names)

    nu = {w: naming.nu_name(w) for w in cp.weight_exprs()}
    rows = [
        (LinConstraint(LinSum.variable(nu[w]), "=", sums.natural_sum(w)), "weight")
        for w in cp.weight_exprs()
    ]
    declared = [n for key in answers for n in names[key]] + list(nu.values())
    lp, provenance = _assemble(
        cp, lambda w: LinSum.variable(nu[w]), rows, declared
    )
    return InterpretedLp(
        mode="replacement",
        lp=lp,
        provenance=provenance,
        theta={key: (answers[key], names[key]) for key in answers},
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

    xi: dict[QueryKey, dict[int, tuple[AnswerSet, list[str]]]] = {}
    trees: dict[QueryKey, DecompTree] = {}
    nu: dict[WeightExprClosed, str] = {}
    extra_rows: list[tuple[LinConstraint, str]] = []

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
        try:
            witnesses = check_compatible(tree, [w.target_vars() for w in weights])
        except IncompatibleTargetError as exc:
            raise IncompatibleDecompositionError(
                f"decomposition of {name!r} is incompatible: {exc}"
            ) from exc

        proj = bag_projections(query, tree, db)
        node_entries: dict[int, tuple[AnswerSet, list[str]]] = {}
        lookup: dict[int, dict[tuple[Value, ...], str]] = {}
        for node in sorted(tree.bags):
            names = naming.xi_names(key, node, proj[node])
            node_entries[node] = (proj[node], names)
            lookup[node] = dict(zip(proj[node].rows, names))
        xi[key] = node_entries
        trees[key] = tree

        for w in weights:
            nu[w] = naming.nu_name(w)
            witness = witnesses[w.target_vars()]
            values = tuple(v for _, v in w.targets)
            var = lookup[witness].get(values)
            rhs = LinSum.variable(var) if var is not None else LinSum(0.0)
            extra_rows.append(
                (LinConstraint(LinSum.variable(nu[w]), "=", rhs), "weight")
            )

        for parent, child in sorted(tree.edges):
            shared = tree.bags[parent] & tree.bags[child]
            pg = proj[parent].group_by(shared)
            cg = proj[child].group_by(shared)
            p_names = node_entries[parent][1]
            c_names = node_entries[child][1]
            for gamma in sorted(set(pg) | set(cg), key=lambda t: tuple(v.text for v in t)):
                lhs = LinSum(0.0, {p_names[i]: 1.0 for i in pg.get(gamma, ())})
                rhs = LinSum(0.0, {c_names[i]: 1.0 for i in cg.get(gamma, ())})
                extra_rows.append((LinConstraint(lhs, "=", rhs), "soundness"))

    declared = [n for nodes in xi.values() for _, ns in nodes.values() for n in ns]
    declared += list(nu.values())
    lp, provenance = _assemble(
        cp, lambda w: LinSum.variable(nu[w]), extra_rows, declared
    )
    return InterpretedLp(
        mode="factorized",
        lp=lp,
        provenance=provenance,
        nu=nu,
        xi=xi,
        trees=trees,
    )
