"""Concrete linear programs over named nonnegative variables, and their solver.

Every program is solved by HiGHS through ``scipy.optimize.linprog``: the
rows are collected into sparse ``A_ub``/``A_eq`` matrices whatever the
program's size.  The tests cross-check it against a vertex enumeration
oracle.

Conventions: every variable is implicitly >= 0; ``maximize`` is handed to
the solver as ``minimize -objective`` with the reported value negated back.

Tolerance: 1e-7 for constant rows and for ``LinConstraint.satisfied_by``,
fixed here so results are reproducible.
"""

from __future__ import annotations

from collections.abc import Mapping as MappingABC
from typing import Iterable, Mapping

import numpy as np

from .errors import NumericalFailureError, UnboundVariableError

FEAS_TOL = 1e-7


class LinSum:
    """constant + sum of coefficient * variable, in canonical flat form.

    Zero coefficients are never stored.  Instances are treated as immutable;
    arithmetic returns fresh sums.
    """

    __slots__ = ("constant", "terms")

    def __init__(self, constant: float = 0.0, terms: Mapping[str, float] | None = None):
        self.constant = float(constant)
        self.terms: dict[str, float] = {}
        if terms:
            for var, coeff in terms.items():
                if coeff != 0.0:
                    self.terms[var] = float(coeff)

    @classmethod
    def variable(cls, name: str, coeff: float = 1.0) -> "LinSum":
        return cls(0.0, {name: coeff})

    @classmethod
    def adopt(cls, constant: float, terms: dict[str, float]) -> "LinSum":
        """Wrap *terms* without copying; the caller gives up ownership.

        Meant for bulk assembly where the defensive copy in __init__ would
        double peak memory.  Zero coefficients are stripped only if present.
        """
        if any(v == 0.0 for v in terms.values()):
            terms = {k: v for k, v in terms.items() if v != 0.0}
        s = cls.__new__(cls)
        s.constant = float(constant)
        s.terms = terms
        return s

    def __add__(self, other: "LinSum | float") -> "LinSum":
        if isinstance(other, (int, float)):
            return LinSum(self.constant + other, self.terms)
        merged = dict(self.terms)
        for var, coeff in other.terms.items():
            new = merged.get(var, 0.0) + coeff
            if new == 0.0:
                merged.pop(var, None)
            else:
                merged[var] = new
        return LinSum(self.constant + other.constant, merged)

    __radd__ = __add__

    def __sub__(self, other: "LinSum | float") -> "LinSum":
        if isinstance(other, (int, float)):
            return LinSum(self.constant - other, self.terms)
        return self + other.scale(-1.0)

    def scale(self, factor: float) -> "LinSum":
        if factor == 0.0:
            return LinSum(0.0)
        return LinSum(
            self.constant * factor,
            {var: coeff * factor for var, coeff in self.terms.items()},
        )

    def variables(self) -> set[str]:
        return set(self.terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LinSum)
            and self.constant == other.constant
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.constant, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        parts = [f"{c:g}*{v}" for v, c in sorted(self.terms.items())]
        if self.constant or not parts:
            parts.append(f"{self.constant:g}")
        return " + ".join(parts)


def eval_sum(s: LinSum, point: Mapping[str, float]) -> float:
    """Value of a linear sum under a variable valuation."""
    total = s.constant
    for var, coeff in s.terms.items():
        if var not in point:
            raise UnboundVariableError(f"no value for variable {var!r}")
        total += coeff * point[var]
    return total


class LinConstraint:
    """lhs REL rhs with REL one of '<=' or '='.

    Equalities are kept as single rows; they are semantically the pair of
    opposite inequalities.
    """

    __slots__ = ("lhs", "rel", "rhs")

    def __init__(self, lhs: LinSum, rel: str, rhs: LinSum):
        if rel in ("==", "="):
            rel = "="
        elif rel != "<=":
            raise ValueError(f"unsupported relation {rel!r}")
        self.lhs = lhs
        self.rel = rel
        self.rhs = rhs

    def normalized(self) -> tuple[dict[str, float], str, float]:
        """(coefficients, rel, bound) with all variables moved left.

        When one side carries no variables the other side's term dict is
        returned as-is (sums are immutable), which keeps large programs from
        being duplicated during solving.
        """
        if not self.rhs.terms:
            return self.lhs.terms, self.rel, self.rhs.constant - self.lhs.constant
        diff = self.lhs - self.rhs
        return diff.terms, self.rel, -diff.constant

    def variables(self) -> set[str]:
        return self.lhs.variables() | self.rhs.variables()

    def satisfied_by(self, point: Mapping[str, float], tol: float = FEAS_TOL) -> bool:
        lhs = eval_sum(self.lhs, point)
        rhs = eval_sum(self.rhs, point)
        if self.rel == "=":
            return abs(lhs - rhs) <= tol
        return lhs <= rhs + tol

    def __repr__(self) -> str:
        return f"{self.lhs!r} {self.rel} {self.rhs!r}"


class LinearProgram:
    """maximize/minimize a linear sum subject to a constraint list.

    ``declared`` lets callers register variables that appear in no row yet
    still belong to the program (they solve to 0 and are reported).
    """

    __slots__ = ("sense", "objective", "constraints", "declared", "_variables")

    def __init__(
        self,
        sense: str,
        objective: LinSum,
        constraints: Iterable[LinConstraint] = (),
        declared: Iterable[str] = (),
    ):
        if sense not in ("maximize", "minimize"):
            raise ValueError(f"bad sense {sense!r}")
        self.sense = sense
        self.objective = objective
        self.constraints = list(constraints)
        self.declared = set(declared)
        self._variables: list[str] | None = None

    def variables(self) -> list[str]:
        """Sorted variable universe; cached, so treat programs as frozen
        once they are being solved or exported."""
        if self._variables is None:
            names = set(self.declared)
            names.update(self.objective.terms)
            for con in self.constraints:
                names.update(con.lhs.terms)
                names.update(con.rhs.terms)
            self._variables = sorted(names)
        return self._variables

    def __repr__(self) -> str:
        return (
            f"LinearProgram({self.sense}, {len(self.variables())} vars, "
            f"{len(self.constraints)} constraints)"
        )


class ArrayAssignment(MappingABC):
    """Mapping view over a solver's solution vector; avoids one dict per
    variable on million-column programs."""

    __slots__ = ("_index", "_x")

    def __init__(self, index: dict[str, int], x):
        self._index = index
        self._x = x

    def __getitem__(self, key: str) -> float:
        return max(0.0, float(self._x[self._index[key]]))

    def __iter__(self):
        return iter(self._index)

    def __len__(self) -> int:
        return len(self._index)


class LpSolution:
    __slots__ = ("status", "value", "assignment")

    def __init__(self, status: str, value=None, assignment=None):
        self.status = status  # optimal | infeasible | unbounded
        self.value = value
        self.assignment = assignment if assignment is not None else {}

    def __repr__(self) -> str:
        if self.status == "optimal":
            return f"LpSolution(optimal, value={self.value})"
        return f"LpSolution({self.status})"


def solve(lp: LinearProgram) -> LpSolution:
    """Solve a finite LP with HiGHS through ``scipy.optimize.linprog``."""
    variables = lp.variables()
    ub, eq = [], []
    for con in lp.constraints:
        coeffs, rel, bound = con.normalized()
        if not coeffs:
            ok = abs(bound) <= FEAS_TOL if rel == "=" else bound >= -FEAS_TOL
            if not ok:
                return LpSolution("infeasible")
            continue
        (eq if rel == "=" else ub).append((coeffs, bound))

    if not variables:
        return LpSolution("optimal", value=lp.objective.constant, assignment={})

    # looked up per call, so a wrapper installed on scipy.optimize.linprog
    # after this module was imported still sees every solve
    from scipy.optimize import linprog

    index = {v: i for i, v in enumerate(variables)}
    sign = -1.0 if lp.sense == "maximize" else 1.0  # linprog minimizes
    c = np.zeros(len(variables))
    for var, coeff in lp.objective.terms.items():
        c[index[var]] = sign * coeff

    A_ub = b_ub = A_eq = b_eq = None
    if ub:
        A_ub, b_ub = _csr(ub, index)
    if eq:
        A_eq, b_eq = _csr(eq, index)

    res = linprog(
        c,
        A_ub=A_ub,
        b_ub=b_ub,
        A_eq=A_eq,
        b_eq=b_eq,
        bounds=(0, None),
        method="highs",
    )
    if res.status == 2:
        return LpSolution("infeasible")
    if res.status == 3:
        return LpSolution("unbounded")
    if res.status != 0:
        raise NumericalFailureError(f"HiGHS failed: {res.message}")
    value = sign * float(res.fun) + lp.objective.constant
    return LpSolution("optimal", value=value, assignment=ArrayAssignment(index, res.x))


def _csr(block, index: dict[str, int]):
    """Sparse matrix and right-hand side of (coefficients, bound) rows."""
    from scipy.sparse import csr_matrix

    # preallocated fill keeps peak memory flat on big programs
    nnz = sum(len(coeffs) for coeffs, _ in block)
    data = np.empty(nnz)
    rix = np.empty(nnz, dtype=np.int32)
    cix = np.empty(nnz, dtype=np.int32)
    rhs = np.empty(len(block))
    k = 0
    for r, (coeffs, bound) in enumerate(block):
        rhs[r] = bound
        for var, coeff in coeffs.items():
            data[k] = coeff
            rix[k] = r
            cix[k] = index[var]
            k += 1
    return csr_matrix((data, (rix, cix)), shape=(len(block), len(index))), rhs
