"""Linear programs over nonnegative variables, and their solver.

Two forms of one program.  ``LinearProgram`` holds rows of ``LinSum``
dicts keyed by variable name: the API for small hand-built programs, the
LP-format reader and writer, and fractional bag widths.  ``SparseLp``
holds the rows as flat arrays over integer columns, ordered by variable
name; the interpretations compile to it directly through ``LpBuilder``.
Every program is solved by HiGHS through ``scipy.optimize.linprog`` from
a ``SparseLp``: a ``LinearProgram`` is converted first (``normalized``
moves each row's terms left), so there is one path to the solver.  The
method follows the LP's shape (``choose_method``), and every optimum is
checked against the rows and bounds sent (``certify``) before it is
returned.  The tests cross-check the solver against a vertex enumeration
oracle.

Conventions: every variable is implicitly >= 0; ``maximize`` is handed to
the solver as ``minimize -objective`` with the reported value negated back.

Tolerance: 1e-7 for constant rows and for ``LinConstraint.satisfied_by``,
and 1e-7 times max(1, the largest right-hand side) for the certificate,
fixed here so results are reproducible.
"""

from __future__ import annotations

from array import array
from collections.abc import Mapping as MappingABC
from dataclasses import asdict, dataclass, fields
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import CertificateError, NumericalFailureError, UnboundVariableError

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


Side = tuple[float, Sequence[int], Sequence[float]]
"""One side of a row: its constant, and its columns with their coefficients,
each column at most once."""


@dataclass(eq=False, slots=True)
class SparseLp:
    """A linear program over integer columns, in flat arrays: the form that
    ``solve`` hands to HiGHS.

    Column j is the variable ``names[j]``, and the names are sorted: the
    optimal vertex HiGHS returns depends on the column order, with dual
    simplex and with the interior point solver's crossover alike, so the
    order is fixed by name however a program was built.
    Row r owns the entries ``indptr[r]:indptr[r + 1]`` of ``cols`` and
    ``vals``: the terms of its left side up to ``split[r]``, then those of
    its right side negated, so a row's entries add up to lhs - rhs.
    ``lconst`` and ``rconst`` hold the sides' constants, and ``eq[r]`` is
    true for an equality row.  Only ``program`` reads the split, to give
    back each side as it was written.
    """

    sense: str
    names: list[str]
    obj_const: float
    obj_cols: np.ndarray
    obj_vals: np.ndarray
    lconst: np.ndarray
    rconst: np.ndarray
    eq: np.ndarray
    indptr: np.ndarray
    split: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    @property
    def row_count(self) -> int:
        return len(self.eq)

    @classmethod
    def from_program(cls, lp: LinearProgram) -> "SparseLp":
        """*lp* with every row's terms moved to the left by ``normalized``."""
        builder = LpBuilder()
        names = lp.variables()
        builder.block(names)
        index = {v: i for i, v in enumerate(names)}
        for con in lp.constraints:
            coeffs, rel, bound = con.normalized()
            builder.row(
                (0.0, [index[v] for v in coeffs], list(coeffs.values())),
                rel,
                (bound, (), ()),
            )
        obj = lp.objective
        return builder.build(
            lp.sense,
            (obj.constant, [index[v] for v in obj.terms], list(obj.terms.values())),
        )

    def program(self) -> LinearProgram:
        """The same program as a ``LinearProgram`` over the column names."""
        names = self.names
        cols = self.cols.tolist()
        vals = self.vals.tolist()
        bounds = self.indptr.tolist()
        splits = self.split.tolist()

        def side(constant, lo, hi, sign):
            return LinSum(constant, {names[cols[k]]: sign * vals[k] for k in range(lo, hi)})

        constraints = [
            LinConstraint(
                side(lc, lo, mid, 1.0), "=" if eq else "<=", side(rc, mid, hi, -1.0)
            )
            for lc, rc, eq, lo, mid, hi in zip(
                self.lconst.tolist(), self.rconst.tolist(), self.eq.tolist(),
                bounds, splits, bounds[1:],
            )
        ]
        objective = LinSum(
            self.obj_const,
            {names[c]: v for c, v in zip(self.obj_cols.tolist(), self.obj_vals.tolist())},
        )
        return LinearProgram(self.sense, objective, constraints, declared=names)

    def __repr__(self) -> str:
        return f"SparseLp({self.sense}, {len(self.names)} columns, {self.row_count} rows)"


class LpBuilder:
    """The columns and rows of a program being compiled, in flat arrays.

    Columns come in blocks of names, and rows name a column by its position
    in the order the blocks were added.  ``build`` sorts the names once and
    renumbers every column to its sorted place.  Rows are appended to
    ``array`` buffers and turned into numpy arrays once, so a row costs no
    numpy call.
    """

    def __init__(self):
        self.names: list[str] = []
        self.cols = array("q")
        self.vals = array("d")
        self.indptr = array("q", [0])
        self.split = array("q")
        self.lconst = array("d")
        self.rconst = array("d")
        self.eq = bytearray()
        self._place: np.ndarray | None = None

    def block(self, names: Sequence[str]) -> int:
        """Add one column per name; returns the position of the first."""
        start = len(self.names)
        self.names.extend(names)
        return start

    def row(self, lhs: Side, rel: str, rhs: Side) -> None:
        lconst, lcols, lvals = lhs
        rconst, rcols, rvals = rhs
        self.cols.extend(lcols)
        self.vals.extend(lvals)
        self.split.append(len(self.cols))
        if rcols:
            self.cols.extend(rcols)
            self.vals.extend([-v for v in rvals])
        self.indptr.append(len(self.cols))
        self.lconst.append(lconst)
        self.rconst.append(rconst)
        self.eq.append(rel == "=")

    def build(self, sense: str, objective: Side) -> SparseLp:
        if sense not in ("maximize", "minimize"):
            raise ValueError(f"bad sense {sense!r}")
        order = sorted(range(len(self.names)), key=self.names.__getitem__)
        place = np.empty(len(order), dtype=np.int64)
        place[order] = np.arange(len(order))
        self._place = place
        constant, obj_cols, obj_vals = objective
        return SparseLp(
            sense=sense,
            names=[self.names[i] for i in order],
            obj_const=float(constant),
            obj_cols=place[np.asarray(obj_cols, dtype=np.int64)],
            obj_vals=np.asarray(obj_vals, dtype=float),
            lconst=np.frombuffer(self.lconst, dtype=float),
            rconst=np.frombuffer(self.rconst, dtype=float),
            eq=np.frombuffer(self.eq, dtype=np.bool_),
            indptr=np.frombuffer(self.indptr, dtype=np.int64),
            split=np.frombuffer(self.split, dtype=np.int64),
            cols=place[np.frombuffer(self.cols, dtype=np.int64)],
            vals=np.frombuffer(self.vals, dtype=float),
        )

    def columns(self, start: int, count: int) -> np.ndarray:
        """Sorted places of the *count* columns from *start*; after ``build``."""
        return self._place[start:start + count]


class ArrayAssignment(MappingABC):
    """Mapping view over a solver's solution vector; avoids one dict per
    variable on million-column programs.  The name index is built on the
    first lookup by name."""

    __slots__ = ("_names", "_index", "_x")

    def __init__(self, names: list[str], x):
        self._names = names
        self._index: dict[str, int] | None = None
        self._x = x

    def __getitem__(self, key: str) -> float:
        if self._index is None:
            self._index = {v: i for i, v in enumerate(self._names)}
        return max(0.0, float(self._x[self._index[key]]))

    def columns(self, cols) -> list[float]:
        """Values at the column positions *cols*, clipped at 0 like lookups."""
        return [max(0.0, v) for v in self._x[cols].tolist()]

    def __iter__(self):
        return iter(self._names)

    def __len__(self) -> int:
        return len(self._names)


@dataclass(frozen=True, slots=True)
class HighsCall:
    """One call to HiGHS: the method, and how it ended (scipy's status code
    and message, its iteration count, and crossover's for ``highs-ipm``)."""

    method: str
    status: int
    message: str
    nit: int
    crossover_nit: int | None

    @classmethod
    def of(cls, method: str, res) -> "HighsCall":
        crossover = res.get("crossover_nit") if method == "highs-ipm" else None
        return cls(
            method,
            int(res.status),
            str(res.message),
            int(res.get("nit") or 0),
            None if crossover is None else int(crossover),
        )


@dataclass(frozen=True, slots=True)
class Certificate:
    """How far an optimal point is from feasible, in the rows ``solve``
    handed to HiGHS and in the bounds x >= 0.

    ``ub_violation`` is max((A_ub x - b_ub)+), ``eq_violation`` is
    max|A_eq x - b_eq|, ``most_negative`` is the smallest coordinate below
    0 (else 0), and ``clipped_mass`` is the total that reading values
    through ``ArrayAssignment`` or ``LpSolution.values`` clips away from
    negative coordinates.  The point passes when ``violation``, the largest
    of the row violations and ``-most_negative``, is within ``tolerance``:
    ``FEAS_TOL * max(1, |b|_inf)`` over the right-hand sides sent.
    """

    ub_violation: float
    eq_violation: float
    most_negative: float
    clipped_mass: float
    tolerance: float

    @property
    def violation(self) -> float:
        return max(self.ub_violation, self.eq_violation, -self.most_negative)

    @property
    def ok(self) -> bool:
        return self.violation <= self.tolerance

    def as_dict(self) -> dict:
        return {"violation": self.violation, **asdict(self)}


def certify(x: np.ndarray, A_ub, b_ub, A_eq, b_eq) -> Certificate:
    """The primal certificate of *x* for ``A_ub x <= b_ub, A_eq x = b_eq,
    x >= 0``; a matrix and its bound may be None for no rows."""
    ub_violation = eq_violation = 0.0
    scale = 1.0
    if A_ub is not None:
        ub_violation = max(0.0, float((A_ub @ x - b_ub).max()))
        scale = max(scale, float(np.abs(b_ub).max()))
    if A_eq is not None:
        eq_violation = float(np.abs(A_eq @ x - b_eq).max())
        scale = max(scale, float(np.abs(b_eq).max()))
    negative = x[x < 0]
    return Certificate(
        ub_violation=ub_violation,
        eq_violation=eq_violation,
        most_negative=float(negative.min()) if negative.size else 0.0,
        clipped_mass=abs(float(negative.sum())),
        tolerance=FEAS_TOL * scale,
    )


@dataclass(frozen=True, slots=True)
class SolverReport:
    """How ``solve`` reached its verdict: why the rule chose the method of
    ``call``, that call, the ``highs`` re-solve when it ended without a
    verdict, and the certificate of an optimum.  ``call`` is None when
    ``solve`` decided without HiGHS."""

    reason: str
    call: HighsCall | None = None
    fallback: HighsCall | None = None
    certificate: Certificate | None = None

    @property
    def method(self) -> str | None:
        return self.call.method if self.call else None

    def as_dict(self) -> dict:
        """The report as ``lpcq solve --json`` prints it, with the call's
        fields at the top level."""
        call = asdict(self.call) if self.call else dict.fromkeys(f.name for f in fields(HighsCall))
        return {
            **call,
            "reason": self.reason,
            "fallback": asdict(self.fallback) if self.fallback else None,
            "certificate": self.certificate.as_dict() if self.certificate else None,
        }


class LpSolution:
    __slots__ = ("status", "value", "assignment", "nonzeros", "solver")

    def __init__(
        self,
        status: str,
        value=None,
        assignment=None,
        nonzeros: int = 0,
        solver: SolverReport | None = None,
    ):
        self.status = status  # optimal | infeasible | unbounded
        self.value = value
        self.assignment = assignment if assignment is not None else {}
        self.nonzeros = nonzeros  # of the matrix rows, as handed to HiGHS
        self.solver = solver

    def values(self, names: Sequence[str], cols) -> list[float]:
        """Values of the variables *names*, at column positions *cols* of
        the program solved; read by column from a solver's vector."""
        if isinstance(self.assignment, ArrayAssignment):
            return self.assignment.columns(cols)
        return [max(0.0, self.assignment.get(name, 0.0)) for name in names]

    def __repr__(self) -> str:
        if self.status == "optimal":
            return f"LpSolution(optimal, value={self.value})"
        return f"LpSolution({self.status})"


# scipy's linprog status codes that are a verdict: optimal, infeasible, unbounded
_VERDICTS = {0: "optimal", 2: "infeasible", 3: "unbounded"}


def choose_method(equality_rows: int) -> tuple[str, str]:
    """The HiGHS method for an LP with *equality_rows* equality rows sent to
    the solver, and why.

    An LP with equality rows goes to the interior point solver with
    crossover (``highs-ipm``); any other LP to ``highs``, which runs dual
    simplex on these LPs.  On the factorized LPs, which are mostly
    per-edge marginal equalities, dual simplex takes thousands of
    iterations where the interior point solver takes about ten; crossover
    still returns a basic optimal solution.  The natural LPs have only
    inequality rows and keep the simplex call.
    """
    if equality_rows:
        return "highs-ipm", f"{equality_rows} equality rows sent"
    return "highs", "no equality rows sent"


def solve(lp: LinearProgram | SparseLp) -> LpSolution:
    """Solve a finite LP with HiGHS through ``scipy.optimize.linprog``.

    A ``LinearProgram`` is converted to its ``SparseLp`` first, so every
    program reaches HiGHS the same way.  A row left without terms is
    checked against its bound and not sent.  The method is chosen by
    ``choose_method``.  When ``highs-ipm`` ends without a verdict (say,
    status 4 on a small infeasible LP), the same matrices are solved again
    with ``highs`` before ``NumericalFailureError`` is raised.  An optimum is
    checked against the rows and bounds sent (``certify``); one beyond
    tolerance raises ``CertificateError``.
    """
    if isinstance(lp, LinearProgram):
        lp = SparseLp.from_program(lp)
    from scipy.sparse import csr_matrix

    n = len(lp.names)
    A = csr_matrix(
        (lp.vals, lp.cols, lp.indptr), shape=(lp.row_count, n), dtype=float, copy=True
    )
    A.sum_duplicates()  # a column on both sides of a row
    A.eliminate_zeros()  # ... whose terms cancel
    bound = lp.rconst - lp.lconst
    empty = A.indptr[1:] == A.indptr[:-1]
    ok = np.where(lp.eq, np.abs(bound) <= FEAS_TOL, bound >= -FEAS_TOL)
    if not ok[empty].all():
        return LpSolution(
            "infeasible", nonzeros=A.nnz,
            solver=SolverReport("a row without terms violates its bound"),
        )
    if not n:
        return LpSolution(
            "optimal", value=lp.obj_const, assignment=ArrayAssignment([], np.zeros(0)),
            solver=SolverReport(
                "no variables", certificate=certify(np.zeros(0), None, None, None, None)
            ),
        )

    # looked up per call, so a wrapper installed on scipy.optimize.linprog
    # after this module was imported still sees every solve
    from scipy.optimize import linprog

    sign = -1.0 if lp.sense == "maximize" else 1.0  # linprog minimizes
    c = np.zeros(n)
    c[lp.obj_cols] = sign * lp.obj_vals

    ub = np.flatnonzero(~empty & ~lp.eq)
    eq = np.flatnonzero(~empty & lp.eq)
    A_ub = A[ub] if ub.size else None
    b_ub = bound[ub] if ub.size else None
    A_eq = A[eq] if eq.size else None
    b_eq = bound[eq] if eq.size else None
    nonzeros = A.nnz
    del A  # the row selections are copies; HiGHS sets the peak memory

    def call(method: str):
        res = linprog(
            c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, bounds=(0, None), method=method
        )
        return res, HighsCall.of(method, res)

    method, reason = choose_method(eq.size)
    res, first = call(method)
    fallback = None
    if first.status not in _VERDICTS and method != "highs":
        res, fallback = call("highs")
    final = fallback or first
    if final.status not in _VERDICTS:
        raise NumericalFailureError(f"HiGHS failed: {final.message}")
    status = _VERDICTS[final.status]
    if status != "optimal":
        return LpSolution(status, nonzeros=nonzeros, solver=SolverReport(reason, first, fallback))

    x = res.x
    certificate = certify(x, A_ub, b_ub, A_eq, b_eq)
    if not certificate.ok:
        raise CertificateError(
            f"the optimum HiGHS returned violates a row or bound by "
            f"{certificate.violation:.3g} (tolerance {certificate.tolerance:.3g})",
            certificate,
        )
    value = sign * float(res.fun) + lp.obj_const
    return LpSolution(
        "optimal", value=value, assignment=ArrayAssignment(lp.names, x),
        nonzeros=nonzeros, solver=SolverReport(reason, first, fallback, certificate),
    )
