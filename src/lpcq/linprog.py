"""Linear programs over nonnegative variables, and their solver.

``SparseLp`` is the one form of a linear program: its rows as flat arrays
over integer columns, ordered by variable name.  The interpretations and
fractional bag widths build it through ``LpBuilder``, row by row or in
bulk; the LP-format writer and ``--explain`` read it back row by row.  Every program is solved by HiGHS through ``scipy.optimize.linprog``,
from the matrices ``SparseLp.matrices`` builds.  The method follows the
LP's shape (``choose_method``), and every optimum is checked against the
rows and bounds sent (``certify``) before it is returned.  The tests
cross-check the solver against a vertex enumeration oracle.

Conventions: every variable is implicitly >= 0; ``maximize`` is handed to
the solver as ``minimize -objective`` with the reported value negated back.

Tolerance: 1e-7 for rows without terms, and 1e-7 times max(1, the largest
right-hand side) for the certificate, fixed here so results are
reproducible.
"""

from __future__ import annotations

from array import array
from collections.abc import Mapping as MappingABC
from dataclasses import asdict, dataclass, fields
from typing import Iterator, Sequence

import numpy as np

from .errors import CertificateError, NumericalFailureError

FEAS_TOL = 1e-7


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
    true for an equality row.  ``rows`` reads the split, to give back each
    side as it was written.
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

    def rows(self) -> Iterator[tuple[Side, str, Side]]:
        """Each row as it was written, ``(lhs, rel, rhs)``, over the
        columns' sorted places."""
        cols, vals, bounds = self.cols.tolist(), self.vals.tolist(), self.indptr.tolist()
        for lc, rc, eq, lo, mid, hi in zip(
            self.lconst.tolist(), self.rconst.tolist(), self.eq.tolist(),
            bounds, self.split.tolist(), bounds[1:],
        ):
            yield (
                (lc, cols[lo:mid], vals[lo:mid]),
                "=" if eq else "<=",
                (rc, cols[mid:hi], [-v for v in vals[mid:hi]]),
            )

    def row_texts(self) -> Iterator[str]:
        """Each row as ``lhs rel rhs``, a side written ``1*x + -2*y + 3``:
        its terms in column order without zero coefficients, then its
        constant unless that is 0 and there are terms."""

        def text(constant, cols, vals):
            parts = [f"{v:g}*{self.names[c]}" for c, v in sorted(zip(cols, vals)) if v != 0.0]
            return " + ".join(parts + [f"{constant:g}"] if constant or not parts else parts)

        for lhs, rel, rhs in self.rows():
            yield f"{text(*lhs)} {rel} {text(*rhs)}"

    def matrices(self) -> Matrices:
        """The rows as ``solve`` hands them to HiGHS: a row's entries summed
        per column and exact zeros dropped, each bound ``rconst - lconst``.
        The full matrix is freed on return, before HiGHS runs."""
        from scipy.sparse import csr_matrix

        A = csr_matrix(
            (self.vals, self.cols, self.indptr),
            shape=(self.row_count, len(self.names)), dtype=float, copy=True,
        )
        A.sum_duplicates()  # a column on both sides of a row
        A.eliminate_zeros()  # ... whose terms cancel
        bound = self.rconst - self.lconst
        empty = A.indptr[1:] == A.indptr[:-1]
        holds = np.where(self.eq, np.abs(bound) <= FEAS_TOL, bound >= -FEAS_TOL)

        def select(mask):
            rows = np.flatnonzero(mask)
            return (A[rows], bound[rows]) if rows.size else (None, None)

        return Matrices(
            *select(~empty & ~self.eq), *select(~empty & self.eq),
            nonzeros=A.nnz, constants_hold=bool(holds[empty].all()),
        )

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

    def rows(self, lconst: np.ndarray, rconst: np.ndarray, eq: np.ndarray,
             counts: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> None:
        """Append ``len(eq)`` rows as ``row`` would: row r's sides hold the
        next ``counts[2r]`` and ``counts[2r + 1]`` terms of ``cols`` and
        ``vals`` and the constants ``lconst[r]`` and ``rconst[r]``."""
        ends = np.cumsum(counts, dtype=np.int64) + len(self.cols)
        for buffer, values in ((self.cols, cols), (self.vals, vals), (self.split, ends[0::2]),
                               (self.indptr, ends[1::2]), (self.lconst, lconst),
                               (self.rconst, rconst)):
            buffer.frombytes(np.ascontiguousarray(values, dtype=buffer.typecode).view(np.uint8))
        self.eq.extend(np.ascontiguousarray(eq, dtype=np.bool_).view(np.uint8))
        added = np.frombuffer(self.vals, dtype=float)[len(self.vals) - len(vals):]
        np.negative(added, out=added, where=np.repeat(np.arange(len(counts)) % 2 == 1, counts))

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
class Matrices:
    """A program's rows as HiGHS gets them (``SparseLp.matrices``):
    ``A_ub x <= b_ub`` and ``A_eq x = b_eq`` in CSR form, a pair None when
    it has no rows.  Rows without terms are not among them;
    ``constants_hold`` says whether each of those meets its bound within
    ``FEAS_TOL``.  ``nonzeros`` counts the entries of both matrices."""

    A_ub: object
    b_ub: np.ndarray | None
    A_eq: object
    b_eq: np.ndarray | None
    nonzeros: int
    constants_hold: bool

    def certify(self, x: np.ndarray) -> Certificate:
        """The primal certificate of *x* against these rows."""
        return certify(x, self.A_ub, self.b_ub, self.A_eq, self.b_eq)


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

    def values(self, cols) -> list[float]:
        """Values at the column positions *cols* of the program solved,
        clipped at 0; the solution must be optimal."""
        return self.assignment.columns(cols)

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


def solve(lp: SparseLp) -> LpSolution:
    """Solve a finite LP with HiGHS through ``scipy.optimize.linprog``.

    HiGHS gets the rows as ``lp.matrices()`` builds them; a row left
    without terms is checked against its bound and not sent.  The method is
    chosen by ``choose_method``.  When ``highs-ipm`` ends without a verdict
    (say, status 4 on a small infeasible LP), the same matrices are solved
    again with ``highs`` before ``NumericalFailureError`` is raised.  An
    optimum is checked against the rows and bounds sent (``certify``); one
    beyond tolerance raises ``CertificateError``.
    """
    rows = lp.matrices()
    if not rows.constants_hold:
        return LpSolution(
            "infeasible", nonzeros=rows.nonzeros,
            solver=SolverReport("a row without terms violates its bound"),
        )
    n = len(lp.names)
    if not n:
        return LpSolution(
            "optimal", value=lp.obj_const, assignment=ArrayAssignment([], np.zeros(0)),
            solver=SolverReport("no variables", certificate=rows.certify(np.zeros(0))),
        )

    # looked up per call, so a wrapper installed on scipy.optimize.linprog
    # after this module was imported still sees every solve
    from scipy.optimize import linprog

    sign = -1.0 if lp.sense == "maximize" else 1.0  # linprog minimizes
    c = np.zeros(n)
    c[lp.obj_cols] = sign * lp.obj_vals

    def call(method: str):
        res = linprog(
            c, A_ub=rows.A_ub, b_ub=rows.b_ub, A_eq=rows.A_eq, b_eq=rows.b_eq,
            bounds=(0, None), method=method,
        )
        return res, HighsCall.of(method, res)

    method, reason = choose_method(0 if rows.A_eq is None else rows.A_eq.shape[0])
    res, first = call(method)
    fallback = None
    if first.status not in _VERDICTS and method != "highs":
        res, fallback = call("highs")
    final = fallback or first
    if final.status not in _VERDICTS:
        raise NumericalFailureError(f"HiGHS failed: {final.message}")
    status = _VERDICTS[final.status]
    if status != "optimal":
        return LpSolution(
            status, nonzeros=rows.nonzeros, solver=SolverReport(reason, first, fallback)
        )

    x = res.x
    certificate = rows.certify(x)
    if not certificate.ok:
        raise CertificateError(
            f"the optimum HiGHS returned violates a row or bound by "
            f"{certificate.violation:.3g} (tolerance {certificate.tolerance:.3g})",
            certificate,
        )
    value = sign * float(res.fun) + lp.obj_const
    return LpSolution(
        "optimal", value=value, assignment=ArrayAssignment(lp.names, x),
        nonzeros=rows.nonzeros, solver=SolverReport(reason, first, fallback, certificate),
    )
