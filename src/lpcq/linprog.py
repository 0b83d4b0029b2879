"""Linear programs over nonnegative variables, and their solver.

``SparseLp`` is the one form of a linear program: its rows as flat arrays
over integer columns, ordered by variable name.  The interpretations and
fractional bag widths build it through ``LpBuilder``, row by row or in
bulk; the LP-format writer and ``--explain`` read it back row by row.
Every program is solved by HiGHS through ``scipy.optimize.linprog``, from
the matrices ``SparseLp.matrices`` builds.  Those hand HiGHS each distinct
column once: columns with the same cost and the same entries (in the
natural LP, the answers that differ only in witnesses no weight reads) are
one column to the solver, found exactly by ``_representatives``.  The
call follows the LP's shape (``choose_method``), in three ways: an LP with
equality rows goes to the interior point solver (``highs-ipm``); one whose
rows the origin x = 0 satisfies (no equality rows, every bound >= 0, as in
the natural LPs) to primal simplex from the slack basis without presolve;
any other to ``highs``, dual simplex after presolve.  Every optimum is put
back on the program's columns, each group's value on its lowest column,
and checked against the rows and bounds sent (``certify``) before it is
returned.  The tests cross-check the solver against a vertex enumeration
oracle.

Conventions: every variable is implicitly >= 0; ``maximize`` is handed to
the solver as ``minimize -objective`` with the reported value negated back.

Tolerance: 1e-7 for rows without terms, and 1e-7 times max(1, the largest
right-hand side) for the certificate, fixed here so results are
reproducible.
"""

from __future__ import annotations

import warnings
from array import array
from collections.abc import Mapping as MappingABC
from dataclasses import asdict, dataclass, fields
from typing import Iterator, Sequence

import numpy as np

from .errors import CertificateError, NumericalFailureError
from .relations import ranges

FEAS_TOL = 1e-7

# The HiGHS options beyond ``linprog``'s defaults for an LP the origin
# satisfies: no presolve, and HiGHS's simplex strategy 4, primal simplex.
# ``linprog`` knows no ``simplex_strategy`` option; it passes it to HiGHS
# verbatim, with an OptimizeWarning that ``solve`` filters.
PRIMAL_FROM_ORIGIN = {"presolve": False, "simplex_strategy": 4}

# entries per step of the loops that keep their temporary arrays small:
# renumbering columns in ``LpBuilder.build``, comparing them in
# ``_same_entries``
_STEP = 1 << 20


Side = tuple[float, Sequence[int], Sequence[float]]
"""One side of a row: its constant, and its columns with their coefficients,
each column at most once."""


@dataclass(eq=False, slots=True)
class SparseLp:
    """A linear program over integer columns, in flat arrays: the form that
    ``solve`` reads (``matrices`` builds what HiGHS gets from it).

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
        """The program as ``solve`` hands it to HiGHS: a row's entries summed
        per column and exact zeros dropped, each bound ``rconst - lconst``,
        and one column for each group of identical columns.

        Columns with the same cost and the same entries are one column to
        the solver (``_representatives``); it stands for its group, whose
        lowest column is the one sent.  The full matrix is freed on return,
        before HiGHS runs."""
        from scipy.sparse import csr_matrix

        n = len(self.names)
        A = csr_matrix(
            (self.vals, self.cols, self.indptr),
            shape=(self.row_count, n), dtype=float, copy=True,
        )
        A.sum_duplicates()  # a column on both sides of a row
        A.eliminate_zeros()  # ... whose terms cancel
        c = np.zeros(n)
        c[self.obj_cols] = (-1.0 if self.sense == "maximize" else 1.0) * self.obj_vals
        representative = _representatives(A, c)
        sent = representative == np.arange(n)
        columns = np.flatnonzero(sent)
        group = (np.cumsum(sent) - 1)[representative]
        if len(columns) < n:
            A = A[:, columns]
        bound = self.rconst - self.lconst
        empty = A.indptr[1:] == A.indptr[:-1]
        holds = np.where(self.eq, np.abs(bound) <= FEAS_TOL, bound >= -FEAS_TOL)

        def select(mask):
            rows = np.flatnonzero(mask)
            return (A[rows], bound[rows]) if rows.size else (None, None)

        return Matrices(
            c[columns], *select(~empty & ~self.eq), *select(~empty & self.eq),
            columns=columns, group=group, nonzeros=A.nnz,
            constants_hold=bool(holds[empty].all()),
        )

    def __repr__(self) -> str:
        return f"SparseLp({self.sense}, {len(self.names)} columns, {self.row_count} rows)"


class LpBuilder:
    """The columns and rows of a program being compiled.

    Columns come in blocks of names, and rows name a column by its position
    in the order the blocks were added.  ``build`` sorts the names once and
    renumbers every column to its sorted place.  Rows come one at a time
    (``row``), appended to ``array`` buffers so that a row costs no numpy
    call, or in bulk (``rows``), kept as the caller's arrays; both are
    chunks in the order they came, joined once by ``build``.
    """

    def __init__(self):
        self.names: list[str] = []
        self._chunks: list[tuple] = []  # (cols, vals, split, indptr, lconst, rconst, eq, counts)
        self._entries = 0  # in the chunks
        self._open()
        self._place: np.ndarray | None = None

    def _open(self) -> None:
        self.cols = array("q")
        self.vals = array("d")
        self.split = array("q")
        self.indptr = array("q")
        self.lconst = array("d")
        self.rconst = array("d")
        self.eq = bytearray()

    def _seal(self) -> None:
        """Close the run of rows added one at a time as a chunk."""
        if self.eq:
            self._chunks.append((
                np.frombuffer(self.cols, dtype=np.int64), np.frombuffer(self.vals),
                np.frombuffer(self.split, dtype=np.int64),
                np.frombuffer(self.indptr, dtype=np.int64), np.frombuffer(self.lconst),
                np.frombuffer(self.rconst), np.frombuffer(self.eq, dtype=np.bool_), None,
            ))
            self._entries += len(self.cols)
            self._open()

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
        self.split.append(self._entries + len(self.cols))
        if rcols:
            self.cols.extend(rcols)
            self.vals.extend([-v for v in rvals])
        self.indptr.append(self._entries + len(self.cols))
        self.lconst.append(lconst)
        self.rconst.append(rconst)
        self.eq.append(rel == "=")

    def rows(self, lconst: np.ndarray, rconst: np.ndarray, eq: np.ndarray,
             counts: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> None:
        """Append ``len(eq)`` rows as ``row`` would: row r's sides hold the
        next ``counts[2r]`` and ``counts[2r + 1]`` terms of ``cols`` and
        ``vals`` and the constants ``lconst[r]`` and ``rconst[r]``.  The
        int64 ``cols`` and float ``vals`` are taken over, not copied:
        ``build`` renumbers and negates them in place."""
        self._seal()
        ends = np.cumsum(counts, dtype=np.int64) + self._entries
        self._chunks.append((np.asarray(cols, dtype=np.int64), np.asarray(vals, dtype=float),
                             ends[0::2], ends[1::2], lconst, rconst, eq, counts))
        self._entries += len(cols)

    def build(self, sense: str, objective: Side) -> SparseLp:
        """The program, with every row added so far; ``build`` runs once.
        Rows added in one chunk keep their arrays, renumbered in place, and
        more chunks are joined.  An int64 array of the objective's columns
        is renumbered in place too."""
        if sense not in ("maximize", "minimize"):
            raise ValueError(f"bad sense {sense!r}")
        order = sorted(range(len(self.names)), key=self.names.__getitem__)
        place = np.empty(len(order), dtype=np.int64)
        place[order] = np.arange(len(order))
        self._place = place
        self._seal()
        chunks, self._chunks = self._chunks, []
        for cols, vals, *_, counts in chunks:
            for at in range(0, len(cols), _STEP):
                cols[at:at + _STEP] = place[cols[at:at + _STEP]]
            if counts is not None:  # right sides negated
                right = np.repeat(np.arange(len(counts)) % 2 == 1, counts)
                np.negative(vals, out=vals, where=right)

        def joined(k: int, dtype) -> np.ndarray:
            parts = [np.ascontiguousarray(chunk[k], dtype=dtype) for chunk in chunks]
            return parts[0] if len(parts) == 1 else np.concatenate([np.zeros(0, dtype), *parts])

        cols, vals, split, indptr, lconst, rconst, eq = (
            joined(k, dtype)
            for k, dtype in enumerate((np.int64, float, np.int64, np.int64, float, float, np.bool_))
        )
        constant, obj_cols, obj_vals = objective
        obj_cols = np.asarray(obj_cols, dtype=np.int64)
        obj_cols[:] = place[obj_cols]
        return SparseLp(
            sense=sense,
            names=[self.names[i] for i in order],
            obj_const=float(constant),
            obj_cols=obj_cols,
            obj_vals=np.asarray(obj_vals, dtype=float),
            lconst=lconst,
            rconst=rconst,
            eq=eq,
            indptr=np.concatenate(([0], indptr)),
            split=split,
            cols=cols,
            vals=vals,
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
    """One call to HiGHS: the method, the HiGHS options passed beyond
    ``linprog``'s defaults (``{}`` for none), and how it ended (scipy's
    status code and message, its iteration count, and crossover's for
    ``highs-ipm``)."""

    method: str
    options: dict
    status: int
    message: str
    nit: int
    crossover_nit: int | None

    @classmethod
    def of(cls, method: str, options: dict, res) -> "HighsCall":
        crossover = res.get("crossover_nit") if method == "highs-ipm" else None
        return cls(
            method,
            dict(options),
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
    max|A_eq x - b_eq|, each ``inf`` if a residual is not a finite number,
    ``most_negative`` is the smallest coordinate below 0 (else 0, and
    ``-inf`` if a coordinate is not a finite number), and ``clipped_mass``
    is the total that reading values through ``ArrayAssignment`` or
    ``LpSolution.values`` clips away from negative coordinates.  The point
    passes when ``violation``, the largest of the row violations and
    ``-most_negative``, is within ``tolerance``: ``FEAS_TOL * max(1,
    |b|_inf)`` over the right-hand sides sent.
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


def certify(x: np.ndarray, A_ub, b_ub, A_eq, b_eq, y: np.ndarray | None = None) -> Certificate:
    """The primal certificate of *x* for ``A_ub y <= b_ub, A_eq y = b_eq,
    x >= 0``, where the rows read *y*, *x* itself unless given; a matrix
    and its bound may be None for no rows.  A residual that is not a finite
    number is a violation of ``inf``, and so is a coordinate that is not
    one (read as ``most_negative = -inf``)."""
    y = x if y is None else y
    ub_violation = eq_violation = 0.0
    scale = 1.0
    if A_ub is not None:
        ub_violation = _largest(A_ub @ y - b_ub)
        scale = max(scale, float(np.abs(b_ub).max()))
    if A_eq is not None:
        eq_violation = _largest(np.abs(A_eq @ y - b_eq))
        scale = max(scale, float(np.abs(b_eq).max()))
    negative = x[x < 0]
    most_negative = float(negative.min()) if negative.size else 0.0
    return Certificate(
        ub_violation=ub_violation,
        eq_violation=eq_violation,
        most_negative=most_negative if np.isfinite(x).all() else -np.inf,
        clipped_mass=abs(float(negative.sum())),
        tolerance=FEAS_TOL * scale,
    )


def _largest(residuals: np.ndarray) -> float:
    """The largest of *residuals* and 0; ``inf`` if one is not a finite
    number, where ``max(0.0, nan)`` would read 0."""
    return float(residuals.max(initial=0.0)) if np.isfinite(residuals).all() else np.inf


def _column_digest(A) -> np.ndarray:
    """A float per column of the CSR matrix *A*: its entries times a fixed
    pseudo-random weight per row, summed in row order.  Identical columns
    add the same terms in the same order, so they get the same digest;
    columns with the same digest need not be identical."""
    return A.T @ np.random.default_rng(0).random(A.shape[0])


def _representatives(A, cost: np.ndarray) -> np.ndarray:
    """For each column of the canonical CSR matrix *A*, the lowest column
    with the same *cost* and the same entries, row by row and bit for bit
    (Andersen and Andersen's duplicate columns, 1995).

    Columns are sorted by entry count, cost and ``_column_digest``; in each
    run of equal keys the lowest column leads, and every other column of
    the run is compared with it entry by entry.  Those that differ (a
    digest collision) are sorted again among themselves, until none are
    left.  Over x >= 0 with equal costs, merging a group into one column is
    exact: the optimum and the verdict stay, and a vertex of the merged LP,
    its value on the lowest column of each group and 0 on the rest, is a
    vertex of the original."""
    n = A.shape[1]
    representative = np.arange(n)
    counts = np.bincount(A.indices, minlength=n)
    digest = _column_digest(A)
    todo, by_column = np.arange(n), None
    while todo.size > 1:
        order = todo[np.lexsort((digest[todo], cost[todo], counts[todo]))]  # stable
        a, b = order[:-1], order[1:]
        follows = np.concatenate(([False], (counts[a] == counts[b]) & (cost[a] == cost[b])
                                  & (digest[a] == digest[b])))
        if not follows.any():
            break
        lead = order[np.maximum.accumulate(np.where(follows, 0, np.arange(len(order))))]
        followers, leaders = order[follows], lead[follows]
        if by_column is None:
            by_column = A.tocsc()  # sorted rows in each column
        same = _same_entries(by_column, followers, leaders)
        representative[followers[same]] = leaders[same]
        todo = np.sort(followers[~same])
    return representative


def _same_entries(A, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Whether column ``left[k]`` of the CSC matrix *A*, with sorted rows,
    has the rows and values of column ``right[k]``, which has as many
    entries; compared in slices of about ``_STEP`` entries."""
    counts = np.diff(A.indptr)[left]
    same = np.ones(len(left), dtype=bool)
    cuts = np.searchsorted(np.cumsum(counts), np.arange(_STEP, counts.sum(), _STEP))
    for lo, hi in zip([0, *cuts.tolist()], [*cuts.tolist(), len(left)]):
        width = counts[lo:hi]
        p, q = ranges(A.indptr[left[lo:hi]], width), ranges(A.indptr[right[lo:hi]], width)
        differs = (A.indices[p] != A.indices[q]) | (A.data[p] != A.data[q])
        same[np.repeat(np.arange(lo, hi), width)[differs]] = False
    return same


@dataclass(frozen=True, slots=True)
class Matrices:
    """A program as HiGHS gets it (``SparseLp.matrices``): minimize
    ``c y`` subject to ``A_ub y <= b_ub`` and ``A_eq y = b_eq``, y >= 0, in
    CSR form, a pair None when it has no rows.  Rows without terms are not
    among them; ``constants_hold`` says whether each of those meets its
    bound within ``FEAS_TOL``.  ``nonzeros`` counts the entries of both
    matrices.

    Column k of y is the program's column ``columns[k]``, the lowest of a
    group of identical columns; ``group[j]`` is the position in y of the
    column that stands for the program's column j."""

    c: np.ndarray
    A_ub: object
    b_ub: np.ndarray | None
    A_eq: object
    b_eq: np.ndarray | None
    columns: np.ndarray
    group: np.ndarray
    nonzeros: int
    constants_hold: bool

    def expand(self, y: np.ndarray) -> np.ndarray:
        """The program's point for the solver's point *y*: each group's
        value on its lowest column, 0 on the others."""
        x = np.zeros(len(self.group))
        x[self.columns] = y
        return x

    def certify(self, x: np.ndarray) -> Certificate:
        """The primal certificate of *x*, a point over the program's
        columns, against these rows.  The columns of a group are equal, so
        the rows read the sum of the group's values."""
        summed = np.bincount(self.group, weights=x, minlength=len(self.columns))
        return certify(x, self.A_ub, self.b_ub, self.A_eq, self.b_eq, summed)


@dataclass(frozen=True, slots=True)
class SolverReport:
    """How ``solve`` reached its verdict: why the rule chose the method of
    ``call``, that call, the ``highs`` re-solve when it ended without a
    verdict, the certificate of an optimum, and how many columns the
    matrices handed to HiGHS have.  ``call`` is None when ``solve``
    decided without HiGHS."""

    reason: str
    call: HighsCall | None = None
    fallback: HighsCall | None = None
    certificate: Certificate | None = None
    columns: int = 0

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
            "columns": self.columns,
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


def choose_method(equality_rows: int, origin_feasible: bool) -> tuple[str, dict, str]:
    """The HiGHS method and options for an LP with *equality_rows* equality
    rows sent to the solver, whose rows the origin x = 0 satisfies when
    *origin_feasible* (every bound sent is >= 0), and why.

    An LP with equality rows goes to the interior point solver with
    crossover (``highs-ipm``): on the factorized LPs, which are mostly
    per-edge marginal equalities, dual simplex takes thousands of
    iterations where the interior point solver takes about ten, and
    crossover still returns a basic optimal solution.  An LP that the
    origin satisfies (the natural LPs, packing LPs with ``<=`` rows and
    bounds >= 0) goes to ``highs`` with ``PRIMAL_FROM_ORIGIN``: the slack
    basis is a feasible vertex, so primal simplex starts from it, and
    presolve, which costs more there than the simplex run itself, is
    skipped.  Any other LP (the origin violates a row) goes to ``highs``
    as it is, dual simplex after presolve.
    """
    if equality_rows:
        return "highs-ipm", {}, f"{equality_rows} equality rows sent"
    if origin_feasible:
        return "highs", PRIMAL_FROM_ORIGIN, "no equality rows sent; the origin satisfies every row"
    return "highs", {}, "no equality rows sent; the origin violates a row"


def solve(lp: SparseLp) -> LpSolution:
    """Solve a finite LP with HiGHS through ``scipy.optimize.linprog``.

    HiGHS gets the program as ``lp.matrices()`` builds it: one column per
    group of identical columns, and no row left without terms (such a row
    is checked against its bound instead).  The method and options are
    chosen by ``choose_method``.  When a call other than plain ``highs``
    ends without a verdict (say, ``highs-ipm`` with status 4 on a small
    infeasible LP), the same matrices are solved again with plain
    ``highs`` before ``NumericalFailureError`` is raised.  An optimum
    puts each group's value on its lowest column and 0 on the others
    (``Matrices.expand``), and that point is checked against the rows and
    bounds (``certify``); one beyond tolerance raises ``CertificateError``.
    """
    rows = lp.matrices()
    columns = len(rows.columns)
    if not rows.constants_hold:
        return LpSolution(
            "infeasible", nonzeros=rows.nonzeros,
            solver=SolverReport("a row without terms violates its bound", columns=columns),
        )
    if not columns:
        return LpSolution(
            "optimal", value=lp.obj_const, assignment=ArrayAssignment([], np.zeros(0)),
            solver=SolverReport("no variables", certificate=rows.certify(np.zeros(0))),
        )

    # looked up per call, so a wrapper installed on scipy.optimize.linprog
    # after this module was imported still sees every solve
    from scipy.optimize import OptimizeWarning, linprog

    def call(method: str, options: dict):
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "Unrecognized options", OptimizeWarning)
            res = linprog(
                rows.c, A_ub=rows.A_ub, b_ub=rows.b_ub, A_eq=rows.A_eq, b_eq=rows.b_eq,
                bounds=(0, None), method=method, options=options,
            )
        return res, HighsCall.of(method, options, res)

    method, options, reason = choose_method(
        0 if rows.A_eq is None else rows.A_eq.shape[0],
        rows.b_ub is None or bool((rows.b_ub >= 0).all()),
    )
    res, first = call(method, options)
    fallback = None
    if first.status not in _VERDICTS and (method, options) != ("highs", {}):
        res, fallback = call("highs", {})
    final = fallback or first
    if final.status not in _VERDICTS:
        raise NumericalFailureError(f"HiGHS failed: {final.message}")
    status = _VERDICTS[final.status]
    if status != "optimal":
        return LpSolution(
            status, nonzeros=rows.nonzeros,
            solver=SolverReport(reason, first, fallback, columns=columns),
        )

    x = rows.expand(res.x)
    certificate = rows.certify(x)
    if not certificate.ok:
        raise CertificateError(
            f"the optimum HiGHS returned violates a row or bound by "
            f"{certificate.violation:.3g} (tolerance {certificate.tolerance:.3g})",
            certificate,
        )
    sign = -1.0 if lp.sense == "maximize" else 1.0  # linprog minimizes
    value = sign * float(res.fun) + lp.obj_const
    return LpSolution(
        "optimal", value=value, assignment=ArrayAssignment(lp.names, x),
        nonzeros=rows.nonzeros,
        solver=SolverReport(reason, first, fallback, certificate, columns),
    )
