"""Linear programs over nonnegative variables, and their solver.

Two forms of one program.  ``LinearProgram`` holds rows of ``LinSum``
dicts keyed by variable name: the API for small hand-built programs, the
LP-format reader and writer, and fractional bag widths.  ``SparseLp``
holds the rows as flat arrays over integer columns, ordered by variable
name; the interpretations compile to it directly through ``LpBuilder``.
Every program is solved by HiGHS through ``scipy.optimize.linprog`` from
a ``SparseLp``: a ``LinearProgram`` is converted first (``normalized``
moves each row's terms left), so there is one path to the solver.  The
tests cross-check it against a vertex enumeration oracle.

Conventions: every variable is implicitly >= 0; ``maximize`` is handed to
the solver as ``minimize -objective`` with the reported value negated back.

Tolerance: 1e-7 for constant rows and for ``LinConstraint.satisfied_by``,
fixed here so results are reproducible.
"""

from __future__ import annotations

from array import array
from collections.abc import Mapping as MappingABC
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

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

    Column j is the variable ``names[j]``, and the names are sorted: HiGHS's
    simplex path, and with it the optimal vertex it returns, depends on the
    column order, so the order is fixed by name however a program was built.
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


class LpSolution:
    __slots__ = ("status", "value", "assignment", "nonzeros")

    def __init__(self, status: str, value=None, assignment=None, nonzeros: int = 0):
        self.status = status  # optimal | infeasible | unbounded
        self.value = value
        self.assignment = assignment if assignment is not None else {}
        self.nonzeros = nonzeros  # of the matrix rows, as handed to HiGHS

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


def solve(lp: LinearProgram | SparseLp) -> LpSolution:
    """Solve a finite LP with HiGHS through ``scipy.optimize.linprog``.

    A ``LinearProgram`` is converted to its ``SparseLp`` first, so every
    program reaches HiGHS the same way.  A row left without terms is
    checked against its bound and not sent.
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
        return LpSolution("infeasible", nonzeros=A.nnz)
    if not n:
        return LpSolution("optimal", value=lp.obj_const, assignment=ArrayAssignment([], np.zeros(0)))

    # looked up per call, so a wrapper installed on scipy.optimize.linprog
    # after this module was imported still sees every solve
    from scipy.optimize import linprog

    sign = -1.0 if lp.sense == "maximize" else 1.0  # linprog minimizes
    c = np.zeros(n)
    c[lp.obj_cols] = sign * lp.obj_vals

    ub = np.flatnonzero(~empty & ~lp.eq)
    eq = np.flatnonzero(~empty & lp.eq)
    A_ub = A[ub] if ub.size else None
    A_eq = A[eq] if eq.size else None
    nonzeros = A.nnz
    del A  # the row selections are copies; HiGHS sets the peak memory
    res = linprog(
        c,
        A_ub=A_ub,
        b_ub=bound[ub] if ub.size else None,
        A_eq=A_eq,
        b_eq=bound[eq] if eq.size else None,
        bounds=(0, None),
        method="highs",
    )
    if res.status == 2:
        return LpSolution("infeasible", nonzeros=nonzeros)
    if res.status == 3:
        return LpSolution("unbounded", nonzeros=nonzeros)
    if res.status != 0:
        raise NumericalFailureError(f"HiGHS failed: {res.message}")
    value = sign * float(res.fun) + lp.obj_const
    return LpSolution(
        "optimal", value=value, assignment=ArrayAssignment(lp.names, res.x), nonzeros=nonzeros
    )
