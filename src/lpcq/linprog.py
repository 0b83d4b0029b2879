"""Linear programs over nonnegative variables, and their solver.

``SparseLp`` is the one form of a linear program: its rows as flat arrays
over integer columns, ordered by variable name.  The interpretations and
fractional bag widths build it through ``LpBuilder``, row by row or in
bulk; the LP-format writer and ``--explain`` read it back row by row.
Columns known to be the same in every row are a class from the start, and
only its lead, its lowest column, has entries (``SparseLp.lead``): in the
natural and replacement LPs the answers no weight tells apart, in the
factorized LP the bag rows no target selects that agree on their bag's
separators.  Every program is solved by HiGHS through
``scipy.optimize.linprog``, from the matrices ``SparseLp.matrices`` builds
over the leads, one column per class.  Columns that an equality row
``a x_i - a x_j = 0`` forces equal (in the factorized LP, a separator
value with one bag row on each side) are one column too, found by
``_forced_equal``, and those rows are not sent.  Two more reductions
hand HiGHS what its presolve would reduce the LP to (``_reductions``): a
``<=`` row with one entry is sent as a bound on its column, and a column
of cost 0 whose one entry closes an equality row with the bound 0 is
taken out with that row.  Every program takes these steps, and every
call is the same: primal simplex without presolve (``OPTIONS``).  Every
optimum is put back on the program's columns, each column taken out set
from the rest of its row, each forced-equal class's value on each of its
leads and 0 on the other columns, and checked against the rows and
bounds before any merge or reduction (``certify``) before it is
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
from collections.abc import Sequence as SequenceABC
from dataclasses import asdict, dataclass, fields
from typing import Iterator, Sequence

import numpy as np

from .errors import CertificateError, NumericalFailureError
from .relations import ranges

FEAS_TOL = 1e-7

# The HiGHS options beyond ``linprog``'s defaults for every LP: HiGHS's
# simplex strategy 4, primal simplex, without presolve, whose work
# ``SparseLp.matrices`` has mostly done.  ``linprog`` knows no
# ``simplex_strategy`` option; it passes it to HiGHS verbatim, with an
# OptimizeWarning that ``solve`` filters.
OPTIONS = {"presolve": False, "simplex_strategy": 4}

# entries per step of the loops that keep their temporary arrays small:
# renumbering columns and negating right sides in ``LpBuilder.build``,
# filling row sides in ``interpret._sides``
_STEP = 1 << 20


def slices(counts: np.ndarray) -> Iterator[tuple[int, int]]:
    """Bounds ``(lo, hi)`` that cut items of *counts* entries each into runs
    of about ``_STEP`` entries, in order; an item is never cut."""
    cuts = np.searchsorted(np.cumsum(counts), np.arange(_STEP, counts.sum(), _STEP)).tolist()
    return zip([0, *cuts], [*cuts, len(counts)])


Side = tuple[float, Sequence[int], Sequence[float]]
"""One side of a row: its constant, and its columns with their coefficients,
each column at most once."""


class Positional(SequenceABC):
    """The names ``stem + str(i)`` of *count* columns, i from 0: a block
    named by position, which ``LpBuilder`` puts in name order from the
    numbers alone, without making the names."""

    __slots__ = ("stem", "count")

    def __init__(self, stem: str, count: int):
        self.stem = stem
        self.count = count

    def __len__(self) -> int:
        return self.count

    def __getitem__(self, i: int) -> str:
        if not -self.count <= i < self.count:
            raise IndexError(i)
        return f"{self.stem}{i % self.count}"

    def __iter__(self) -> Iterator[str]:
        return (f"{self.stem}{i}" for i in range(self.count))


def _digit_places(count: int, first: int = 0) -> np.ndarray:
    """For each i below *count*, the place of ``str(i)`` in
    ``sorted(str(k) for k in range(count))``, counted from *first*: how
    many k have a decimal text that sorts before i's, counted length by
    length.  A k of fewer digits sorts before i when it is at most i's
    leading digits of its length, one of more digits when its leading
    digits of i's length are less than i, and one of as many digits when
    it is less than i."""
    lengths = [(0 if d == 1 else 10 ** (d - 1), min(10 ** d, count))
               for d in range(1, len(str(max(count - 1, 0))) + 1)]  # (lo, hi) per digit count
    places = np.empty(count, dtype=np.int64)
    for d, (lo, hi) in enumerate(lengths, start=1):
        i = np.arange(lo, hi)
        at, term = places[lo:hi], np.empty_like(i)  # in place: a few arrays of the block's length
        np.subtract(i, lo - first, out=at)
        for e, (lo_e, hi_e) in enumerate(lengths, start=1):
            if e < d:
                np.floor_divide(i, 10 ** (d - e), out=term)
                at += term
                at += 1 - lo_e
            elif e > d:
                np.multiply(i, 10 ** (e - d), out=term)
                term -= lo_e
                at += np.clip(term, 0, hi_e - lo_e, out=term)
    return places


class ColumnNames(SequenceABC):
    """A program's column names in sorted order, made when first read:
    runs of names held as strings, and ``Positional`` blocks, whose names
    are made in the order of their texts (``_digit_places``).  Equal to
    any sequence of the same names in the same order."""

    def __init__(self, pieces: list[Sequence[str]]):
        self._pieces = pieces
        self._count = sum(map(len, pieces))
        self._made: list[str] | None = None

    def _names(self) -> list[str]:
        if self._made is None:
            made = []
            for piece in self._pieces:
                if isinstance(piece, Positional):
                    order = np.empty(len(piece), dtype=np.int64)
                    order[_digit_places(len(piece))] = np.arange(len(piece))
                    made += [f"{piece.stem}{i}" for i in order.tolist()]
                else:
                    made += piece
            self._made = made
        return self._made

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, j):
        return self._names()[j]

    def __iter__(self) -> Iterator[str]:
        return iter(self._names())

    def __eq__(self, other) -> bool:
        if not isinstance(other, SequenceABC) or isinstance(other, str):
            return NotImplemented
        return self._names() == list(other)

    __hash__ = None

    def __repr__(self) -> str:
        return f"ColumnNames({self._count} names)"


def _sorted_names(blocks: list[tuple[int, Sequence[str]]], n: int) -> tuple[ColumnNames, np.ndarray]:
    """The names of *n* columns, given in *blocks* ``(start, names)``, in
    sorted order, and each column's place in that order.

    A ``Positional`` block goes in whole, at its stem's place among the
    other names, with its names in digit order (``_digit_places``).  That
    is their sorted order as long as no other name or stem starts with the
    stem; a block whose stem some other name or stem starts with has its
    names made, and sorted as strings with the rest."""
    while True:
        keys, at, stems = [], [], []  # keys: the names of lists, then the stems
        for start, names in blocks:
            if isinstance(names, Positional):
                stems.append((start, names))
            else:
                keys += names
                at.append(np.arange(start, start + len(names)))
        texts = len(keys)
        keys += [names.stem for _, names in stems]
        ranked = np.array(sorted(range(len(keys)), key=keys.__getitem__), dtype=np.int64)
        where = np.flatnonzero(ranked >= texts).tolist()  # the stems' ranks
        clashing = {
            id(stems[ranked[r] - texts][1]) for r in where
            if (r + 1 < len(keys) and keys[ranked[r + 1]].startswith(keys[ranked[r]]))
            or (r and keys[ranked[r - 1]] == keys[ranked[r]])
        }
        if not clashing:
            break
        blocks = [(start, list(names) if id(names) in clashing else names) for start, names in blocks]

    content = np.concatenate([np.zeros(0, dtype=np.int64), *at])  # each text's column
    place = np.empty(n, dtype=np.int64)
    pieces: list[Sequence[str]] = []
    done = lo = 0
    for r in [*where, len(keys)]:
        run = ranked[lo:r]
        if len(run):
            place[content[run]] = np.arange(done, done + len(run))
            pieces.append([keys[i] for i in run.tolist()])
            done += len(run)
        if r < len(keys):
            start, names = stems[ranked[r] - texts]
            place[start:start + len(names)] = _digit_places(len(names), done)
            pieces.append(names)
            done += len(names)
        lo = r + 1
    return ColumnNames(pieces), place


@dataclass(eq=False, slots=True)
class SparseLp:
    """A linear program over integer columns, in flat arrays: the form that
    ``solve`` reads (``matrices`` builds what HiGHS gets from it).

    Column j is the variable ``names[j]``, and the names are sorted: the
    optimal vertex HiGHS returns depends on the column order, with primal
    and dual simplex alike, so the order is fixed by name however a
    program was built.  ``names`` is a ``ColumnNames``, which makes the
    names only when they are first read (by ``row_texts``, ``export_lp``
    and lookups by name): solving reads the columns alone.
    Row r owns the entries ``indptr[r]:indptr[r + 1]`` of ``cols`` and
    ``vals``: the terms of its left side up to ``split[r]``, then those of
    its right side negated, so a row's entries add up to lhs - rhs.
    ``lconst`` and ``rconst`` hold the sides' constants, and ``eq[r]`` is
    true for an equality row.  ``rows`` reads the split, to give back each
    side as it was written.

    Columns can come in classes whose columns are the same in every row
    and in the objective (answers that no weight tells apart, bag rows
    that agree on their bag's separators).  Column j
    belongs to the class led by column ``lead[j]``, its lowest column, and
    only leads have entries: each stands for every column of its class.
    ``lead`` is the identity when every column leads itself.  ``spread``
    gives the program with each lead's entries on every column of its
    class, which is what ``rows``, ``row_texts`` and ``export_lp`` read.
    """

    sense: str
    names: Sequence[str]
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
    lead: np.ndarray

    @property
    def row_count(self) -> int:
        return len(self.eq)

    def spread(self) -> SparseLp:
        """The same program with every column's entries its own: each entry
        of a lead repeated on every column of its class, in column order,
        and every column its own lead."""
        sizes = np.bincount(self.lead, minlength=len(self.names))
        members = np.argsort(self.lead, kind="stable")  # class by class, lead first
        firsts = np.cumsum(sizes) - sizes

        def on_members(cols, vals, *bounds):  # entry offsets in *bounds* moved along
            width = sizes[cols]
            at = np.concatenate(([0], np.cumsum(width)))
            return (members[ranges(firsts[cols], width)], np.repeat(vals, width),
                    *(at[b] for b in bounds))

        obj_cols, obj_vals = on_members(self.obj_cols, self.obj_vals)
        cols, vals, indptr, split = on_members(self.cols, self.vals, self.indptr, self.split)
        return SparseLp(self.sense, self.names, self.obj_const, obj_cols, obj_vals, self.lconst,
                        self.rconst, self.eq, indptr, split, cols, vals, np.arange(len(self.names)))

    def rows(self) -> Iterator[tuple[Side, str, Side]]:
        """Each row as it was written, ``(lhs, rel, rhs)``, over the
        columns' sorted places, every column of a class with its lead's
        coefficient (``spread``)."""
        lp = self.spread()
        cols, vals, bounds = lp.cols.tolist(), lp.vals.tolist(), lp.indptr.tolist()
        for lc, rc, eq, lo, mid, hi in zip(
            lp.lconst.tolist(), lp.rconst.tolist(), lp.eq.tolist(),
            bounds, lp.split.tolist(), bounds[1:],
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
        each class of columns (``lead``) one column, the classes that
        equality rows force equal one column together, and what is left
        reduced.

        The matrix is built over the leads only, each standing for its
        class.  Over x >= 0 that is exact: the optimum and the verdict stay,
        and a vertex of the LP over the leads, with 0 on the other columns
        of each class, is a vertex of the program.  Of the leads, those
        that rows ``a x_i - a x_j = 0`` tie together are one column to the
        solver (``_forced_equal``): the sum of the class's columns, with
        their costs summed, so each such row has no terms left and is not
        sent.  Then singleton ``<=`` rows go as column bounds, and leaf
        columns are taken out with their rows (``_reductions``).  Every
        program takes each step, whether or not it finds anything.  The
        full matrix is freed on return, before HiGHS runs."""
        from scipy.sparse import csr_matrix

        n = len(self.names)
        leads = np.flatnonzero(self.lead == np.arange(n))
        index = np.empty(n, dtype=np.int64)  # at a lead, its place among the leads
        index[leads] = np.arange(len(leads))
        A = csr_matrix(
            (self.vals, index[self.cols], self.indptr),
            shape=(self.row_count, len(leads)), dtype=float, copy=True,
        )
        A.sum_duplicates()  # a column on both sides of a row
        A.eliminate_zeros()  # ... whose terms cancel
        c = np.zeros(len(leads))
        c[index[self.obj_cols]] = (-1.0 if self.sense == "maximize" else 1.0) * self.obj_vals
        bound, eq = self.rconst - self.lconst, self.eq
        checked, _ = _split(A, bound, eq)
        classes = _forced_equal(A, bound, eq)
        k = int(classes.max(initial=-1)) + 1
        A = _moved(A, classes, k)
        A.sum_duplicates()
        A.eliminate_zeros()
        c = np.bincount(classes, weights=c, minlength=k)
        bounded, upper, rows, at = _reductions(A, c, bound, eq)
        out = A.indices[at]
        kept = np.ones(k, dtype=bool)
        kept[out] = False
        width = k - len(out)
        place = np.empty(k, dtype=np.int64)  # the columns taken out go last
        place[kept] = np.arange(width)
        place[out] = np.arange(width, k)
        sent = np.ones(A.shape[0], dtype=bool)
        sent[bounded] = sent[rows] = False
        matrices, holds = _split(A, bound, eq, sent, place, width)
        return Matrices(
            c[kept], *matrices, columns=leads, group=index[self.lead], classes=place[classes],
            checked=checked, nonzeros=int(np.diff(A.indptr)[sent].sum()), constants_hold=holds,
            bounds=np.column_stack((np.zeros(width), upper[kept])),
            implied=(_moved(A[rows], place, k), A.data[at]), bounded=len(bounded),
        )

    def __repr__(self) -> str:
        return f"SparseLp({self.sense}, {len(self.names)} columns, {self.row_count} rows)"


class LpBuilder:
    """The columns and rows of a program being compiled.

    Columns come in blocks of names, a list or a ``Positional`` block, and
    rows name a column by its position in the order the blocks were added.
    A block can split its columns into classes (``SparseLp.lead``), and
    rows then name a class by the one column of the block that stands for
    it.  ``build`` puts the names in order once (``_sorted_names``) and
    renumbers every column to its sorted place, and every class to the
    place of its lead.  Rows come one at a time (``row``), appended to
    ``array`` buffers so that a row costs no numpy call, or in bulk
    (``rows``), kept as the caller's arrays; both are chunks in the order
    they came, joined once by ``build``.
    """

    def __init__(self):
        self._blocks: list[tuple[int, Sequence[str]]] = []  # (start, names)
        self._count = 0  # columns so far
        self._classes: list[tuple[int, np.ndarray]] = []  # (block start, stand-ins in the block)
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

    def block(self, names: Sequence[str], stand_ins: np.ndarray | None = None) -> int:
        """Add one column per name; returns the position of the first.  With
        *stand_ins*, column i of the block is in the class of the columns
        whose stand-in, a position in the block, is ``stand_ins[i]``; rows
        name that class by the stand-in's position."""
        start = self._count
        self._blocks.append((start, names if isinstance(names, Positional) else list(names)))
        self._count += len(names)
        if stand_ins is not None:
            self._classes.append((start, np.asarray(stand_ins, dtype=np.int64)))
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
        Each class is led by its lowest column in name order, fixed here
        once the names are in order, and every entry naming the class is
        renumbered to the lead's place (``SparseLp.lead``).  Rows added in
        one chunk keep their arrays, renumbered in place, and more chunks
        are joined.  An int64 array of the objective's columns is
        renumbered in place too."""
        if sense not in ("maximize", "minimize"):
            raise ValueError(f"bad sense {sense!r}")
        n = self._count
        names, place = _sorted_names(self._blocks, n)
        self._blocks = []
        self._place = place
        lead = np.arange(n)  # at a place, its class's lowest place
        for start, stand_ins in self._classes:
            places = place[start:start + len(stand_ins)]
            lowest = np.full(len(stand_ins), n)
            np.minimum.at(lowest, stand_ins, places)  # at a stand-in, its class's lowest place
            lead[places] = lowest[stand_ins]
        self._classes = []
        renumber = lead[place]  # at a position, the place of its class's lead

        self._seal()
        chunks, self._chunks = self._chunks, []
        for cols, vals, *_, counts in chunks:
            for at in range(0, len(cols), _STEP):
                cols[at:at + _STEP] = renumber[cols[at:at + _STEP]]
            if counts is not None:  # right sides negated, in slices of whole sides
                starts = np.cumsum(counts) - counts
                for lo, hi in slices(counts[1::2]):
                    right = ranges(starts[2 * lo + 1:2 * hi:2], counts[2 * lo + 1:2 * hi:2])
                    vals[right] = -vals[right]

        def joined(k: int, dtype) -> np.ndarray:
            parts = [np.ascontiguousarray(chunk[k], dtype=dtype) for chunk in chunks]
            return parts[0] if len(parts) == 1 else np.concatenate([np.zeros(0, dtype), *parts])

        cols, vals, split, indptr, lconst, rconst, eq = (
            joined(k, dtype)
            for k, dtype in enumerate((np.int64, float, np.int64, np.int64, float, float, np.bool_))
        )
        constant, obj_cols, obj_vals = objective
        obj_cols = np.asarray(obj_cols, dtype=np.int64)
        obj_cols[:] = renumber[obj_cols]
        return SparseLp(
            sense=sense,
            names=names,
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
            lead=lead,
        )

    def columns(self, start: int, count: int) -> np.ndarray:
        """Sorted places of the *count* columns from *start*; after ``build``."""
        return self._place[start:start + count]


class ArrayAssignment(MappingABC):
    """Mapping view over a solver's solution vector; avoids one dict per
    variable on million-column programs.  The name index is built on the
    first lookup by name."""

    __slots__ = ("_names", "_index", "_x")

    def __init__(self, names: Sequence[str], x):
        self._names = names
        self._index: dict[str, int] | None = None
        self._x = x

    def __getitem__(self, key: str) -> float:
        if self._index is None:
            self._index = {v: i for i, v in enumerate(self._names)}
        return max(0.0, float(self._x[self._index[key]]))

    def columns(self, cols) -> list[float]:
        """Values at the column positions *cols*, clipped at 0 like lookups:
        0.0 for a negative value, -0.0 or NaN."""
        x = self._x[cols]
        return np.where(x > 0.0, x, 0.0).tolist()

    def __iter__(self):
        return iter(self._names)

    def __len__(self) -> int:
        return len(self._names)


@dataclass(frozen=True, slots=True)
class HighsCall:
    """One call to HiGHS: the method, the HiGHS options passed beyond
    ``linprog``'s defaults (``{}`` for none), and how it ended (scipy's
    status code and message, and its simplex iteration count)."""

    method: str
    options: dict
    status: int
    message: str
    nit: int

    @classmethod
    def of(cls, method: str, options: dict, res) -> "HighsCall":
        return cls(method, dict(options), int(res.status), str(res.message), int(res.get("nit") or 0))


@dataclass(frozen=True, slots=True)
class Certificate:
    """How far an optimal point is from feasible, in the rows ``solve``
    checks (``Matrices.certify``) and in the bounds x >= 0.

    ``ub_violation`` is max((A_ub x - b_ub)+), ``eq_violation`` is
    max|A_eq x - b_eq|, each ``inf`` if a residual is not a finite number,
    ``most_negative`` is the smallest coordinate below 0 (else 0, and
    ``-inf`` if a coordinate is not a finite number), and ``clipped_mass``
    is the total that reading values through ``ArrayAssignment`` or
    ``LpSolution.values`` clips away from negative coordinates.  The point
    passes when ``violation``, the largest of the row violations and
    ``-most_negative``, is within ``tolerance``: ``FEAS_TOL * max(1,
    |b|_inf)`` over the right-hand sides checked.
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


def _forced_equal(A, bound: np.ndarray, eq: np.ndarray) -> np.ndarray:
    """For each column of the canonical CSR matrix *A*, its class among the
    columns that equality rows force equal: a row with two entries ``a``
    and ``-a`` and a bound of exactly 0 says x_i = x_j, and ties its two
    columns (a doubleton equation, Andersen and Andersen 1995).  Classes
    are numbered in the order of their lowest columns.

    The classes are the connected components of those pairs, found by
    label propagation: each column starts as its own label, and every
    round gives both columns of a pair the lower of their labels, then
    reads each label's own label, until nothing changes; each column is
    then labelled with the lowest column of its class.  Over x >= 0,
    x_i = x_j is a linear bijection between the points of the LP and those
    of the LP with each class as one column, its costs and entries summed,
    so the optimum, the verdict and the vertices are kept."""
    n = A.shape[1]
    first = A.indptr[:-1]
    pairs = np.flatnonzero(eq & (np.diff(A.indptr) == 2) & (bound == 0.0))
    pairs = first[pairs[A.data[first[pairs]] == -A.data[first[pairs] + 1]]]
    i, j = A.indices[pairs], A.indices[pairs + 1]
    label = np.arange(n)
    while i.size:
        lower = label.copy()
        low = np.minimum(label[i], label[j])
        np.minimum.at(lower, i, low)
        np.minimum.at(lower, j, low)
        lower = lower[lower]
        if np.array_equal(lower, label):
            break
        label = lower
    leads = label == np.arange(n)
    return (np.cumsum(leads) - 1)[label]


def _reductions(A, c: np.ndarray, bound: np.ndarray, eq: np.ndarray) -> tuple[np.ndarray, ...]:
    """What two exact reductions (Andersen and Andersen 1995) take out of
    the canonical CSR matrix *A* with costs *c*: ``(bounded, upper, rows,
    at)``.

    A ``<=`` row with one entry a > 0 and a bound b >= 0 says x_j <= b / a,
    a bound on its column: ``bounded`` holds those rows, and ``upper``
    each column's smallest such bound (``inf`` for none).  A column with
    cost 0 and one entry a, in an equality row with a bound of exactly 0
    whose other entries all have the sign opposite to a's, is an implied
    column singleton: the row says x_j = -(the rest of the row) / a, which
    is >= 0 wherever the other columns are, and no other row or the
    objective reads x_j, so the row and the column can both go and x_j be
    set afterwards.  ``rows`` holds such rows in order, and ``at`` the
    entry of the one column each gives up, its first such column.  A
    column with a bound has a second entry, so it is never one of them.
    Column entries are counted over *A*'s indices, not a CSC copy."""
    counts = np.diff(A.indptr)
    first = A.indptr[:-1]
    bounded = np.flatnonzero(~eq & (counts == 1) & (bound >= 0.0))
    bounded = bounded[A.data[first[bounded]] > 0.0]
    upper = np.full(A.shape[1], np.inf)
    np.minimum.at(upper, A.indices[first[bounded]], bound[bounded] / A.data[first[bounded]])
    closing = eq & (bound == 0.0)  # rows a leaf column can close
    if not closing.any():
        none = np.zeros(0, dtype=np.int64)
        return bounded, upper, none, none
    leaf = (np.bincount(A.indices, minlength=len(c)) == 1) & (c == 0.0)
    at = np.flatnonzero(leaf[A.indices])
    rows = np.searchsorted(A.indptr, at, side="right") - 1
    at, rows = at[closing[rows]], rows[closing[rows]]
    positive = np.concatenate(([0], np.cumsum(A.data > 0.0)))  # positive entries before each
    ups = positive[A.indptr[rows + 1]] - positive[A.indptr[rows]]
    alone = np.where(A.data[at] > 0.0, ups == 1, ups == counts[rows] - 1)  # the only one of its sign
    at, rows = at[alone], rows[alone]
    first_of_row = np.diff(rows, prepend=-1) != 0
    return bounded, upper, rows[first_of_row], at[first_of_row]


def _split(A, bound: np.ndarray, eq: np.ndarray, sent=True, place=None,
           width=None) -> tuple[tuple, bool]:
    """The rows of the CSR matrix *A* that have terms, of those *sent*
    marks, as ``(A_ub, b_ub, A_eq, b_eq)``, a pair None when it has no
    rows, column j of each moved to ``place[j]`` of *width* when given (the
    rows must not reach past *width*); and whether each row without terms
    meets its bound within ``FEAS_TOL``."""
    empty = A.indptr[1:] == A.indptr[:-1]
    holds = np.where(eq, np.abs(bound) <= FEAS_TOL, bound >= -FEAS_TOL)

    def select(mask):
        rows = np.flatnonzero(mask)
        if not rows.size:
            return None, None
        return (A[rows] if place is None else _moved(A[rows], place, width)), bound[rows]

    sent = sent & ~empty
    return (*select(sent & ~eq), *select(sent & eq)), bool(holds[empty].all())


def _moved(A, place: np.ndarray, width: int):
    """The CSR matrix *A* with column j moved to ``place[j]`` of *width*,
    not canonical where two columns meet (``np.take``: fancy indexing by
    scipy's int32 indices is slower)."""
    from scipy.sparse import csr_matrix

    return csr_matrix((A.data, np.take(place, A.indices), A.indptr), shape=(A.shape[0], width))


@dataclass(frozen=True, slots=True)
class Matrices:
    """A program as HiGHS gets it (``SparseLp.matrices``): minimize
    ``c y`` subject to ``A_ub y <= b_ub``, ``A_eq y = b_eq`` and
    ``bounds``, in CSR form, a pair None when it has no rows.  ``bounds``
    is ``linprog``'s, one ``(0, upper)`` row per column, ``inf`` for no
    upper bound.  Rows without terms are not among the rows sent;
    ``constants_hold`` says whether each of those meets its bound within
    ``FEAS_TOL``.  ``nonzeros`` counts the entries of both matrices,
    ``bounded`` the rows sent as bounds.

    The program's columns reach y through one map per merge.  ``columns``
    holds the leads of the program's classes (``SparseLp.lead``), and
    ``group[j]`` is the position in ``columns`` of column j's lead.
    ``classes[d]`` is the column that stands for ``columns[d]``: one per
    class of leads forced equal, in the order of their lowest leads, the
    columns of y first, then the ``substituted`` ones taken out.  Those
    are set from y by ``implied``: the rows that were taken out with
    them, as CSR over all of those columns (no rows when none was), and
    each one's own coefficient in its row.  ``checked`` holds the rows
    over ``columns`` before any merge or reduction, as ``(A_ub, b_ub,
    A_eq, b_eq)``; they are what ``certify`` checks."""

    c: np.ndarray
    A_ub: object
    b_ub: np.ndarray | None
    A_eq: object
    b_eq: np.ndarray | None
    columns: np.ndarray
    group: np.ndarray
    classes: np.ndarray
    checked: tuple
    nonzeros: int
    constants_hold: bool
    bounds: np.ndarray
    implied: tuple
    bounded: int

    @property
    def substituted(self) -> int:
        return len(self.implied[1])

    def expand(self, y: np.ndarray) -> np.ndarray:
        """The program's point for the solver's point *y*: each column
        substituted out set from the rest of its row, then each
        forced-equal class's value on each of its leads, and 0 on every
        other column."""
        rows, a = self.implied
        y = np.concatenate((y, np.zeros(len(a))))
        y[len(y) - len(a):] = -(rows @ y) / a
        x = np.zeros(len(self.group))
        x[self.columns] = y[self.classes]
        return x

    def certify(self, x: np.ndarray) -> Certificate:
        """The primal certificate of *x*, a point over the program's
        columns, against the rows before any merge or reduction, those
        sent as bounds or taken out among them.  The columns of a class
        are the same in every row, so the rows read the sum of the class's
        values."""
        summed = np.bincount(self.group, weights=x, minlength=len(self.columns))
        return certify(x, *self.checked, summed)


@dataclass(frozen=True, slots=True)
class SolverReport:
    """How ``solve`` reached its verdict: the call to HiGHS, the ``highs``
    re-solve when it ended without a verdict, the certificate of an
    optimum, how many columns the matrices handed to HiGHS have, how many
    rows went as bounds and how many column-and-row pairs were taken out
    (``Matrices``).  ``call`` is None when ``solve`` decided without
    HiGHS, and ``reason`` then says why; it is None when HiGHS ran."""

    reason: str | None = None
    call: HighsCall | None = None
    fallback: HighsCall | None = None
    certificate: Certificate | None = None
    columns: int = 0
    bounded: int = 0
    substituted: int = 0

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
            "bounded": self.bounded,
            "substituted": self.substituted,
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


def _check_finite(lp: SparseLp) -> None:
    """Raise ``NumericalFailureError`` when a cost, a coefficient or a
    constant of *lp* is not a finite number: a decimal beyond the float
    range, such as 1e400 in a program or a database cell, reads as inf."""
    for what, values in (("cost", np.append(lp.obj_vals, lp.obj_const)),
                         ("coefficient", lp.vals),
                         ("row constant", np.concatenate((lp.lconst, lp.rconst)))):
        bad = values[~np.isfinite(values)]
        if bad.size:
            raise NumericalFailureError(
                f"the LP has a {what} of {bad[0]}, not a finite number: a decimal beyond "
                f"the float range, such as 1e400, reads as inf")


def solve(lp: SparseLp) -> LpSolution:
    """Solve a finite LP with HiGHS through ``scipy.optimize.linprog``.

    An LP with a cost, a coefficient or a constant that is not a finite
    number raises ``NumericalFailureError`` before anything is built.
    HiGHS gets the program as ``lp.matrices()`` builds it: one column per
    class of leads forced equal, each lead standing for its class
    (``SparseLp.lead``), singleton ``<=`` rows as column bounds, leaf
    columns and their rows taken out, and no row left without terms (such
    a row is checked against its bound instead).  Every call is ``highs``
    with ``OPTIONS``.  When it ends without a verdict (HiGHS status 4, a
    solve error), the same matrices are solved again with plain ``highs``,
    dual simplex after presolve, before ``NumericalFailureError`` is
    raised.  An optimum sets each column taken out from the rest of its
    row, puts each forced-equal class's value on each of its leads and 0
    on the other columns (``Matrices.expand``), and that point is checked
    against the rows before any merge or reduction and the bounds x >= 0
    (``certify``); one beyond tolerance raises ``CertificateError``.
    """
    _check_finite(lp)
    rows = lp.matrices()
    columns = len(rows.c)
    shape = dict(columns=columns, bounded=rows.bounded, substituted=rows.substituted)
    if not rows.constants_hold:
        return LpSolution(
            "infeasible", nonzeros=rows.nonzeros,
            solver=SolverReport("a row without terms violates its bound", **shape),
        )
    if not columns:  # no column, or each one taken out with its row
        x = rows.expand(np.zeros(0))
        return LpSolution(
            "optimal", value=lp.obj_const, assignment=ArrayAssignment(lp.names, x),
            solver=SolverReport("no columns sent", certificate=rows.certify(x), **shape),
        )

    # looked up per call, so a wrapper installed on scipy.optimize.linprog
    # after this module was imported still sees every solve
    from scipy.optimize import OptimizeWarning, linprog

    def call(options: dict):
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "Unrecognized options", OptimizeWarning)
            res = linprog(
                rows.c, A_ub=rows.A_ub, b_ub=rows.b_ub, A_eq=rows.A_eq, b_eq=rows.b_eq,
                bounds=rows.bounds, method="highs", options=options,
            )
        return res, HighsCall.of("highs", options, res)

    res, first = call(OPTIONS)
    fallback = None
    if first.status not in _VERDICTS:
        res, fallback = call({})
    final = fallback or first
    if final.status not in _VERDICTS:
        raise NumericalFailureError(f"HiGHS failed: {final.message}")
    status = _VERDICTS[final.status]
    if status != "optimal":
        return LpSolution(
            status, nonzeros=rows.nonzeros,
            solver=SolverReport(call=first, fallback=fallback, **shape),
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
        solver=SolverReport(call=first, fallback=fallback, certificate=certificate, **shape),
    )
