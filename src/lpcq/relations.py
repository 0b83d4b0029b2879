"""Value domain, relations, databases, and CSV ingestion.

A database is a finite collection of named relations over a value domain.
The database gives every value of its domain an int32 code in text order
(``Dictionary``), and each relation holds its rows as an ``(n, arity)``
array of codes; the relational operators of ``queries``, ``decomp`` and
``weightings`` run on such arrays through the helpers of this module
(``unique_rows``, ``row_groups``, ``key_ids``, ``join_keys``, ``match``,
``ranges``).  ``Value`` objects, interned by text, appear only where codes
are decoded: names, reports and the public views (``Relation.tuples``,
``Database.domain``).  Values carry an optional
numeric reading: it exists exactly when the value's text lexes as a decimal
real (sign, digits, optional fraction, optional exponent).  Databases are
immutable after construction, their code arrays are read-only, and all
operations here are pure, so they can be shared freely between threads.

CSV conventions (one file per relation, stem = relation name, no header):

* column count is uniform per file and becomes the arity,
* duplicate rows collapse (relations are sets),
* an empty file is the arity-0 relation with no tuples ("false"),
* a file holding a single empty line is the arity-0 relation containing the
  empty tuple ("true").
"""

from __future__ import annotations

import csv
import re
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Iterator, Mapping

import numpy as np

from .errors import (
    DuplicateRelationError,
    EmptyDirError,
    ParseError,
    RaggedRowsError,
    UnknownVariableError,
)

_DECIMAL_RE = re.compile(r"[+-]?[0-9]+(\.[0-9]*)?([eE][+-]?[0-9]+)?\Z")


class Value:
    """An interned domain element.

    Two values are equal iff their texts are equal; interning makes the
    default identity-based equality and hash correct and fast.  ``numeric``
    is the partial numeric decoding: a float when the text is a decimal real
    literal, else None.
    """

    __slots__ = ("text", "numeric", "_token")
    _interned: dict[str, "Value"] = {}

    def __new__(cls, text: str) -> "Value":
        cached = cls._interned.get(text)
        if cached is not None:
            return cached
        value = super().__new__(cls)
        value.text = text
        value.numeric = float(text) if _DECIMAL_RE.match(text) else None
        value._token = None
        # setdefault is atomic, so threads racing on one text agree on a value
        return cls._interned.setdefault(text, value)

    @property
    def token(self) -> str:
        """Identifier-safe encoding of the text, used in LP variable names.

        Alphanumerics pass through; every other character becomes ``_<hex>_``,
        which keeps the encoding injective.
        """
        if self._token is None:
            self._token = "".join(
                ch if (ch.isascii() and ch.isalnum()) else f"_{ord(ch):x}_"
                for ch in self.text
            )
        return self._token

    def __repr__(self) -> str:
        return f"Value({self.text!r})"

    def __reduce__(self):
        # loading goes through __new__, so the copy is the interned value
        return (Value, (self.text,))

    def __str__(self) -> str:
        return self.text

    # interning means object identity decides ==, but make ordering explicit
    def __lt__(self, other: "Value") -> bool:
        return self.text < other.text


_text = attrgetter("text")


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class Dictionary:
    """Distinct values in text order; a value's code is its position.

    Codes compare as their texts do, so rows of codes in lexicographic order
    are rows in text order.  The value array is read-only
    and the lookup tables built on first use are pure functions of it, so a
    dictionary can be shared freely between threads.
    """

    __slots__ = ("values", "_code", "_tokens", "_numeric")

    def __init__(self, values: Iterable[Value]):
        ordered = sorted(set(values), key=_text)
        array = np.empty(len(ordered), dtype=object)
        array[:] = ordered
        self.values: np.ndarray = _frozen(array)
        self._code: dict[Value, int] | None = None
        self._tokens: np.ndarray | None = None
        self._numeric: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.values)

    def _lookup(self) -> dict[Value, int]:
        if self._code is None:
            self._code = {v: i for i, v in enumerate(self.values.tolist())}
        return self._code

    def code(self, value: Value) -> int | None:
        """The code of *value*, or None when it is not in the dictionary."""
        return self._lookup().get(value)

    @property
    def numeric(self) -> np.ndarray:
        """``Value.numeric`` of every entry, by code, NaN where there is none."""
        if self._numeric is None:
            numbers = [np.nan if v.numeric is None else v.numeric for v in self.values.tolist()]
            self._numeric = _frozen(np.array(numbers, dtype=float))
        return self._numeric

    @property
    def tokens(self) -> np.ndarray:
        """``Value.token`` of every entry, by code, as an object array."""
        if self._tokens is None:
            tokens = np.empty(len(self.values), dtype=object)
            tokens[:] = [v.token for v in self.values.tolist()]
            self._tokens = _frozen(tokens)
        return self._tokens

    def encode(self, rows: Iterable[tuple[Value, ...]], arity: int) -> np.ndarray:
        """An ``(n, arity)`` int32 array of the codes of value rows, which
        must all be in the dictionary."""
        rows = list(rows)
        if not arity:
            return np.zeros((len(rows), 0), dtype=np.int32)
        code = self._lookup().__getitem__
        flat = np.fromiter(
            (code(v) for row in rows for v in row), dtype=np.int32, count=len(rows) * arity
        )
        return flat.reshape(len(rows), arity)

    def decode(self, codes: np.ndarray) -> list[tuple[Value, ...]]:
        """Rows of codes as value tuples."""
        n, k = codes.shape
        if not k:
            return [()] * n
        return list(zip(*(self.values[codes[:, j]].tolist() for j in range(k))))

    def recode(self, other: "Dictionary") -> np.ndarray:
        """Each code of *other* mapped to the code of the same value here,
        -1 where the value is missing.  Both dictionaries are in text order,
        so the map is increasing on the values they share."""
        if other is self:
            return np.arange(len(self), dtype=np.int32)
        get = self._lookup().get
        return np.fromiter((get(v, -1) for v in other.values.tolist()),
                           dtype=np.int32, count=len(other))

    def __repr__(self) -> str:
        return f"Dictionary({len(self.values)} values)"


# --- code columns ----------------------------------------------------------------
#
# The relational operators of queries, decomp and weightings run on arrays of
# codes through these helpers, so that all of them key, match and group rows
# in the same way.


def unique_rows(codes: np.ndarray) -> np.ndarray:
    """The distinct rows of a code array, in lexicographic order."""
    (ids,), count = key_ids(codes)
    first = np.empty(count, dtype=np.int64)
    first[ids[::-1]] = np.arange(len(ids) - 1, -1, -1)  # the last write is the first row
    return codes[first]


def row_groups(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of a code array grouped by equal rows, groups in
    lexicographic order (``key_ids``): group g is
    ``order[bounds[g]:bounds[g + 1]]``, its rows ascending."""
    (ids,), count = key_ids(codes)
    bounds = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(np.bincount(ids, minlength=count), out=bounds[1:])
    return np.argsort(ids, kind="stable"), bounds


def key_ids(*blocks: np.ndarray) -> tuple[list[np.ndarray], int]:
    """Ids of the rows of code arrays over the same columns, numbered in one
    id space in the rows' lexicographic order, and how many distinct rows
    there are.

    Codes are at least 0.  The columns are packed into one integer key per
    row in a mixed radix of ``max + 1`` per column, as many as fit below
    2^62; before the next column would not fit, the keys are compacted to
    ids with ``np.unique``, and the distinct count becomes the radix of the
    part folded so far.  An id stays below the row count, so a column
    always fits after it.
    """
    stacked = np.concatenate(blocks) if len(blocks) > 1 else blocks[0]
    n, k = stacked.shape
    ids = np.zeros(n, dtype=np.int64)
    distinct = 1 if n else 0
    if n and k:
        size = 1  # keys so far are below it
        for j in range(k):
            top = int(stacked[:, j].max())  # column by column: max(axis=0) is slower
            if size * (top + 1) >= 1 << 62:
                keys, ids = np.unique(ids, return_inverse=True)
                size = len(keys)
            size *= top + 1
            ids = ids * (top + 1) + stacked[:, j]
        keys, ids = np.unique(ids, return_inverse=True)
        distinct = len(keys)
    bounds = np.cumsum([len(b) for b in blocks[:-1]])
    return np.split(ids, bounds), distinct


def join_keys(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Keys of the rows of two code arrays over the same columns, equal
    exactly where the rows are: the code itself for one column, else the
    ``key_ids``."""
    if a.shape[1] == 1:
        return a[:, 0], b[:, 0]
    (a_ids, b_ids), _ = key_ids(a, b)
    return a_ids, b_ids


def ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The positions ``starts[k]``, ..., ``starts[k] + counts[k] - 1`` of
    every k, concatenated."""
    ends = np.cumsum(counts)
    out = np.repeat(starts - (ends - counts), counts)
    out += np.arange(ends[-1] if len(ends) else 0)
    return out


def match(left: np.ndarray, right: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions ``(i, j)`` of every pair with ``left[i] == right[j]``, in
    order of i and, for one i, of j: the right keys are sorted once and each
    left key's range is found with ``searchsorted``.  ``i`` is int32 when
    that holds every left position."""
    order = np.argsort(right, kind="stable")
    ordered = right[order]
    low = np.searchsorted(ordered, left, "left")
    count = np.searchsorted(ordered, left, "right") - low
    positions = np.arange(len(left), dtype=np.int32 if len(left) < 2**31 else np.int64)
    return np.repeat(positions, count), order[ranges(low, count)]


# --- relations and databases -------------------------------------------------------


class Relation:
    """A named set of equal-length value tuples.

    The tuples are held as ``codes``, an ``(n, arity)`` int32 array of codes
    into ``dictionary``, rows distinct and in text order; ``tuples`` decodes
    them on first use.
    """

    __slots__ = ("name", "arity", "codes", "dictionary", "_tuples")

    def __init__(self, name: str, arity: int, tuples: Iterable[tuple[Value, ...]]):
        tuples = frozenset(tuples)
        for row in tuples:
            if len(row) != arity:
                raise RaggedRowsError(
                    f"relation {name}: tuple of length {len(row)}, expected {arity}"
                )
        dictionary = Dictionary(v for row in tuples for v in row)
        self._set(name, arity, unique_rows(dictionary.encode(tuples, arity)), dictionary)
        self._tuples = tuples

    def _set(self, name: str, arity: int, codes: np.ndarray, dictionary: Dictionary) -> None:
        self.name = name
        self.arity = arity
        self.codes = _frozen(codes)
        self.dictionary = dictionary
        self._tuples = None

    @classmethod
    def encoded(
        cls, name: str, arity: int, codes: np.ndarray, dictionary: Dictionary
    ) -> "Relation":
        """A relation over codes into *dictionary*, rows distinct and in
        lexicographic order."""
        rel = cls.__new__(cls)
        rel._set(name, arity, codes, dictionary)
        return rel

    def recoded(self, dictionary: Dictionary) -> "Relation":
        """The same relation over codes into *dictionary*, which holds
        every value of it.  The code map is increasing, so row order stays."""
        if dictionary is self.dictionary:
            return self
        codes = dictionary.recode(self.dictionary)[self.codes]
        return Relation.encoded(self.name, self.arity, codes, dictionary)

    @property
    def tuples(self) -> frozenset[tuple[Value, ...]]:
        if self._tuples is None:
            self._tuples = frozenset(self.dictionary.decode(self.codes))
        return self._tuples

    def __len__(self) -> int:
        return len(self.codes)

    def __iter__(self) -> Iterator[tuple[Value, ...]]:
        return iter(self.tuples)

    def __reduce__(self):
        return (Relation, (self.name, self.arity, self.tuples))

    def __repr__(self) -> str:
        return f"Relation({self.name}/{self.arity}, {len(self)} tuples)"


class Database:
    """Immutable map of relation name to relation, plus the value domain.

    The domain is the union of all tuple components and any declared
    constants.  ``dictionary`` gives each of its values an int32 code in
    text order, and every relation is held over those codes; ``domain`` is
    the set of values, decoded on first use.  ``size`` is the total tuple
    count across relations, the quantity all size bounds in this package are
    stated against.
    """

    __slots__ = ("relations", "dictionary", "_domain")

    def __init__(self, relations: Mapping[str, Relation], constants: Iterable[Value] = ()):
        relations = dict(relations)
        constants = list(constants)
        self.dictionary = _shared_dictionary(relations.values(), constants)
        if self.dictionary is None:
            values = set(constants)
            for rel in relations.values():
                values.update(rel.dictionary.values[np.unique(rel.codes)].tolist())
            self.dictionary = Dictionary(values)
        self.relations = {name: rel.recoded(self.dictionary) for name, rel in relations.items()}
        self._domain: frozenset[Value] | None = None

    @property
    def domain(self) -> frozenset[Value]:
        if self._domain is None:
            self._domain = frozenset(self.dictionary.values.tolist())
        return self._domain

    @property
    def size(self) -> int:
        return sum(len(rel) for rel in self.relations.values())

    def relation(self, name: str) -> Relation | None:
        return self.relations.get(name)

    def sorted_domain(self) -> list[Value]:
        return self.dictionary.values.tolist()

    def __reduce__(self):
        return (Database, (self.relations, self.dictionary.values.tolist()))

    def __repr__(self) -> str:
        names = ", ".join(sorted(self.relations))
        return f"Database({names}; {self.size} tuples, |domain|={len(self.dictionary)})"


def _shared_dictionary(relations, constants: list[Value]) -> Dictionary | None:
    """The one dictionary of all *relations* when every one of its values
    is a tuple component or a constant and every constant is in it."""
    dictionaries = {id(rel.dictionary): rel.dictionary for rel in relations}
    if len(dictionaries) != 1:
        return None
    (dictionary,) = dictionaries.values()
    used = np.zeros(len(dictionary), dtype=bool)
    for rel in relations:
        used[rel.codes.ravel()] = True
    codes = [dictionary.code(c) for c in constants]
    if None in codes:
        return None
    used[codes] = True
    return dictionary if used.all() else None


def load_database(directory: str | Path) -> Database:
    """Read every ``<RelName>.csv`` in *directory* into one database.

    Files are RFC-4180 CSV without a header row; positions match atom
    argument positions.  Raises EmptyDirError when no .csv files exist,
    RaggedRowsError on inconsistent column counts, DuplicateRelationError
    when two files share a stem, ParseError naming a file that is not UTF-8.
    Cells are numbered as they are read and renumbered in text order once
    every file is in, so each distinct text becomes one ``Value``.
    """
    directory = Path(directory)
    paths = sorted(p for p in directory.iterdir() if p.suffix.lower() == ".csv")
    if not paths:
        raise EmptyDirError(f"no .csv files in {directory}")

    seen: dict[str, int] = {}  # text -> number in reading order
    number = seen.setdefault
    read: dict[str, tuple[int, list[int], int]] = {}  # name -> arity, numbers, rows
    for path in paths:
        name = path.stem
        if name in read:
            raise DuplicateRelationError(f"relation {name!r} defined twice")
        try:
            with path.open(newline="", encoding="utf-8") as handle:
                rows = list(csv.reader(handle))
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text: {exc}") from exc
        arity = len(rows[0]) if rows else 0
        numbers: list[int] = []
        for lineno, cells in enumerate(rows, start=1):
            if len(cells) != arity:
                raise RaggedRowsError(
                    f"{path.name}:{lineno}: row has {len(cells)} columns, expected {arity}"
                )
            numbers.extend([number(cell, len(seen)) for cell in cells])
        read[name] = (arity, numbers, len(rows))

    texts = list(seen)
    dictionary = Dictionary(Value(text) for text in texts)
    rank = np.empty(len(texts), dtype=np.int32)
    rank[sorted(range(len(texts)), key=texts.__getitem__)] = np.arange(len(texts))
    relations = {}
    for name, (arity, numbers, count) in read.items():
        codes = rank[np.asarray(numbers, dtype=np.int64)].reshape(count, arity)
        relations[name] = Relation.encoded(name, arity, unique_rows(codes), dictionary)
    return Database(relations)


def save_database(db: Database, directory: str | Path) -> None:
    """Write one CSV per relation; inverse of load_database up to row order."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name in sorted(db.relations):
        rel = db.relations[name]
        with (directory / f"{name}.csv").open("w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            for row in rel.dictionary.decode(rel.codes):  # rows are in text order
                writer.writerow([v.text for v in row])


class Assignment:
    """A total mapping from a finite variable set to values.

    Stored as parallel tuples with variables in sorted order, which makes
    assignments hashable and canonically comparable.
    """

    __slots__ = ("variables", "values")

    def __init__(self, variables: tuple[str, ...], values: tuple[Value, ...]):
        self.variables = variables
        self.values = values

    @classmethod
    def of(cls, bindings: Mapping[str, Value] | Iterable[tuple[str, Value]]) -> "Assignment":
        items = sorted(dict(bindings).items())
        return cls(tuple(k for k, _ in items), tuple(v for _, v in items))

    EMPTY: "Assignment"

    def __getitem__(self, var: str) -> Value:
        try:
            return self.values[self.variables.index(var)]
        except ValueError:
            raise UnknownVariableError(f"assignment does not bind {var!r}") from None

    def get(self, var: str, default=None):
        try:
            return self.values[self.variables.index(var)]
        except ValueError:
            return default

    def items(self) -> Iterator[tuple[str, Value]]:
        return zip(self.variables, self.values)

    def as_dict(self) -> dict[str, Value]:
        return dict(self.items())

    def restrict(self, variables: Iterable[str]) -> "Assignment":
        """Restriction to a subset of the bound variables."""
        wanted = sorted(set(variables))
        missing = [v for v in wanted if v not in self.variables]
        if missing:
            raise UnknownVariableError(f"assignment does not bind {missing[0]!r}")
        index = {v: i for i, v in enumerate(self.variables)}
        return Assignment(tuple(wanted), tuple(self.values[index[v]] for v in wanted))

    def union(self, other: "Assignment") -> "Assignment | None":
        """Union of two assignments, or None when they disagree on a shared variable."""
        merged = dict(self.items())
        for var, val in other.items():
            seen = merged.get(var)
            if seen is None:
                merged[var] = val
            elif seen is not val:
                return None
        return Assignment.of(merged)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Assignment)
            and self.variables == other.variables
            and self.values == other.values
        )

    def __hash__(self) -> int:
        return hash((self.variables, self.values))

    def __len__(self) -> int:
        return len(self.variables)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}/{v.text}" for k, v in self.items())
        return f"[{inner}]"


Assignment.EMPTY = Assignment((), ())
