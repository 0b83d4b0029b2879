"""Value domain, relations, databases, and CSV ingestion.

A database is a finite collection of named relations over an interned value
domain.  Values carry an optional numeric reading: it exists exactly when the
value's text lexes as a decimal real (sign, digits, optional fraction,
optional exponent).  Databases are immutable after construction and all
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
from pathlib import Path
from typing import Iterable, Iterator, Mapping

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

    def __str__(self) -> str:
        return self.text

    # interning means object identity decides ==, but make ordering explicit
    def __lt__(self, other: "Value") -> bool:
        return self.text < other.text


class Relation:
    """A named set of equal-length value tuples."""

    __slots__ = ("name", "arity", "tuples")

    def __init__(self, name: str, arity: int, tuples: Iterable[tuple[Value, ...]]):
        self.name = name
        self.arity = arity
        self.tuples = frozenset(tuples)
        for row in self.tuples:
            if len(row) != arity:
                raise RaggedRowsError(
                    f"relation {name}: tuple of length {len(row)}, expected {arity}"
                )

    def __len__(self) -> int:
        return len(self.tuples)

    def __iter__(self) -> Iterator[tuple[Value, ...]]:
        return iter(self.tuples)

    def __repr__(self) -> str:
        return f"Relation({self.name}/{self.arity}, {len(self.tuples)} tuples)"


class Database:
    """Immutable map of relation name to relation, plus the value domain.

    The domain is the union of all tuple components and any declared
    constants.  ``size`` is the total tuple count across relations, the
    quantity all size bounds in this package are stated against.
    """

    __slots__ = ("relations", "domain")

    def __init__(self, relations: Mapping[str, Relation], constants: Iterable[Value] = ()):
        self.relations = dict(relations)
        dom: set[Value] = set(constants)
        for rel in self.relations.values():
            for row in rel.tuples:
                dom.update(row)
        self.domain = frozenset(dom)

    @property
    def size(self) -> int:
        return sum(len(rel) for rel in self.relations.values())

    def relation(self, name: str) -> Relation | None:
        return self.relations.get(name)

    def sorted_domain(self) -> list[Value]:
        return sorted(self.domain, key=lambda v: v.text)

    def __repr__(self) -> str:
        names = ", ".join(sorted(self.relations))
        return f"Database({names}; {self.size} tuples, |domain|={len(self.domain)})"


def load_database(directory: str | Path) -> Database:
    """Read every ``<RelName>.csv`` in *directory* into one database.

    Files are RFC-4180 CSV without a header row; positions match atom
    argument positions.  Raises EmptyDirError when no .csv files exist,
    RaggedRowsError on inconsistent column counts, DuplicateRelationError
    when two files share a stem, ParseError naming a file that is not UTF-8.
    """
    directory = Path(directory)
    paths = sorted(p for p in directory.iterdir() if p.suffix.lower() == ".csv")
    if not paths:
        raise EmptyDirError(f"no .csv files in {directory}")

    relations: dict[str, Relation] = {}
    for path in paths:
        name = path.stem
        if name in relations:
            raise DuplicateRelationError(f"relation {name!r} defined twice")
        try:
            with path.open(newline="", encoding="utf-8") as handle:
                rows = [tuple(cells) for cells in csv.reader(handle)]
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text: {exc}") from exc
        arity: int | None = None
        tuples = set()
        for lineno, cells in enumerate(rows, start=1):
            if arity is None:
                arity = len(cells)
            elif len(cells) != arity:
                raise RaggedRowsError(
                    f"{path.name}:{lineno}: row has {len(cells)} columns, expected {arity}"
                )
            tuples.add(tuple(Value(cell) for cell in cells))
        relations[name] = Relation(name, arity or 0, tuples)
    return Database(relations)


def save_database(db: Database, directory: str | Path) -> None:
    """Write one CSV per relation; inverse of load_database up to row order."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name in sorted(db.relations):
        rel = db.relations[name]
        with (directory / f"{name}.csv").open("w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            for row in sorted(rel.tuples, key=lambda r: tuple(v.text for v in r)):
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


def restrict(assignment: Assignment, variables: Iterable[str]) -> Assignment:
    """Module-level alias for Assignment.restrict."""
    return assignment.restrict(variables)
