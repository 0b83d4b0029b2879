"""CPLEX-LP-format export and a matching reader, both over ``SparseLp``.

The writer emits Maximize/Minimize, Subject To, and End sections, each row
with its terms moved left and its constants right; variable bounds stay
implicit since every variable is nonnegative by convention, which is also
the LP-format default.  Variable names outside the safe charset (or
overlong ones) are replaced by v<i>, with the mapping written to
``<path>.names.json`` alongside the program.

The reader accepts what the writer emits, plus the usual small variations
(>=, implicit 1 coefficients, constants on either side), and builds the
program through ``LpBuilder``, so files round trip up to term ordering.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np

from .errors import IoError
from .linprog import LpBuilder, Side, SparseLp

_SAFE_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_MAX_NAME = 200

_REL_OPS = {"<=", ">=", "=<", "=>", "=", "<", ">"}

_SECTION_WORDS = {
    "maximize": "maximize", "maximise": "maximize", "max": "maximize",
    "minimize": "minimize", "minimise": "minimize", "min": "minimize",
    "subject": "subject",
    "bounds": "bounds", "bound": "bounds",
    "end": "end",
    "general": "skip", "generals": "skip", "binary": "skip", "binaries": "skip",
}


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _sanitize(variables: list[str]) -> tuple[dict[str, str], dict[str, str]]:
    """Map original names to LP-safe ones; returns (to_lp, renamed_only)."""
    to_lp: dict[str, str] = {}
    renamed: dict[str, str] = {}
    counter = 0
    taken = set(variables)
    for name in variables:
        if _SAFE_NAME.match(name) and len(name) <= _MAX_NAME and name.lower() not in _SECTION_WORDS:
            to_lp[name] = name
        else:
            counter += 1
            fresh = f"v{counter}"
            while fresh in taken:
                counter += 1
                fresh = f"v{counter}"
            taken.add(fresh)
            to_lp[name] = fresh
            renamed[fresh] = name
    return to_lp, renamed


def _format_sum(names: list[str], cols, vals, constant: float = 0.0) -> str:
    """The terms in column order, a repeated column's coefficients summed and
    exact zeros dropped, then *constant* unless it is 0; as LP-format text."""
    acc: dict[int, float] = {}
    for col, val in zip(cols, vals):
        acc[col] = acc.get(col, 0.0) + val
    terms = [(names[col], val) for col, val in sorted(acc.items()) if val != 0.0]
    parts: list[str] = []
    for name, coeff in terms + ([(None, constant)] if constant else []):
        sign = "-" if coeff < 0 else "+"
        mag = abs(coeff)
        chunk = _fmt(mag) if name is None else name if mag == 1.0 else f"{_fmt(mag)} {name}"
        parts.append(chunk if not parts and sign == "+" else f"{sign} {chunk}")
    return " ".join(parts) or _fmt(constant)


def export_lp(lp: SparseLp, path: str | Path) -> None:
    """Write *lp* in LP format; emits <path>.names.json with renamed variables.

    A row's terms are summed per column and sorted by column, which is name
    order, and its bound is ``rconst - lconst``."""
    path = Path(path)
    to_lp, renamed = _sanitize(lp.names)
    names = [to_lp[name] for name in lp.names]

    lines = ["\\ exported linear program"]
    lines.append("Maximize" if lp.sense == "maximize" else "Minimize")
    objective = _format_sum(names, lp.obj_cols.tolist(), lp.obj_vals.tolist(), lp.obj_const)
    lines.append(f" obj: {objective}")
    lines.append("Subject To")
    for i, ((lconst, lcols, lvals), rel, (rconst, rcols, rvals)) in enumerate(lp.rows(), start=1):
        row = _format_sum(names, lcols + rcols, lvals + [-v for v in rvals])
        lines.append(f" c{i}: {row} {rel} {_fmt(rconst - lconst)}")
    used = np.concatenate([lp.cols[lp.vals != 0.0], lp.obj_cols[lp.obj_vals != 0.0]])
    unused = np.setdiff1d(np.arange(len(names)), used).tolist()
    if unused:
        # nonnegativity is implicit; listing keeps unused variables in the file
        lines.append("Bounds")
        lines.extend(f" {names[c]} >= 0" for c in unused)
    lines.append("End")
    try:
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        Path(str(path) + ".names.json").write_text(
            json.dumps(renamed, indent=2, sort_keys=True), encoding="utf-8"
        )
    except OSError as exc:
        raise IoError(str(exc)) from exc


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>[0-9]+(?:\.[0-9]*)?(?:[eE][+-]?[0-9]+)?|\.[0-9]+)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_.']*)"
    r"|(?P<op><=|>=|=<|=>|[:=+<>-]))"
)


def _tokenize_lp(text: str) -> list[str]:
    tokens: list[str] = []
    for raw_line in text.splitlines():
        line = raw_line.split("\\", 1)[0]
        pos = 0
        while pos < len(line):
            if line[pos].isspace():
                pos += 1
                continue
            m = _TOKEN_RE.match(line, pos)
            if not m:
                raise IoError(f"cannot tokenize LP line: {raw_line!r}")
            tokens.append(m.group(0).strip())
            pos = m.end()
    return tokens


class _LpReader:
    def __init__(self, tokens: list[str], renamed: dict[str, str]):
        self.tokens = tokens
        self.low = [t.lower() for t in tokens]
        self.renamed = renamed
        self.i = 0

    def done(self) -> bool:
        return self.i >= len(self.tokens)

    def at_section(self) -> str | None:
        if self.done():
            return "end"
        word = self.low[self.i]
        return _SECTION_WORDS.get(word)

    def expression(self, stop_at_relation: bool) -> tuple[float, dict[str, float]]:
        """Parse tokens into a constant and ``{name: coefficient}`` terms,
        without zeros, until a relation or section keyword."""
        constant = 0.0
        terms: dict[str, float] = {}
        sign = 1.0
        pending: float | None = None
        consumed = False

        def flush():
            nonlocal constant, pending, sign
            if pending is not None:
                constant += sign * pending
                pending = None
                sign = 1.0

        while not self.done():
            tok = self.tokens[self.i]
            if self.at_section():
                break
            if tok in _REL_OPS:
                if stop_at_relation:
                    break
                raise IoError(f"unexpected {tok!r} in expression")
            if tok == "+":
                flush()
                self.i += 1
                consumed = True
                continue
            if tok == "-":
                flush()
                sign = -sign
                self.i += 1
                consumed = True
                continue
            if tok == ":":
                raise IoError("misplaced ':'")
            if re.match(r"[0-9.]", tok):
                flush()
                pending = float(tok)
                self.i += 1
                consumed = True
                continue
            # a name followed by ':' is a row label: skip it when leading,
            # otherwise it starts the next row and ends this expression
            if self.i + 1 < len(self.tokens) and self.tokens[self.i + 1] == ":":
                if consumed:
                    break
                self.i += 2
                continue
            consumed = True
            name = self.renamed.get(tok, tok)
            coeff = sign * (pending if pending is not None else 1.0)
            new = terms.get(name, 0.0) + coeff
            if new == 0.0:
                terms.pop(name, None)
            else:
                terms[name] = new
            pending = None
            sign = 1.0
            self.i += 1
        flush()
        return constant, terms


def parse_lp(path: str | Path) -> SparseLp:
    """Parse an LP-format file; names from <path>.names.json are restored.

    Raises IoError naming the file when it or its sidecar cannot be read,
    is not UTF-8, or the sidecar is not a JSON object of names.
    """
    path = Path(path)
    try:
        tokens = _tokenize_lp(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise IoError(str(exc)) from exc
    except UnicodeDecodeError as exc:
        raise IoError(f"{path}: not UTF-8 text: {exc}") from exc
    renamed: dict[str, str] = {}
    sidecar = Path(str(path) + ".names.json")
    if sidecar.exists():
        try:
            renamed = json.loads(sidecar.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:  # JSON and UTF-8 errors are ValueErrors
            raise IoError(f"{sidecar}: not a names file: {exc}") from exc
        if not isinstance(renamed, dict) or not all(isinstance(v, str) for v in renamed.values()):
            raise IoError(f"{sidecar}: not a names file: expected an object of names")

    reader = _LpReader(tokens, renamed)
    section = reader.at_section()
    if section not in ("maximize", "minimize"):
        raise IoError("LP file must start with Maximize or Minimize")
    sense = section
    reader.i += 1

    builder = LpBuilder()
    index: dict[str, int] = {}

    def side(expr) -> Side:
        """*expr* over the builder's columns, one added per new name."""
        constant, terms = expr
        for name in terms.keys() - index.keys():
            index[name] = builder.block([name])
        return constant, [index[name] for name in terms], list(terms.values())

    objective = side(reader.expression(stop_at_relation=False))

    if reader.at_section() != "subject":
        raise IoError("missing Subject To section")
    reader.i += 1
    if not reader.done() and reader.low[reader.i] == "to":
        reader.i += 1

    while not reader.done() and reader.at_section() is None:
        lhs = side(reader.expression(stop_at_relation=True))
        if reader.done() or reader.tokens[reader.i] not in _REL_OPS:
            raise IoError("constraint missing relation")
        rel = reader.tokens[reader.i]
        reader.i += 1
        rhs = side(reader.expression(stop_at_relation=True))
        if rel in ("<=", "<", "=<"):
            builder.row(lhs, "<=", rhs)
        elif rel in (">=", ">", "=>"):
            builder.row(rhs, "<=", lhs)
        else:
            builder.row(lhs, "=", rhs)

    while not reader.done() and reader.at_section() != "end":
        if reader.at_section() in ("bounds", "skip"):
            reader.i += 1
            continue
        lhs = side(reader.expression(stop_at_relation=True))
        if not reader.done() and reader.tokens[reader.i] in _REL_OPS:
            reader.i += 1
            rhs = side(reader.expression(stop_at_relation=True))
            for constant, cols, _ in (lhs, rhs):
                if constant != 0.0 and not cols:
                    raise IoError("only nonnegativity bounds are supported")
    return builder.build(sense, objective)
