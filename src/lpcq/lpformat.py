"""CPLEX-LP-format export of a ``SparseLp``.

The writer emits Maximize/Minimize, Subject To, and End sections, each row
with its terms moved left and its constants right; variable bounds stay
implicit since every variable is nonnegative by convention, which is also
the LP-format default.  Variable names outside the safe charset (or
overlong ones) are replaced by v<i>, with the mapping written to
``<path>.names.json`` alongside the program.  The test suite holds a
matching reader.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np

from .errors import IoError
from .linprog import SparseLp

_SAFE_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_MAX_NAME = 200

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
    order, and its bound is ``rconst - lconst``.  Every column of a class
    is written with its lead's coefficients (``SparseLp.spread``), so a
    class with entries lists none of its columns under ``Bounds``."""
    path = Path(path)
    lp = lp.spread()
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
