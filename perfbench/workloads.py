"""Workloads of the benchmark: programs, seeded instance generators, invocations.

Everything here is a pure function of the workload name and the seed.  The
generators are the benchmark's own, so a change to ``lpcq.synth`` cannot
change a workload; ``delivery`` draws exactly what ``lpcq gen`` drew when
the benchmark was written, so ``--seed 1`` reproduces the repository's
baseline figures.  Nothing here imports lpcq.
"""

from __future__ import annotations

import csv
import os
import random
import shutil
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
PROGRAMS = HERE / "programs"
# generated instances, cached references, weights files and traces
WORK = HERE / "work"
THROUGHPUT_DECOMP = PROGRAMS / "throughput_decomp.json"

# grid fill fraction of every delivery table, as in the repository's bench
SELECTIVITY = 0.04


@dataclass(frozen=True)
class Instance:
    """One program over one generated database."""

    program: str  # throughput | privacy | smeasure
    size: int  # delivery rows per table, patients, or graph nodes
    seed: int

    @property
    def key(self) -> str:
        return f"{self.program}-{self.size}-s{self.seed}"

    @property
    def program_path(self) -> Path:
        return PROGRAMS / f"{self.program}.lpcq"


@dataclass(frozen=True)
class Invocation:
    instance: Instance
    mode: str  # natural | replacement | factorized
    decomp: str | None = None  # "bench" (throughput_decomp.json) or "heuristic"
    weights: bool = False

    @property
    def label(self) -> str:
        parts = [self.instance.key, self.mode]
        if self.decomp:
            parts.append(self.decomp)
        if self.weights:
            parts.append("weights")
        return "/".join(parts)

    def argv(self, db_dir: Path, weights_path: Path | None) -> list[str]:
        argv = ["solve", str(self.instance.program_path), str(db_dir),
                "--mode", self.mode, "--json"]
        if self.decomp == "bench":
            argv += ["--decomp", str(THROUGHPUT_DECOMP)]
        elif self.decomp == "heuristic":
            argv.append("--heuristic-decomp")
        if self.weights:
            argv += ["--weights", str(weights_path)]
        return argv


# Instance sizes.  The delivery sizes are among those of the repository's
# baseline (100/300/500/1000); 500 is the largest whose natural LP the
# reference solves in a few seconds.  small's sizes keep every natural and
# replacement LP under the dense-simplex cell limit of the auto engine, so
# that path runs here and nowhere else.
NATURAL_SIZE = 300
FACTORIZED_SIZE = 500
PLAN_SIZE = 300
SMALL_SIZES = (("throughput", 60), ("privacy", 100), ("smeasure", 45))

# instances per pass: more instances average out how hard one seed's
# instance happens to be, which otherwise shows as spread between seeds
INSTANCES = {"natural": 2, "factorized": 3, "plan": 2, "small": 3}

WORKLOADS = tuple(INSTANCES)


def instance_seeds(workload: str, seed: int) -> list[int]:
    """Seeds of a pass's instances; the first is *seed* itself, so
    ``--seed 1`` reproduces ``lpcq gen --seed 1``."""
    return [seed + 1000 * k for k in range(INSTANCES[workload])]


def invocations(workload: str, seed: int) -> list[Invocation]:
    """The ``lpcq solve`` calls that make up one pass of *workload*."""
    seeds = instance_seeds(workload, seed)
    if workload == "natural":
        return [Invocation(Instance("throughput", NATURAL_SIZE, s), "natural") for s in seeds]
    if workload == "factorized":
        return [Invocation(Instance("throughput", FACTORIZED_SIZE, s), "factorized", "bench")
                for s in seeds]
    if workload == "plan":
        return [Invocation(Instance("throughput", PLAN_SIZE, s), "factorized", "bench",
                           weights=True) for s in seeds]
    if workload == "small":
        return [
            Invocation(Instance(program, size, s), mode,
                       "heuristic" if mode == "factorized" else None)
            for s in seeds
            for program, size in SMALL_SIZES
            for mode in ("natural", "replacement", "factorized")
        ]
    raise ValueError(f"unknown workload {workload!r}")


# --- generators -----------------------------------------------------------------


def _domain_size(size: int, arity: int) -> int:
    """Smallest n with n**arity >= size / SELECTIVITY."""
    target = size / SELECTIVITY
    n = max(1, round(target ** (1.0 / arity)))
    while n**arity < target - 1e-9:
        n += 1
    while n > 1 and (n - 1) ** arity >= target - 1e-9:
        n -= 1
    return n


def _grid_sample(rng: random.Random, n: int, arity: int, count: int) -> list[tuple[int, ...]]:
    total = n**arity
    if total <= 2_000_000:
        picks = sorted(rng.sample(range(total), count))
    else:
        seen: set[int] = set()
        while len(seen) < count:
            seen.add(rng.randrange(total))
        picks = sorted(seen)
    rows = []
    for index in picks:
        digits = []
        for _ in range(arity):
            index, digit = divmod(index, n)
            digits.append(digit)
        rows.append(tuple(reversed(digits)))
    return rows


# (table, arity, position of the numeric column)
_DELIVERY_TABLES = (("prod", 3, 2), ("order", 3, 2), ("route", 3, 2), ("store", 2, 1))


def delivery_tables(size: int, seed: int) -> dict[str, list[tuple[str, ...]]]:
    """prod, order, route and store with *size* distinct rows each."""
    rng = random.Random(seed)
    tables = {}
    for name, arity, numeric in _DELIVERY_TABLES:
        n = _domain_size(size, arity)
        seen: set[tuple[str, ...]] = set()
        rows = []
        for digits in _grid_sample(rng, n, arity, size):
            while True:
                cells = tuple(
                    f"{rng.uniform(1.0, 100.0):.2f}" if pos == numeric else f"d{digits[pos]}"
                    for pos in range(arity)
                )
                if cells not in seen:
                    break
            seen.add(cells)
            rows.append(cells)
        tables[name] = rows
    return tables


def privacy_tables(patients: int, seed: int) -> dict[str, list[tuple[str, ...]]]:
    """Hospitals, tests, studies and budgets for *patients* patients.

    Every patient has a budget, so the program is bounded.
    """
    rng = random.Random(f"privacy:{seed}")
    hospitals = max(2, patients // 10)
    tests = max(4, patients // 3)
    studies = max(2, patients // 8)
    h_rows = [(f"p{i}", f"h{rng.randrange(hospitals)}") for i in range(patients)]
    test_rows = sorted({
        (f"p{i}", f"t{t}")
        for i in range(patients)
        for t in rng.sample(range(tests), rng.randint(1, 4))
    })
    st_rows = sorted({
        (f"t{t}", f"s{s}")
        for t in range(tests)
        for s in rng.sample(range(studies), rng.randint(1, 2))
    })
    sens_rows = [(s, t, f"{rng.uniform(1.0, 10.0):.2f}") for t, s in st_rows]
    priv_rows = [(f"p{i}", f"{rng.uniform(0.5, 2.0):.2f}") for i in range(patients)]
    priv_rows += [(f"h{j}", f"{rng.uniform(2.0, 8.0):.2f}") for j in range(hospitals)]
    return {"H": h_rows, "Test": test_rows, "St": st_rows, "Sens": sens_rows, "Priv": priv_rows}


def graph_tables(nodes: int, seed: int) -> dict[str, list[tuple[str, ...]]]:
    """A directed graph with three times as many edges as nodes, no loops."""
    rng = random.Random(f"graph:{seed}")
    edges: set[tuple[int, int]] = set()
    while len(edges) < 3 * nodes:
        a, b = rng.randrange(nodes), rng.randrange(nodes)
        if a != b:
            edges.add((a, b))
    return {
        "node": [(f"v{i}",) for i in range(nodes)],
        "edge": [(f"v{a}", f"v{b}") for a, b in sorted(edges)],
    }


GENERATORS = {
    "throughput": delivery_tables,
    "privacy": privacy_tables,
    "smeasure": graph_tables,
}


def materialize(instance: Instance) -> Path:
    """Write the instance's CSV files once; return their directory."""
    root = WORK / "inst"
    out = root / instance.key
    if out.is_dir():
        return out
    tmp = root / f".{instance.key}.{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    for name, rows in GENERATORS[instance.program](instance.size, instance.seed).items():
        with (tmp / f"{name}.csv").open("w", newline="", encoding="utf-8") as handle:
            csv.writer(handle).writerows(sorted(rows))
    os.replace(tmp, out)
    return out
