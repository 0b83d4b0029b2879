"""Closure against the row closure it replaced.

``lpcq.language.close`` evaluates each binder query once, with the outer
variables it mentions left free, and closes every node for all its rows at
once; ``oracles.row_closure`` substitutes each outer row into the binder
query and evaluates it again.  Both must give the same closed program: the
same rows in the same order, the same terms with the same float
coefficients, and, for a program that cannot be closed, the same error.
Every interpretation built from either must be the same LP array for
array, since the vertex HiGHS returns depends on the row and column order.
"""

import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lpcq.cli import build_decompositions
from lpcq.errors import LpcqError
from lpcq.interpret import factorized, natural, quantifier_eliminate, replacement
from lpcq.language import (
    CAnd,
    CCompare,
    CForall,
    ClosedProgram,
    CTrue,
    LpcqProgram,
    NumOf,
    Real,
    SAdd,
    SNum,
    SScale,
    SSum,
    SWeight,
    close,
    normal_form,
    parse,
)
from lpcq.queries import Atom, Const, Var, conjoin, free_vars, parse_query
from lpcq.relations import Value, load_database
from lpcq.synth import GenSpec, generate_delivery

from makers import make_db
from oracles import row_closure

ROOT = Path(__file__).resolve().parent.parent

NUMBERS = ("0", "1", "2", "2.5")  # values num() reads
WORDS = ("a", "b")  # values without a numeric reading
RELATIONS = {"R": 1, "S": 2, "T": 2, "U": 3, "E": 1}  # E stays empty
PRELUDE = {
    "Q0": parse_query("S(x, y)"),
    "Q1": parse_query("exists z. U(x, y, z)"),
    "Q2": parse_query("R(x) /\\ T(x, y)"),
}


def rand_db(rng: random.Random, words: bool):
    domain = NUMBERS + (WORDS if words else ())
    tables = {
        name: {tuple(rng.choice(domain) for _ in range(arity)) for _ in range(rng.randint(2, 8))}
        for name, arity in RELATIONS.items() if name != "E"
    }
    return make_db(E=(1, []), **tables)


class RandomProgram:
    """Programs with nested forall and sum binders whose queries mention
    outer variables, binders left out of their query (they range over the
    domain), binders that shadow outer ones, target constants outside the
    database, and, with *unbound*, a variable nothing binds."""

    def __init__(self, rng: random.Random, unbound: bool):
        self.rng = rng
        self.unbound = unbound
        self.count = 0

    def name(self, env: list[str]) -> str:
        if self.unbound and self.rng.random() < 0.05:
            return "zz"
        return self.rng.choice(env)

    def binder(self, env: list[str]):
        rng = self.rng
        binders: list[str] = []
        for _ in range(rng.randint(1, 2)):
            if env and rng.random() < 0.15:
                name = rng.choice(env)  # shadows the outer binding
            else:
                self.count += 1
                name = f"b{self.count}"
            if name not in binders:
                binders.append(name)
        pool = binders + env
        atoms = [
            Atom(rel, tuple(Var(self.name(pool)) for _ in range(RELATIONS[rel])))
            for rel in rng.sample(sorted(RELATIONS), rng.choice([1, 1, 2]))
        ]
        inner = env + [b for b in binders if b not in env]
        return tuple(binders), conjoin(atoms), inner

    def target(self, env: list[str]):
        roll = self.rng.random()
        if env and roll < 0.6:
            return Var(self.name(env))
        if roll < 0.85:
            return Const(Value(self.rng.choice(NUMBERS)))
        return Const(Value("absent"))

    def num(self, env: list[str]):
        roll = self.rng.random()
        if env and roll < 0.5:
            return NumOf(Var(self.name(env)))
        if roll < 0.6:
            return NumOf(Const(Value(self.rng.choice(NUMBERS))))
        return Real(self.rng.choice([-2.0, -1.0, 0.5, 1.0, 3.0, 0.1]))

    def weight(self, env: list[str]) -> SWeight:
        name = self.rng.choice(sorted(PRELUDE))
        fv = sorted(free_vars(PRELUDE[name]))
        chosen = sorted(self.rng.sample(fv, self.rng.randint(0, len(fv))))
        return SWeight(tuple(fv), tuple((x, self.target(env)) for x in chosen), name, PRELUDE[name])

    def sum(self, env: list[str], depth: int):
        roll = self.rng.random()
        if depth == 0 or roll < 0.3:
            return self.weight(env) if self.rng.random() < 0.6 else SNum(self.num(env))
        if roll < 0.5:
            return SAdd(self.sum(env, depth - 1), self.sum(env, depth - 1))
        if roll < 0.7:
            return SScale(self.num(env), self.sum(env, depth - 1))
        binders, query, inner = self.binder(env)
        return SSum(binders, query, self.sum(inner, depth - 1))

    def constraint(self, env: list[str], depth: int):
        roll = self.rng.random()
        if depth == 0 or roll < 0.2:
            rel = self.rng.choice(["<=", "="])
            return CCompare(self.sum(env, 1), rel, self.sum(env, 1))
        if roll < 0.5:
            return CAnd(self.constraint(env, depth - 1), self.constraint(env, depth - 1))
        if roll < 0.55:
            return CTrue()
        binders, query, inner = self.binder(env)
        return CForall(binders, query, self.constraint(inner, depth - 1))

    def program(self) -> LpcqProgram:
        return LpcqProgram(
            self.sum([], 3), self.constraint([], 3), dict(PRELUDE),
            minimized=self.rng.random() < 0.3,
        )


def closed_rows(cp: ClosedProgram):
    """The program row by row, exactly: each side's constant and terms."""

    def side(s):
        return s.constant, s.terms

    return side(cp.objective), [(side(c.lhs), c.rel, side(c.rhs)) for c in cp.constraints]


def outcome(closure, program, db):
    try:
        return closure(program, db)
    except LpcqError as error:
        return type(error), str(error)


def assert_same_closure(program, db):
    got, want = outcome(close, program, db), outcome(row_closure, program, db)
    if isinstance(want, tuple):
        assert got == want
        return
    assert closed_rows(got) == closed_rows(want)
    assert got.canonical() == want.canonical()
    assert [w.sort_key() for w in got.weight_exprs()] == [w.sort_key() for w in want.weight_exprs()]
    assert got.queries_w() == want.queries_w()


@settings(max_examples=120, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32), words=st.booleans(), unbound=st.booleans())
def test_random_programs_close_as_row_by_row(seed, words, unbound):
    rng = random.Random(seed)
    db = rand_db(rng, words)
    program = RandomProgram(rng, unbound).program()
    assert_same_closure(program, db)
    assert_same_closure(normal_form(program), db)


def demo(name: str):
    return parse((ROOT / "demos" / name / f"{name}.lpcq").read_text()), \
        load_database(ROOT / "demos" / name / "data")


def bench_instances():
    """The benchmark's programs, read from ``perfbench/programs``, over
    small instances made here."""
    rng = random.Random(7)
    patients = [f"p{i}" for i in range(12)]
    tests = [f"t{i}" for i in range(5)]
    studies = {(t, f"s{rng.randrange(3)}") for t in tests for _ in range(2)}
    privacy = make_db(
        H=[(p, f"h{rng.randrange(3)}") for p in patients],
        Test={(p, t) for p in patients for t in rng.sample(tests, 2)},
        St=studies,
        Sens=[(s, t, f"{rng.uniform(1, 10):.2f}") for t, s in studies],
        Priv=[(p, f"{rng.uniform(0.5, 2):.2f}") for p in patients]
        + [(f"h{j}", f"{rng.uniform(2, 8):.2f}") for j in range(3)],
    )
    edges = {(f"v{rng.randrange(8)}", f"v{rng.randrange(8)}") for _ in range(20)}
    graph = make_db(node=[(f"v{i}",) for i in range(8)], edge=[e for e in edges if e[0] != e[1]])
    delivery = generate_delivery(GenSpec(40, seed=3, selectivity=0.04))
    programs = ROOT / "perfbench" / "programs"
    return [
        (parse((programs / f"{name}.lpcq").read_text()), db)
        for name, db in (("throughput", delivery), ("privacy", privacy), ("smeasure", graph))
    ]


INSTANCES = [demo(name) for name in ("delivery", "privacy", "smeasure")] + bench_instances()


@pytest.mark.parametrize("index", range(len(INSTANCES)))
def test_demo_and_benchmark_programs_close_as_row_by_row(index):
    program, db = INSTANCES[index]
    assert_same_closure(program, db)
    assert_same_closure(normal_form(program), db)


def test_hand_built_rows_are_families_of_one_row():
    program, db = INSTANCES[0]
    cp = close(normal_form(program), db)
    again = ClosedProgram(cp.objective, cp.constraints, cp.minimized)
    assert closed_rows(again) == closed_rows(cp)
    assert [f.key for f in again.families] == [f.key for f in cp.families]


# --- errors -------------------------------------------------------------------------

Q = PRELUDE["Q0"]


def forall(text: str, body):
    binders, query = text.split(":")
    return CForall(tuple(binders.split(",")), parse_query(query), body)


def w(*targets) -> SWeight:
    return SWeight(("x", "y"), tuple(targets), "Q0", Q)


ERROR_PROGRAMS = {
    "weight target unbound": forall("a:R(a)", CCompare(w(("x", Var("zz"))), "<=", SNum(Real(1.0)))),
    "num unbound": forall("a:R(a)", CCompare(w(), "<=", SNum(NumOf(Var("zz"))))),
    "binder query unbound": forall("a:S(a, zz)", CCompare(w(), "<=", SNum(Real(1.0)))),
    "num of a word": forall("a:R(a)", CCompare(w(), "<=", SNum(NumOf(Var("a"))))),
    "num of a word constant": CCompare(w(), "<=", SNum(NumOf(Const(Value("a"))))),
    # row 0 reads a number, a later row a word: the unbound target of row 0
    # comes first row by row, though closure meets the num node first
    "first error by row": forall("a:R(a)", CAnd(
        CCompare(w(), "<=", SNum(NumOf(Var("a")))),
        CCompare(w(("x", Var("zz"))), "<=", SNum(Real(1.0))),
    )),
    "nested rows": forall("a:R(a)", forall("c:S(a, c)", CCompare(
        SScale(NumOf(Var("c")), w(("y", Var("a")))), "<=", SNum(NumOf(Var("a"))),
    ))),
    "unknown relation": forall("a:Missing(a)", CCompare(w(), "<=", SNum(Real(1.0)))),
    "unbound under no rows": forall("a:E(a)", CCompare(w(("x", Var("zz"))), "<=", SNum(Real(1.0)))),
}


@pytest.mark.parametrize("name", sorted(ERROR_PROGRAMS))
def test_errors_are_the_row_closures(name):
    db = make_db(R=[("0",), ("a",)], S=[("0", "1"), ("a", "b"), ("0", "a")], E=(1, []),
                 T=[("0", "0")], U=[("0", "0", "0")])
    program = LpcqProgram(SNum(Real(0.0)), ERROR_PROGRAMS[name], dict(PRELUDE))
    got, want = outcome(close, program, db), outcome(row_closure, program, db)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert closed_rows(got) == closed_rows(want)


# --- the LPs built from either ------------------------------------------------------


def lps(cp: ClosedProgram, db):
    cpq = quantifier_eliminate(cp)
    decomps = build_decompositions(cp, cpq, None, True)
    return {
        "natural": natural(cpq, db).program,
        "replacement": replacement(cpq, db).program,
        "factorized": factorized(cpq, decomps, db).program,
    }


ARRAYS = ("indptr", "split", "cols", "vals", "lconst", "rconst", "eq", "obj_cols", "obj_vals",
          "lead")  # lead may be None on both sides, which array_equal takes as equal


def assert_same_lps(program, db):
    got, want = lps(close(program, db), db), lps(row_closure(program, db), db)
    for mode in got:
        a, b = got[mode], want[mode]
        assert a.names == b.names, mode
        assert a.obj_const == b.obj_const, mode
        for name in ARRAYS:
            assert np.array_equal(getattr(a, name), getattr(b, name)), (mode, name)


@pytest.mark.parametrize("index", range(len(INSTANCES)))
def test_demo_and_benchmark_lps_keep_their_rows(index):
    program, db = INSTANCES[index]
    assert_same_lps(normal_form(program), db)


@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32))
def test_random_program_lps_keep_their_rows(seed):
    rng = random.Random(seed)
    db = rand_db(rng, words=False)
    program = RandomProgram(rng, unbound=False).program()
    assert_same_lps(program, db)
    assert_same_lps(normal_form(program), db)
