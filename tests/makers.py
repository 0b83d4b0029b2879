"""Random instance generators shared by the module and acceptance tests."""

from __future__ import annotations

import random

import numpy as np

from lpcq.language import (
    CAnd,
    CCompare,
    CForall,
    ClosedConstraint,
    ClosedProgram,
    ClosedSum,
    LpcqProgram,
    NumOf,
    Real,
    SAdd,
    SNum,
    SScale,
    SSum,
    SWeight,
    WeightExprClosed,
)
from lpcq.linprog import Certificate, LpBuilder, SparseLp
from lpcq.queries import And, Atom, Const, Equal, Exists, Query, Var, evaluate, free_vars
from lpcq.relations import Database, Relation, Value

from oracles import plus


def make_db(**relations) -> Database:
    rels = {}
    for name, spec in relations.items():
        if isinstance(spec, tuple):
            arity, rows = spec
            rows = list(rows)
        else:
            rows = list(spec)
            arity = len(rows[0]) if rows else 0
        tuples = [tuple(Value(str(c)) for c in row) for row in rows]
        rels[name] = Relation(name, arity, tuples)
    return Database(rels)


def sparse_lp(sense: str, objective, rows=(), variables=(), classes=None) -> SparseLp:
    """A program built with ``LpBuilder`` from plain dicts.

    The objective and each side of a row ``(lhs, rel, rhs)`` are a
    ``{name: coeff}`` dict, a number, or a ``(number, dict)`` pair.  The
    columns are the names in any of them, plus *variables*.  *classes*
    maps a column's name to the name that stands for its class
    (``LpBuilder.block``'s stand-ins; a column not in it is its own), and
    the rows and the objective name a class by its stand-in alone.
    """

    def parts(side):
        if isinstance(side, dict):
            return 0.0, side
        return side if isinstance(side, tuple) else (float(side), {})

    sides = [parts(objective)] + [parts(side) for lhs, _, rhs in rows for side in (lhs, rhs)]
    names = sorted(set(variables).union(*(terms for _, terms in sides)))
    builder = LpBuilder()
    index = {name: i for i, name in enumerate(names)}
    builder.block(names, None if classes is None else [index[classes.get(n, n)] for n in names])

    def side(s):
        constant, terms = parts(s)
        return constant, [index[name] for name in terms], [float(c) for c in terms.values()]

    for lhs, rel, rhs in rows:
        builder.row(side(lhs), rel, side(rhs))
    return builder.build(sense, side(objective))


def has_classes(lp: SparseLp) -> bool:
    """Whether some class of *lp* (``SparseLp.lead``) has two columns."""
    return bool((lp.lead != np.arange(len(lp.names))).any())


def certify_point(lp: SparseLp, point) -> tuple[Certificate, float]:
    """The primal certificate of *point*, a value per column name, against
    *lp*'s rows as ``Matrices.certify`` checks them, and *lp*'s objective
    at *point*."""
    x = np.array([point[name] for name in lp.names])
    spread = lp.spread()
    return lp.matrices().certify(x), lp.obj_const + float(spread.obj_vals @ x[spread.obj_cols])


def answer_point(interpreted, key, masses) -> dict[str, float]:
    """A value per θ variable of *key* in a natural or replacement program,
    by name, from *masses*, a mass per answer row."""
    block = interpreted.theta[key]
    names = interpreted.program.names
    return {names[c]: masses[row] for c, row in zip(block.columns.tolist(), block.rows.rows)}


def rand_db(rng: random.Random, max_tuples: int = 50, max_relations: int = 4) -> Database:
    n_dom = rng.randint(2, 5)
    names = ["R", "S", "T", "U"][: rng.randint(1, max_relations)]
    budget = rng.randint(max(4, len(names) * 2), max_tuples)
    rels = {}
    for name in names:
        arity = rng.randint(1, 3)
        n_rows = max(2, budget // len(names))
        rows = {
            tuple(str(rng.randrange(n_dom)) for _ in range(arity))
            for _ in range(rng.randint(max(1, n_rows // 2), n_rows))
        }
        rels[name] = rows
    return make_db(**rels)


def rand_query(
    rng: random.Random,
    db: Database,
    max_atoms: int = 4,
    n_exists: int = 0,
    var_pool=("x", "y", "z", "u", "v"),
) -> Query:
    """Random conjunction of atoms over db's schema, optionally quantified.

    Quantified variables are drawn from variables that occur in atoms, so
    decompositions of the rewritten query stay coverable.
    """
    names = sorted(db.relations)
    parts = []
    for _ in range(rng.randint(1, max_atoms)):
        rel = db.relations[rng.choice(names)]
        args = tuple(Var(rng.choice(var_pool)) for _ in range(rel.arity))
        parts.append(Atom(rel.name, args))
    if rng.random() < 0.25 and db.domain:
        dom = sorted(db.domain, key=lambda v: v.text)
        some_var = rng.choice([a.name for p in parts for a in p.args])
        parts.append(Equal(Var(some_var), Const(rng.choice(dom))))
    q: Query = parts[0]
    for p in parts[1:]:
        q = And(q, p)
    fv = sorted(free_vars(q))
    if n_exists and len(fv) > 1:
        for var in rng.sample(fv, k=min(n_exists, len(fv) - 1)):
            q = Exists(var, q)
    return q


def rand_closed_program(
    rng: random.Random,
    db: Database,
    queries: list[tuple[str, Query]],
    max_weights: int = 6,
    answer_cap: int = 600,
):
    """Random closed program over the given queries, or None when an answer
    set is degenerate (empty or too large to be an interesting instance)."""
    answers = {}
    for name, q in queries:
        rows = evaluate(q, db)
        if not 0 < len(rows) <= answer_cap:
            return None
        answers[(name, q)] = rows

    # the per-query mass caps contribute weight expressions too; stay within
    # the overall budget
    weights: list[WeightExprClosed] = []
    for _ in range(rng.randint(1, max(1, max_weights - len(queries)))):
        name, q = rng.choice(queries)
        rows = answers[(name, q)]
        fv = sorted(rows.variables)
        k = rng.randint(0, min(2, len(fv)))
        target_vars = sorted(rng.sample(fv, k=k))
        if rng.random() < 0.7:
            row = rng.choice(rows.rows)
            values = [row[rows.variables.index(v)] for v in target_vars]
        else:
            dom = sorted(db.domain, key=lambda v: v.text)
            values = [rng.choice(dom) for _ in target_vars]
        weights.append(
            WeightExprClosed(name, q, tuple(zip(target_vars, values)))
        )

    def total_weight(name, q):
        return WeightExprClosed(name, q, ())

    constraints = []
    for name, q in queries:  # mass caps keep every interpretation bounded
        constraints.append(
            ClosedConstraint(
                ClosedSum(0.0, {total_weight(name, q): 1.0}),
                "<=",
                ClosedSum(float(rng.randint(1, 10))),
            )
        )
    for _ in range(rng.randint(0, 3)):
        chosen = rng.sample(weights, k=min(len(weights), rng.randint(1, 2)))
        lhs = ClosedSum(0.0, {w: float(rng.randint(1, 3)) for w in chosen})
        if rng.random() < 0.2:
            rel = "="
            rhs = ClosedSum(0.0, {rng.choice(weights): 1.0})
        else:
            rel = "<="
            rhs = ClosedSum(float(rng.randint(0, 8)))
        constraints.append(ClosedConstraint(lhs, rel, rhs))

    objective = ClosedSum(0.0)
    for w in weights:
        objective = plus(objective, ClosedSum(0.0, {w: float(rng.randint(0, 3))}))
    if not objective.terms:
        objective = plus(objective, ClosedSum(0.0, {weights[0]: 1.0}))
    return ClosedProgram(objective, constraints)


def rand_flagship_instance(rng: random.Random, n_exists: int = 0, names=None):
    """Database, queries, and a closed program for the end-to-end suites.
    The queries are ``Q0`` and ``Q1``, or distinct names drawn from
    *names* when given."""
    for _ in range(40):
        db = rand_db(rng)
        count = rng.randint(1, 2)
        labels = [f"Q{i}" for i in range(count)] if names is None else rng.sample(names, count)
        queries = [(label, rand_query(rng, db, n_exists=n_exists)) for label in labels]
        cp = rand_closed_program(rng, db, queries)
        if cp is not None:
            return db, queries, cp
    raise RuntimeError("could not build a flagship instance")


# --- random surface programs (for normal-form checks) --------------------------


def rand_lpcq_program(rng: random.Random, db: Database) -> LpcqProgram:
    """Random well-formed surface program of nesting depth up to three."""
    rel_names = sorted(db.relations)

    prelude: dict[str, Query] = {}
    n_q = rng.randint(1, 2)
    for i in range(n_q):
        rel = db.relations[rng.choice(rel_names)]
        params = tuple(f"q{i}v{j}" for j in range(rel.arity))
        prelude[f"Q{i}"] = Atom(rel.name, tuple(Var(p) for p in params))

    binder_counter = [0]

    def fresh_binder():
        binder_counter[0] += 1
        return f"b{binder_counter[0]}"

    def binder_query(binders):
        rel = db.relations[rng.choice(rel_names)]
        args = []
        for pos in range(rel.arity):
            args.append(Var(rng.choice(binders)) if binders else Var(fresh_binder()))
        used = tuple(a.name for a in args)
        # bind every binder: reuse unused binders via equality-free atoms is
        # overkill; instead only generate queries over the binder variables
        return Atom(rel.name, args)

    def rand_weight(env: list[str]) -> SWeight:
        name = rng.choice(sorted(prelude))
        q = prelude[name]
        fv = sorted(free_vars(q))
        k = rng.randint(0, min(2, len(fv)))
        targets = []
        for x in sorted(rng.sample(fv, k=k)):
            if env and rng.random() < 0.7:
                targets.append((x, Var(rng.choice(env))))
            else:
                dom = sorted(db.domain, key=lambda v: v.text)
                targets.append((x, Const(rng.choice(dom))))
        return SWeight(tuple(fv), tuple(targets), name, q)

    def rand_num(env: list[str]):
        if env and rng.random() < 0.4:
            return NumOf(Var(rng.choice(env)))
        return Real(float(rng.randint(-3, 5)))

    def rand_sum(depth: int, env: list[str]):
        roll = rng.random()
        if depth <= 0 or roll < 0.3:
            if rng.random() < 0.5:
                return rand_weight(env)
            return SNum(rand_num(env))
        if roll < 0.5:
            return SAdd(rand_sum(depth - 1, env), rand_sum(depth - 1, env))
        if roll < 0.7:
            return SScale(rand_num(env), rand_sum(depth - 1, env))
        binders = tuple(fresh_binder() for _ in range(rng.randint(1, 2)))
        q = binder_query(list(binders))
        missing = [b for b in binders if b not in free_vars(q)]
        for b in missing:
            q = And(q, Equal(Var(b), Var(b)))
        return SSum(binders, q, rand_sum(depth - 1, env + list(binders)))

    def rand_constraint(depth: int, env: list[str]):
        roll = rng.random()
        if depth <= 0 or roll < 0.35:
            return CCompare(
                rand_sum(max(depth - 1, 0), env), rng.choice(["<=", "="]),
                rand_sum(max(depth - 1, 0), env),
            )
        if roll < 0.55:
            return CAnd(rand_constraint(depth - 1, env), rand_constraint(depth - 1, env))
        binders = tuple(fresh_binder() for _ in range(rng.randint(1, 2)))
        q = binder_query(list(binders))
        missing = [b for b in binders if b not in free_vars(q)]
        for b in missing:
            q = And(q, Equal(Var(b), Var(b)))
        return CForall(binders, q, rand_constraint(depth - 1, env + list(binders)))

    objective = rand_sum(rng.randint(1, 3), [])
    constraint = rand_constraint(rng.randint(1, 3), [])
    return LpcqProgram(objective, constraint, prelude)


def numeric_db(rng: random.Random, n_dom: int = 3) -> Database:
    """Database whose values all decode as numbers, so num() is total."""
    rels = {}
    for name in ["R", "S"][: rng.randint(1, 2)]:
        arity = rng.randint(1, 2)
        rows = {
            tuple(str(rng.randrange(n_dom)) for _ in range(arity))
            for _ in range(rng.randint(1, 6))
        }
        rels[name] = rows
    return make_db(**rels)
