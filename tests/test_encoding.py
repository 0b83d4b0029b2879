"""Dictionary-encoded relations: codes in text order, decoded at the edges.

A database numbers its values in text order, so sorting rows of codes sorts
them by text.  These tests use texts on which code-point order disagrees
with the orders a naive encoder might use: numeric ("10" before "9"),
case-folded ("Z" before "a"), UTF-16 or byte order for characters outside
the BMP, and texts that need CSV quoting.  Answer rows, LP variable names
and weights CSVs must come out exactly as the tuple-at-a-time code wrote
them, which ``oracles`` keeps.
"""

import csv
import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lpcq.cli import main, run_pipeline
from lpcq.decomp import bag_projections, heuristic_decompose
from lpcq.interpret import qid
from lpcq.language import parse
from lpcq.queries import And, Atom, Const, Equal, Exists, Var, evaluate, free_vars, parse_query
from lpcq.relations import Database, Relation, Value, load_database
from lpcq.synth import GenSpec, generate_delivery

from makers import make_db
from oracles import brute_force_answers, weights_csv

TEXTS = ["10", "9", "-1", "", "a,b", '"q"', "é", "\U0001D518", "Z", "a"]
# code-point order
IN_TEXT_ORDER = ["", '"q"', "-1", "10", "9", "Z", "a", "a,b", "é", "\U0001D518"]

R_ROWS = [(t, u) for i, t in enumerate(TEXTS) for u in TEXTS[i % 3::3]]
S_ROWS = [(t,) for t in TEXTS[::2] + ["9"]]

PROGRAM = """
let q(x, y) = R(x, y) /\\ S(y)
maximize weight[(x, y): true](q)
subject to forall (a): S(a). weight[(x, y): y == a](q) <= 1
  /\\ forall (a, b): R(a, b). weight[(x, y): x == a /\\ y == b](q) <= 2
  /\\ forall (a): R(a, a). weight[(x, y): x == a](q) <= 3
"""


def text_key(row):
    return tuple(v.text for v in row)


def oracle_rows(q, db, variables=None):
    return sorted((a.values for a in brute_force_answers(q, db, variables)), key=text_key)


@pytest.fixture
def db_dir(tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    for name, rows in (("R", R_ROWS), ("S", S_ROWS)):
        with (data / f"{name}.csv").open("w", newline="", encoding="utf-8") as handle:
            csv.writer(handle).writerows(rows)
    return data


@pytest.fixture(params=["loaded", "built"])
def db(request, db_dir):
    if request.param == "loaded":
        return load_database(db_dir)
    return make_db(R=R_ROWS, S=S_ROWS)


def test_codes_follow_text_order(db):
    assert [v.text for v in db.sorted_domain()] == IN_TEXT_ORDER
    assert [r[0].text for r in evaluate(parse_query("S(x)"), db).rows] == [
        t for t in IN_TEXT_ORDER if (t,) in S_ROWS
    ]


@pytest.mark.parametrize("text", [
    "R(x, y) /\\ S(y)",
    "exists y. R(x, y) /\\ S(y)",
    "R(x, x)",
    "R(x, y) /\\ S(z)",
    'R(x, "9") /\\ y == "10"',
])
def test_answer_rows_are_the_oracle_rows_in_text_order(db, text):
    q = parse_query(text)
    got = evaluate(q, db)
    assert got.rows == oracle_rows(q, db)
    assert got == evaluate(q, db, free_vars(q))


def old_names(prefix, rows):
    """Variable names as they were built from value rows."""
    return [f"{prefix}_{'_'.join(v.token for v in row)}" if row else f"{prefix}_all"
            for row in rows]


@pytest.mark.parametrize("mode", ["natural", "replacement", "factorized"])
def test_lp_names_follow_text_order(db, mode):
    cp_qf, ilp, solution, _ = run_pipeline(parse(PROGRAM), db, mode,
                                           use_heuristic=mode == "factorized")
    assert solution.status == "optimal"
    (key,) = cp_qf.queries_w()
    names = ilp.program.names
    if mode == "factorized":
        tree = ilp.trees[key]
        full = brute_force_answers(key[1], db)
        for node, block in ilp.xi[key].items():
            bag = sorted(tree.bags[node])
            rows = sorted({tuple(a[v] for v in bag) for a in full}, key=text_key)
            assert [names[c] for c in block.columns] == old_names(
                f"xi_{qid(key[0])}_n{node}", rows
            )
    else:
        block = ilp.theta[key]
        assert [names[c] for c in block.columns] == old_names(
            f"th_{qid(key[0])}", oracle_rows(key[1], db)
        )


@pytest.mark.parametrize("mode", ["natural", "replacement", "factorized"])
def test_weights_csv_is_the_oracle_file(db_dir, tmp_path, mode):
    prog = tmp_path / "q.lpcq"
    prog.write_text(PROGRAM, encoding="utf-8")
    extra = ["--heuristic-decomp"] if mode == "factorized" else []
    out = tmp_path / "w.csv"
    assert main(["solve", str(prog), str(db_dir), "--mode", mode, "--weights", str(out),
                 *extra]) == 0
    db = load_database(db_dir)
    cp_qf, ilp, solution, _ = run_pipeline(parse(PROGRAM), db, mode,
                                           use_heuristic=mode == "factorized")
    expected = tmp_path / "expected.csv"
    weights_csv(expected, cp_qf, ilp, solution, db)
    assert out.read_bytes() == expected.read_bytes()
    assert '"x=a,b"' in out.read_text(encoding="utf-8")


# --- evaluation and bag projections against brute force -------------------------

POOL = ["10", "9", "-1", "", "Z", "a", "é", "\U0001D518"]
ABSENT = "absent"
VARS = ["x", "y", "z"]


@st.composite
def instances(draw):
    texts = st.sampled_from(POOL)
    relations = {
        "R": Relation("R", 2, [tuple(map(Value, r)) for r in draw(
            st.lists(st.tuples(texts, texts), max_size=8))]),
        "S": Relation("S", 1, [(Value(t),) for t in draw(st.lists(texts, max_size=4))]),
        "E": Relation("E", 2, []),
        "T": Relation("T", 0, [()] if draw(st.booleans()) else []),
    }
    db = Database(relations)
    arg = st.one_of(st.sampled_from(VARS).map(Var),
                    st.sampled_from(POOL + [ABSENT]).map(lambda t: Const(Value(t))))
    conjunct = st.one_of(
        st.tuples(arg, arg).map(lambda a: Atom("R", a)),  # repeated variables, ground atoms
        arg.map(lambda a: Atom("S", (a,))),
        st.tuples(arg, arg).map(lambda a: Atom("E", a)),
        st.just(Atom("T", ())),
        st.tuples(st.sampled_from(VARS).map(Var), arg).map(lambda a: Equal(*a)),
    )
    parts = draw(st.lists(conjunct, min_size=1, max_size=4))
    q = parts[0]
    for part in parts[1:]:
        q = And(q, part)
    return db, q, draw(st.sampled_from([None, *VARS]))


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(instances())
def test_evaluate_and_bag_projections_match_brute_force(instance):
    db, q, bound = instance
    assert evaluate(q, db).rows == oracle_rows(q, db)
    extra = sorted(set(VARS) - free_vars(q))[:1]  # a variable the query leaves free
    variables = sorted(free_vars(q) | set(extra))
    assert evaluate(q, db, variables).rows == oracle_rows(q, db, variables)
    full = brute_force_answers(q, db)
    tree = heuristic_decompose(q)
    for node, proj in bag_projections(q, tree, db).items():
        bag = sorted(tree.bags[node])
        assert proj.variables == tuple(bag)
        assert proj.rows == sorted({tuple(a[v] for v in bag) for a in full}, key=text_key)
    if bound in free_vars(q):
        projected = Exists(bound, q)
        assert evaluate(projected, db).rows == oracle_rows(projected, db)


# --- one database, many threads -----------------------------------------------------

THROUGHPUT = ("exists q, q2, c, c2. prod(f, o, q) /\\ order(b, o, q2) /\\ "
              "route(f, w, c) /\\ route(w, b, c2)")


def test_code_arrays_are_read_only():
    db = generate_delivery(GenSpec(size=30, seed=1))
    arrays = [rel.codes for rel in db.relations.values()] + [db.dictionary.values]
    for array in arrays:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[:1] = array[:1]


def test_threads_evaluate_one_database_alike():
    db = generate_delivery(GenSpec(size=80, seed=1))
    q = parse_query(THROUGHPUT)
    expected = evaluate(q, db)
    assert len(expected) > 100
    results = [None] * 8

    def run(k):
        results[k] = evaluate(q, db)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in range(len(results))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(r == expected and r.rows == expected.rows for r in results)
