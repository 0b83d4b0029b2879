import pickle
import sys
import threading
import uuid

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpcq.errors import (
    DuplicateRelationError,
    EmptyDirError,
    RaggedRowsError,
    UnknownVariableError,
)
from lpcq.relations import (
    Assignment,
    Database,
    Relation,
    Value,
    load_database,
    save_database,
)

from lpcq.queries import evaluate, parse_query

from oracles import join_assignment_sets


def V(text):
    return Value(str(text))


def asg(**kw):
    return Assignment.of({k: V(v) for k, v in kw.items()})


class TestValue:
    def test_equality_is_by_text(self):
        assert Value("0") is Value("0")
        assert Value("0") != Value("0.0")

    def test_numeric_decoding(self):
        assert Value("10.5").numeric == 10.5
        assert Value("-3").numeric == -3.0
        assert Value("2e3").numeric == 2000.0
        assert Value("1.").numeric == 1.0
        assert Value("w1").numeric is None
        assert Value("1.2.3").numeric is None
        assert Value("").numeric is None

    def test_token_is_identifier_safe_and_injective(self):
        seen = {}
        for text in ["a b", "a_b", "a-b", "10.5", "x", "X", "", "a'b", 'q"t']:
            tok = Value(text).token
            assert all(c.isalnum() or c == "_" for c in tok)
            assert tok not in seen, (text, seen)
            seen[tok] = text


class TestLoadDatabase:
    def test_two_unary_tables(self, tmp_path):
        (tmp_path / "R1.csv").write_text("0\n1")
        (tmp_path / "R2.csv").write_text("0\n1")
        db = load_database(tmp_path)
        assert db.relations["R1"].tuples == {(V(0),), (V(1),)}
        assert db.relations["R2"].tuples == {(V(0),), (V(1),)}
        assert db.domain == {V(0), V(1)}
        assert db.size == 4

    def test_empty_file_is_arity0_false(self, tmp_path):
        (tmp_path / "S.csv").write_text("")
        (tmp_path / "R.csv").write_text("0")
        db = load_database(tmp_path)
        assert db.relations["S"].arity == 0
        assert db.relations["S"].tuples == frozenset()

    def test_single_empty_line_is_arity0_true(self, tmp_path):
        (tmp_path / "S.csv").write_text("\n")
        (tmp_path / "R.csv").write_text("0")
        db = load_database(tmp_path)
        assert db.relations["S"].arity == 0
        assert db.relations["S"].tuples == {()}

    def test_numeric_decoding_applied(self, tmp_path):
        (tmp_path / "store.csv").write_text("w1,10.5")
        db = load_database(tmp_path)
        ((w, lim),) = db.relations["store"].tuples
        assert w.numeric is None
        assert lim.numeric == 10.5

    def test_duplicate_rows_collapse(self, tmp_path):
        (tmp_path / "R.csv").write_text("0\n0\n1")
        db = load_database(tmp_path)
        assert len(db.relations["R"]) == 2

    def test_ragged_rows(self, tmp_path):
        (tmp_path / "R.csv").write_text("0,1\n2")
        with pytest.raises(RaggedRowsError):
            load_database(tmp_path)

    def test_empty_dir(self, tmp_path):
        with pytest.raises(EmptyDirError):
            load_database(tmp_path)

    def test_duplicate_relation(self, tmp_path):
        (tmp_path / "R.csv").write_text("0")
        (tmp_path / "R.CSV").write_text("1")
        with pytest.raises(DuplicateRelationError):
            load_database(tmp_path)

    def test_quoted_cells_round_trip(self, tmp_path):
        (tmp_path / "T.csv").write_text('"a,b",2\n"say ""hi""",3\n')
        db = load_database(tmp_path)
        texts = {tuple(v.text for v in row) for row in db.relations["T"]}
        assert texts == {("a,b", "2"), ('say "hi"', "3")}

    def test_save_load_round_trip(self, tmp_path):
        src = tmp_path / "src"
        src.mkdir()
        (src / "R.csv").write_text('0,x\n1,"a,b"\n')
        (src / "S.csv").write_text("\n")
        db = load_database(src)
        out = tmp_path / "out"
        save_database(db, out)
        db2 = load_database(out)
        for name in db.relations:
            assert db.relations[name].tuples == db2.relations[name].tuples
        assert db.domain == db2.domain


class TestAssignment:
    def test_restrict(self):
        a = asg(x=0, y=1, z=2)
        assert a.restrict(["x"]) == asg(x=0)
        assert a.restrict([]) == Assignment.EMPTY
        assert a.restrict(["x", "z"]) == asg(x=0, z=2)

    def test_restrict_unknown_variable(self):
        with pytest.raises(UnknownVariableError):
            asg(x=0).restrict(["y"])

    def test_restrict_composes(self, rng):
        a = asg(x=0, y=1, z=2, w=3)
        assert a.restrict(["x", "y", "z"]).restrict(["x"]) == a.restrict(["x"])

    def test_union_conflict(self):
        assert asg(x=0).union(asg(x=1)) is None
        assert asg(x=0).union(asg(x=0, y=1)) == asg(x=0, y=1)


class TestJoin:
    def test_basic(self):
        got = join_assignment_sets({asg(x=0)}, {asg(x=0, y=1), asg(x=1, y=1)})
        assert got == {asg(x=0, y=1)}

    def test_join_with_empty_assignment_is_identity(self):
        a = {asg(x=0), asg(x=1)}
        assert join_assignment_sets(a, {Assignment.EMPTY}) == a

    def test_disjoint_on_shared_variable(self):
        assert join_assignment_sets({asg(x=0)}, {asg(x=1)}) == set()

    def test_inhomogeneous_rejected(self):
        with pytest.raises(UnknownVariableError):
            join_assignment_sets({asg(x=0), asg(y=0)}, {asg(x=0)})


@st.composite
def assignment_sets(draw):
    variables = draw(st.lists(st.sampled_from("uvwxyz"), min_size=0, max_size=3, unique=True))
    rows = draw(
        st.lists(
            st.tuples(*(st.integers(0, 2) for _ in variables)),
            min_size=0,
            max_size=6,
        )
    )
    return {Assignment.of({v: V(c) for v, c in zip(variables, row)}) for row in rows}, variables


@settings(max_examples=150, deadline=None)
@given(assignment_sets(), assignment_sets(), assignment_sets())
def test_join_commutative_associative(a, b, c):
    a_set, a_vars = a
    b_set, b_vars = b
    c_set, c_vars = c
    ab = join_assignment_sets(a_set, b_set, a_vars, b_vars)
    ba = join_assignment_sets(b_set, a_set, b_vars, a_vars)
    assert ab == ba
    ab_vars = set(a_vars) | set(b_vars)
    bc = join_assignment_sets(b_set, c_set, b_vars, c_vars)
    bc_vars = set(b_vars) | set(c_vars)
    left = join_assignment_sets(ab, c_set, ab_vars, c_vars)
    right = join_assignment_sets(a_set, bc, a_vars, bc_vars)
    assert left == right


class TestInterning:
    THREADS = 8
    TEXTS = 10_000

    def test_threads_agree_on_one_value_per_text(self):
        texts = [f"race-{uuid.uuid4().hex}-{i}" for i in range(self.TEXTS)]
        start = threading.Barrier(self.THREADS)
        minted = [None] * self.THREADS

        def mint(k):
            start.wait()
            minted[k] = [Value(t) for t in texts]

        # switch threads as often as possible, so a read-then-insert race shows
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=mint, args=(k,)) for k in range(self.THREADS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        for i, text in enumerate(texts):
            value = Value(text)
            assert all(values[i] is value for values in minted), text


class TestPickling:
    def test_value_loads_as_the_interned_value(self):
        assert pickle.loads(pickle.dumps(Value("a"))) is Value("a")

    def test_database_round_trip(self):
        db = Database({"R": Relation("R", 2, [(V("a"), V(1)), (V("b"), V(2))])})
        back = pickle.loads(pickle.dumps(db))
        assert back.relations["R"].tuples == db.relations["R"].tuples
        assert back.domain == db.domain

    def test_query_with_constant_round_trip(self):
        q = parse_query('R(x, "a")')
        back = pickle.loads(pickle.dumps(q))
        assert back == q
        db = Database({"R": Relation("R", 2, [(V(0), V("a")), (V(1), V("b"))])})
        assert evaluate(back, db) == evaluate(q, db)
