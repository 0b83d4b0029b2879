"""The lift on integer codes against the dict lift it replaced.

``lift_answers`` enumerates the answers of a factorized program from its
bag projections.  These tests check, row for row and bit for bit, that the
rows are ``evaluate``'s and the masses are those of ``oracles.dict_lift``,
that the soundness check reports the first violation the dict check
reports, and that ``lpcq solve --weights`` writes the bytes the row-by-row
writer (``oracles.weights_csv``) writes.
"""

import csv
import json
import random
from pathlib import Path

import numpy as np
import pytest

from lpcq import cli
from lpcq.cli import (
    BENCH_DECOMP,
    BENCH_PROGRAM,
    BENCH_SELECTIVITY,
    _write_weights,
    build_decompositions,
    run_pipeline,
)
from lpcq.decomp import DecompTree, attach_target_bags, heuristic_decompose
from lpcq.interpret import factorized, quantifier_eliminate
from lpcq.language import close, normal_form, parse
from lpcq.linprog import ArrayAssignment, LpSolution
from lpcq.queries import evaluate, parse_query
from lpcq.relations import load_database
from lpcq.synth import GenSpec, write_delivery
from lpcq.weightings import (
    LIFT_TOL,
    Weighting,
    _lex_order,
    check_sound,
    collection_from_weighting,
    lift_answers,
    reconstruct,
    solution_to_weights,
)

from makers import make_db, rand_db, rand_flagship_instance, rand_query
from oracles import (
    dict_lift,
    first_violation,
    separator_marginals,
    solution_collection,
    weights_csv,
)

DEMOS = Path(__file__).resolve().parents[1] / "demos"
DELIVERY = DEMOS / "delivery"


def bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.int64)


def weight_targets(cp_qf, key):
    return [w.target_vars() for w in cp_qf.weight_exprs() if (w.query_name, w.query) == key]


def lift_against_oracle(cp_qf, decomps, db, rng, zero_share=0.2):
    """Lift random sound bag masses of every query, and check the rows
    against ``evaluate`` and the masses against the dict lift; return the
    answer counts."""
    ilp = factorized(cp_qf, decomps, db)
    counts = []
    for key in cp_qf.queries_w():
        answers = evaluate(key[1], db)
        w = Weighting(answers, {
            row: 0.0 if rng.random() < zero_share else rng.random() * 4 for row in answers.rows
        })
        collection = collection_from_weighting(w, ilp.trees[key])
        x = np.zeros(len(ilp.program.names))
        for node, block in ilp.xi[key].items():
            assert block.rows.rows == collection[node].base.rows
            x[block.columns] = [collection[node].values[row] for row in block.rows.rows]
        solution = LpSolution("optimal", 0.0, ArrayAssignment(ilp.program.names, x))

        lifted = lift_answers(solution, ilp, key)
        assert lifted.variables == answers.variables
        assert lifted.rows() == answers.rows
        mass = dict_lift(solution_collection(solution, ilp, key), answers.variables)
        assert np.array_equal(bits(lifted.masses), bits([mass(row) for row in answers.rows]))
        counts.append(len(answers))
    return counts


def closed(text: str, db):
    cp = close(normal_form(parse(text)), db)
    return cp, quantifier_eliminate(cp)


class TestEnumeration:
    def test_random_programs_with_heuristic_trees(self, rng):
        attached = chains = 0
        for _ in range(60):
            db, _, cp = rand_flagship_instance(rng)
            cp_qf = quantifier_eliminate(cp)
            decomps = build_decompositions(cp, cp_qf, None, True)
            for tree in decomps.values():
                # fitting adds leaves inside their parent's bag, and an
                # empty root above a chain of ever smaller bags
                attached += any(
                    not tree.children[n] and tree.bags[n] < tree.bags[tree.parent[n]]
                    for n in tree.bags if n != tree.root
                )
                top = tree.children[tree.root]
                chains += not tree.bags[tree.root] and len(top) == 1 and len(tree.bags[top[0]]) == 1
            assert all(lift_against_oracle(cp_qf, decomps, db, rng))
        assert attached >= 10 and chains >= 10

    def test_empty_answer_set(self, rng):
        db = make_db(R=[("0", "1")], S=[("2",)])
        cp, cp_qf = closed(
            "let Q(x, y) = R(x, y) /\\ S(y)\n"
            "maximize weight[(x, y): true](Q)\n"
            "subject to weight[(x, y): x == 0](Q) <= 1\n", db,
        )
        decomps = build_decompositions(cp, cp_qf, None, True)
        assert lift_against_oracle(cp_qf, decomps, db, rng) == [0]

    def test_disconnected_query(self, rng):
        db = make_db(R=[(str(i),) for i in range(7)], S=[(f"s{i}",) for i in range(5)])
        cp, cp_qf = closed(
            "let Q(x, y) = R(x) /\\ S(y)\n"
            "maximize weight[(x, y): true](Q)\n"
            "subject to forall (a): R(a). weight[(x, y): x == a](Q) <= 1\n"
            "  /\\ forall (b): S(b). weight[(x, y): y == b](Q) <= 2\n", db,
        )
        decomps = build_decompositions(cp, cp_qf, None, True)
        ((key, tree),) = decomps.items()
        # no bag holds both variables, so the answers are a product of bags
        assert not any({"x", "y"} <= bag for bag in tree.bags.values())
        assert lift_against_oracle(cp_qf, decomps, db, rng) == [35]

    def test_wide_separator_past_int64(self, rng):
        # seven separator variables of 700 values each: a key packed from
        # all seven codes at once would need 700**7 > 2**63 values
        width, rows = 7, 700
        xs = [f"x{j}" for j in range(width)]
        shuffled = [random.Random(j).sample(range(rows), rows) for j in range(width)]
        r_rows = [tuple(f"v{shuffled[j][i]:03d}" for j in range(width)) for i in range(rows)]
        db = make_db(R=r_rows, S=[(*row, y) for row in r_rows for y in ("a", "b")])
        assert all(len({row[j] for row in r_rows}) == rows for j in range(width))
        assert rows**width > 2**63
        sig = ", ".join(xs + ["y"])
        query = f"R({', '.join(xs)}) /\\ S({sig})"
        cp, cp_qf = closed(
            f"let Q({sig}) = {query}\n"
            f"maximize weight[({sig}): true](Q)\n"
            f"subject to weight[({sig}): y == \"a\"](Q) <= 3\n", db,
        )
        (key,) = cp_qf.queries_w()
        tree = DecompTree(0, {0: xs, 1: xs + ["y"]}, [(0, 1)], query=parse_query(query))
        decomps = {key: attach_target_bags(tree, weight_targets(cp_qf, key))}
        assert frozenset(xs) in {
            decomps[key].bags[p] & decomps[key].bags[c] for p, c in decomps[key].edges
        }
        assert lift_against_oracle(cp_qf, decomps, db, rng) == [2 * rows]


@pytest.mark.parametrize("mode", ["natural", "replacement"])
def test_theta_block_lifts_to_its_values(mode):
    # a natural or replacement query is read as a one-bag tree
    program = parse((DEMOS / "privacy" / "privacy.lpcq").read_text())
    db = load_database(DEMOS / "privacy" / "data")
    cp_qf, ilp, solution, _ = run_pipeline(program, db, mode)
    (key,) = cp_qf.queries_w()
    weighting = solution_to_weights(solution, ilp, key, db)
    block = ilp.theta[key]
    values = [solution.assignment[ilp.program.names[c]] for c in block.columns]
    assert weighting.base == block.rows
    assert [weighting[row] for row in block.rows.rows] == values and any(values)


class TestKernel:
    def test_reconstruct_matches_dict_lift_bit_for_bit(self, rng):
        done = 0
        for _ in range(80):
            db = rand_db(rng, max_tuples=15, max_relations=3)
            q = rand_query(rng, db, max_atoms=3)
            a = evaluate(q, db)
            if not 0 < len(a) <= 150:
                continue
            w = Weighting(a, {r: 0.0 if rng.random() < 0.3 else rng.random() for r in a.rows})
            col = collection_from_weighting(w, heuristic_decompose(q))
            mass = dict_lift(col, a.variables)
            got = reconstruct(col, a)
            assert np.array_equal(bits([got.values[r] for r in a.rows]),
                                  bits([mass(r) for r in a.rows]))
            done += 1
        assert done >= 30

    def test_first_violation_as_the_dict_check_reports_it(self, rng):
        found = 0
        for _ in range(120):
            db = rand_db(rng, max_tuples=15, max_relations=3)
            q = rand_query(rng, db, max_atoms=3)
            a = evaluate(q, db)
            if not 0 < len(a) <= 150:
                continue
            col = collection_from_weighting(
                Weighting(a, {r: rng.random() for r in a.rows}), heuristic_decompose(q)
            )
            for node in rng.sample(sorted(col.tree.bags), k=min(2, len(col.tree.bags))):
                values = col[node].values
                key = rng.choice(sorted(values, key=lambda row: [v.text for v in row]))
                values[key] += rng.choice([1e-6, 1e-3, 0.5])
            tol = rng.choice([1e-7, LIFT_TOL, 1e-4])
            want = first_violation(separator_marginals(col), tol)
            got = check_sound(col, tol)
            assert (got is None) == (want is None)
            if want is not None:
                found += 1
                assert (got.edge, got.gamma) == (want.edge, want.gamma)
                assert bits([got.lhs, got.rhs]).tolist() == bits([want.lhs, want.rhs]).tolist()
        assert found >= 20


@pytest.mark.parametrize("tops", [(5,), (3, 1, 4), (2**31 - 1, 2**31 - 1, 9, 2**20, 1)])
def test_lex_order_is_lexsort(tops):
    # columns packed into one key, and into several once a key would pass
    # 2^62; repeated rows keep their order, as lexsort keeps them
    rng = np.random.default_rng(len(tops))
    columns = [rng.integers(0, top + 1, 500).astype(np.int32) for top in tops]
    columns = [np.concatenate([c, c[:50]]) for c in columns]
    assert np.array_equal(_lex_order(columns), np.lexsort(columns[::-1]))


def weights_bytes(tmp_path, program_text, db_dir, mode, **decomp):
    """The weights file the CLI writes and the one the row-by-row oracle
    writes, for one solved run."""
    db = load_database(db_dir)
    cp_qf, ilp, solution, _ = run_pipeline(parse(program_text), db, mode, **decomp)
    assert solution.status == "optimal"
    ours, theirs = tmp_path / "ours.csv", tmp_path / "theirs.csv"
    _write_weights(str(ours), cp_qf, ilp, solution)
    weights_csv(theirs, cp_qf, ilp, solution, db)
    return ours.read_bytes(), theirs.read_bytes()


class TestWeightsFile:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_generated_instances(self, tmp_path, seed):
        db_dir = tmp_path / "db"
        write_delivery(GenSpec(size=100, seed=seed, selectivity=BENCH_SELECTIVITY), db_dir)
        decomp = tmp_path / "decomp.json"
        decomp.write_text(json.dumps(BENCH_DECOMP))
        ours, theirs = weights_bytes(
            tmp_path, BENCH_PROGRAM, db_dir, "factorized", decomp_path=str(decomp)
        )
        assert ours == theirs and ours.count(b"\r\n") > 1000

    def test_blocks_of_rows_write_the_same_bytes(self, tmp_path, monkeypatch):
        # the writer formats a block of rows at a time; a block of 7 rows,
        # which cuts the rows of every section, writes the same file
        db_dir = tmp_path / "db"
        write_delivery(GenSpec(size=100, seed=1, selectivity=BENCH_SELECTIVITY), db_dir)
        decomp = tmp_path / "decomp.json"
        decomp.write_text(json.dumps(BENCH_DECOMP))
        cp_qf, ilp, solution, _ = run_pipeline(parse(BENCH_PROGRAM), load_database(db_dir),
                                               "factorized", decomp_path=str(decomp))
        files = []
        for rows in (cli._BLOCK_ROWS, 7):
            monkeypatch.setattr(cli, "_BLOCK_ROWS", rows)
            files.append(tmp_path / f"{rows}.csv")
            _write_weights(str(files[-1]), cp_qf, ilp, solution)
        assert files[0].read_bytes() == files[1].read_bytes()
        assert files[0].read_bytes().count(b"\r\n") > cli._BLOCK_ROWS

    @pytest.mark.parametrize(
        "mode, tree",
        [("factorized", "decomp.json"), ("factorized", "decomp_coarse.json"),
         ("natural", None), ("replacement", None)],
    )
    def test_delivery_demo(self, tmp_path, mode, tree):
        decomp = {"decomp_path": str(DELIVERY / tree)} if tree else {}
        ours, theirs = weights_bytes(
            tmp_path, (DELIVERY / "delivery.lpcq").read_text(), DELIVERY / "data", mode, **decomp
        )
        assert ours == theirs and ours.count(b"\r\n") == 6

    @pytest.mark.parametrize("mode", ["natural", "factorized"])
    def test_values_that_csv_quotes(self, tmp_path, mode):
        db_dir = tmp_path / "db"
        db_dir.mkdir()
        values = ["a,b", 'say "hi"', " lead", "trail ", "two words", "line\nbreak", "plain"]
        rng = random.Random(3)
        with (db_dir / "R.csv").open("w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            for x in values:
                for y in rng.sample(values, 3):
                    writer.writerows([[x, y], [y, x]])
        program = (
            "let Q(x, y) = R(x, y) /\\ R(y, x)\n"
            "maximize weight[(x, y): true](Q)\n"
            "subject to forall (a, b): R(a, b). weight[(x, y): x == a](Q) <= 2\n"
        )
        decomp = {"use_heuristic": True} if mode == "factorized" else {}
        ours, theirs = weights_bytes(tmp_path, program, db_dir, mode, **decomp)
        assert ours == theirs
        assert b'"x=a,b"' in ours or b'"y=a,b"' in ours
