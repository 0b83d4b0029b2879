import csv
import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import lpcq
from lpcq.cli import (
    BENCH_DECOMP,
    BENCH_DECOMP_COARSE,
    BENCH_PROGRAM,
    BENCH_SELECTIVITY,
    bench_rows,
    main,
    run_pipeline,
)
from lpcq.decomp import bag_projections, heuristic_decompose
from lpcq.errors import InfeasibleSpecError
from lpcq.interpret import natural, quantifier_eliminate
from lpcq.language import close, normal_form, parse
from lpcq.linprog import FEAS_TOL
from lpcq.relations import load_database
from lpcq.synth import GenSpec, generate_delivery

from makers import answer_point, certify_point
from oracles import parse_lp

DEMOS = Path(__file__).resolve().parents[1] / "demos"
DELIVERY = DEMOS / "delivery"

WORKED = """
let Q(x, y) = R1(x) /\\ R2(y)
maximize weight[(x, y): true](Q)
subject to weight[(x, y): x == 0](Q) <= 1
        /\\ weight[(x, y): x == 1](Q) <= 1
"""

THREE_NODE_DECOMP = {
    "query": "R1(x) /\\ R2(y)",
    "root": 0,
    "nodes": [
        {"id": 0, "bag": []},
        {"id": 1, "bag": ["x"]},
        {"id": 2, "bag": ["y"]},
    ],
    "edges": [[0, 1], [0, 2]],
}

# the worked example's --explain lines and --emit-lp file, mode by mode
PINNED = {
    "natural": ("""\
[user] c1: 1*th_Q_0_0 + 1*th_Q_0_1 <= 1
[user] c2: 1*th_Q_1_0 + 1*th_Q_1_1 <= 1
""", """\
\\ exported linear program
Maximize
 obj: th_Q_0_0 + th_Q_0_1 + th_Q_1_0 + th_Q_1_1
Subject To
 c1: th_Q_0_0 + th_Q_0_1 <= 1
 c2: th_Q_1_0 + th_Q_1_1 <= 1
End
"""),
    "replacement": ("""\
[user] c1: 1*nu_Q_x_0 <= 1
[user] c2: 1*nu_Q_x_1 <= 1
[weight] c3: 1*nu_Q_all = 1*th_Q_0_0 + 1*th_Q_0_1 + 1*th_Q_1_0 + 1*th_Q_1_1
[weight] c4: 1*nu_Q_x_0 = 1*th_Q_0_0 + 1*th_Q_0_1
[weight] c5: 1*nu_Q_x_1 = 1*th_Q_1_0 + 1*th_Q_1_1
""", """\
\\ exported linear program
Maximize
 obj: nu_Q_all
Subject To
 c1: nu_Q_x_0 <= 1
 c2: nu_Q_x_1 <= 1
 c3: nu_Q_all - th_Q_0_0 - th_Q_0_1 - th_Q_1_0 - th_Q_1_1 = 0
 c4: nu_Q_x_0 - th_Q_0_0 - th_Q_0_1 = 0
 c5: nu_Q_x_1 - th_Q_1_0 - th_Q_1_1 = 0
End
"""),
    "factorized": ("""\
[user] c1: 1*nu_Q_x_0 <= 1
[user] c2: 1*nu_Q_x_1 <= 1
[weight] c3: 1*nu_Q_all = 1*xi_Q_n0_all
[weight] c4: 1*nu_Q_x_0 = 1*xi_Q_n1_0
[weight] c5: 1*nu_Q_x_1 = 1*xi_Q_n1_1
[soundness] c6: 1*xi_Q_n0_all = 1*xi_Q_n1_0 + 1*xi_Q_n1_1
[soundness] c7: 1*xi_Q_n0_all = 1*xi_Q_n2_0 + 1*xi_Q_n2_1
""", """\
\\ exported linear program
Maximize
 obj: nu_Q_all
Subject To
 c1: nu_Q_x_0 <= 1
 c2: nu_Q_x_1 <= 1
 c3: nu_Q_all - xi_Q_n0_all = 0
 c4: nu_Q_x_0 - xi_Q_n1_0 = 0
 c5: nu_Q_x_1 - xi_Q_n1_1 = 0
 c6: xi_Q_n0_all - xi_Q_n1_0 - xi_Q_n1_1 = 0
 c7: xi_Q_n0_all - xi_Q_n2_0 - xi_Q_n2_1 = 0
End
"""),
}

# no y of R occurs in S, so the answer set and every bag projection are empty
EMPTY_ANSWERS = """
let Q(x, y) = R(x, y) /\\ S(y)
maximize weight[(x, y): true](Q)
subject to forall (a, b): R(a, b). weight[(x, y): x == a](Q) <= 1
"""

EMPTY_ANSWERS_DECOMP = {
    "query": "R(x, y) /\\ S(y)",
    "root": 0,
    "nodes": [
        {"id": 0, "bag": []},
        {"id": 1, "bag": ["x", "y"]},
        {"id": 2, "bag": ["x"]},
        {"id": 3, "bag": ["y"]},
    ],
    "edges": [[0, 1], [1, 2], [1, 3]],
}

# the target {x, z} of the constraint spans both bags of the two-bag tree
UNFITTABLE = """
let q(x, y, z) = R(x, y) /\\ S(y, z)
maximize weight[(x, y, z): true](q)
subject to weight[(x, y, z): x == "a" /\\ z == "e"](q) <= 1
"""

UNFITTABLE_DECOMP = {
    "query": "R(x, y) /\\ S(y, z)",
    "root": 0,
    "nodes": [{"id": 0, "bag": ["x", "y"]}, {"id": 1, "bag": ["y", "z"]}],
    "edges": [[0, 1]],
}


@pytest.fixture
def worked_dir(tmp_path):
    db = tmp_path / "db"
    db.mkdir()
    (db / "R1.csv").write_text("0\n1\n")
    (db / "R2.csv").write_text("0\n1\n")
    prog = tmp_path / "worked.lpcq"
    prog.write_text(WORKED)
    decomp = tmp_path / "decomp.json"
    decomp.write_text(json.dumps(THREE_NODE_DECOMP))
    return prog, db, decomp


def run_main(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


class TestSolveCommand:
    def test_natural_mode(self, worked_dir):
        prog, db, _ = worked_dir
        code, out = run_main(["solve", str(prog), str(db), "--mode", "natural"])
        assert code == 0
        assert "status: optimal" in out
        assert "value: 2" in out
        assert "theta=4" in out

    def test_factorized_mode_counts(self, worked_dir):
        prog, db, decomp = worked_dir
        code, out = run_main(
            ["solve", str(prog), str(db), "--mode", "factorized", "--decomp", str(decomp)]
        )
        assert code == 0
        assert "value: 2" in out
        assert "xi=5" in out and "nu=3" in out
        assert "soundness=2" in out

    def test_replacement_mode(self, worked_dir):
        prog, db, _ = worked_dir
        code, out = run_main(["solve", str(prog), str(db), "--mode", "replacement"])
        assert code == 0 and "value: 2" in out

    def test_heuristic_decomp(self, worked_dir):
        prog, db, _ = worked_dir
        code, out = run_main(
            ["solve", str(prog), str(db), "--mode", "factorized", "--heuristic-decomp"]
        )
        assert code == 0 and "value: 2" in out

    def test_factorized_needs_decomp(self, worked_dir):
        prog, db, _ = worked_dir
        code, _ = run_main(["solve", str(prog), str(db), "--mode", "factorized"])
        assert code == 3

    def test_emit_lp_round_trips(self, worked_dir, tmp_path):
        prog, db, _ = worked_dir
        lp_path = tmp_path / "out.lp"
        code, _ = run_main(
            ["solve", str(prog), str(db), "--emit-lp", str(lp_path)]
        )
        assert code == 0
        parsed = parse_lp(lp_path)
        from lpcq.linprog import solve

        sol = solve(parsed)
        assert sol.status == "optimal" and abs(sol.value - 2.0) < 1e-9

    def test_weights_output(self, worked_dir, tmp_path):
        prog, db, decomp = worked_dir
        weights = tmp_path / "w.csv"
        code, _ = run_main(
            [
                "solve", str(prog), str(db),
                "--mode", "factorized", "--decomp", str(decomp),
                "--weights", str(weights),
            ]
        )
        assert code == 0
        lines = [l for l in weights.read_text().splitlines() if l and not l.startswith("#")]
        assert len(lines) == 4
        total = 0.0
        for line in lines:
            cells = next(csv.reader([line]))
            assert cells[0].startswith("x=") and cells[1].startswith("y=")
            total += float(cells[-1])
        assert math.isclose(total, 2.0, abs_tol=1e-6)

    def test_explain_prints_provenance(self, worked_dir, tmp_path):
        # every row with its tag, and the same rows in the LP file
        prog, db, decomp = worked_dir
        lp_path = tmp_path / "out.lp"
        for mode, (explain, lp_text) in PINNED.items():
            argv = ["solve", str(prog), str(db), "--mode", mode, "--explain", "--emit-lp", str(lp_path)]
            code, out = run_main(argv + (["--decomp", str(decomp)] if mode == "factorized" else []))
            assert code == 0
            assert [line for line in out.splitlines() if line.startswith("[")] == explain.splitlines()
            assert lp_path.read_text() == lp_text
            assert json.loads(Path(f"{lp_path}.names.json").read_text()) == {}

    def test_json_report(self, worked_dir):
        prog, db, _ = worked_dir
        code, out = run_main(["solve", str(prog), str(db), "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "optimal"
        assert payload["variables"]["theta"] == 4

    @pytest.mark.parametrize("mode", ["natural", "replacement", "factorized"])
    def test_json_reports_nonzeros_handed_to_highs(self, worked_dir, mode, monkeypatch):
        import scipy.optimize

        prog, db, decomp = worked_dir
        handed = []
        original = scipy.optimize.linprog

        def counting(c, **kwargs):
            handed.append(sum(kwargs[k].nnz for k in ("A_ub", "A_eq") if kwargs[k] is not None))
            return original(c, **kwargs)

        monkeypatch.setattr(scipy.optimize, "linprog", counting)
        argv = ["solve", str(prog), str(db), "--mode", mode]
        if mode == "factorized":
            argv += ["--decomp", str(decomp)]
        code, out = run_main(argv + ["--json"])
        assert code == 0
        # Columns with the same cost and entries reach HiGHS as one column.
        # natural: two user rows over two answers each, and a row's two
        # answers are one column.  Otherwise the user rows hold one stand-in
        # each, and each of the three weight rows a stand-in plus its answers
        # (the x == 0 pair and the x == 1 pair one column each: 2 + 1 + 1) or
        # its one bag row; the two soundness rows tie the empty root's row to
        # the two rows of a child, and the two rows of the y bag, which no
        # other row reads, are one column.
        assert json.loads(out)["nonzeros"] == handed[0] == {
            "natural": 2, "replacement": 2 + 3 + 4, "factorized": 2 + 3 + 3 + 3 + 2,
        }[mode]
        code, text = run_main(argv)
        assert code == 0 and "nonzeros" not in text

    def test_exit_codes(self, tmp_path, worked_dir):
        _, db, _ = worked_dir
        unbounded = tmp_path / "unbounded.lpcq"
        unbounded.write_text(
            "let Q(x, y) = R1(x) /\\ R2(y)\n"
            "maximize weight[(x, y): true](Q) subject to true\n"
        )
        code, _ = run_main(["solve", str(unbounded), str(db)])
        assert code == 2
        infeasible = tmp_path / "infeasible.lpcq"
        infeasible.write_text(
            "let Q(x, y) = R1(x) /\\ R2(y)\n"
            "maximize weight[(x, y): true](Q)\n"
            "subject to weight[(x, y): true](Q) >= 10 /\\ weight[(x, y): true](Q) <= 1\n"
        )
        code, _ = run_main(["solve", str(infeasible), str(db)])
        assert code == 1
        code, _ = run_main(["solve", str(tmp_path / "missing.lpcq"), str(db)])
        assert code == 3

    def test_weights_lift_failure_is_input_error(self, tmp_path, monkeypatch, capsys):
        # solver drift in a root bag variable of the delivery demo: within
        # the certificate's tolerance (1e-6 there), beyond a lift tolerance
        # of 1e-7, so the optimum is printed but the lift refuses it
        import scipy.optimize

        program = parse((DELIVERY / "delivery.lpcq").read_text())
        _, ilp, _, _ = run_pipeline(
            program, load_database(DELIVERY / "data"), "factorized",
            decomp_path=str(DELIVERY / "decomp.json"),
        )
        ((key, blocks),) = ilp.xi.items()
        assert ilp.trees[key].root == 1
        # HiGHS's point is over the columns sent, one per group of
        # identical columns: move the one that stands for this column
        sent = int(ilp.program.matrices().group[blocks[1].columns[0]])
        real = scipy.optimize.linprog

        def drifted(*args, **kwargs):
            res = real(*args, **kwargs)
            res.x = res.x.copy()
            res.x[sent] += 5e-7
            return res

        monkeypatch.setattr(scipy.optimize, "linprog", drifted)
        monkeypatch.setattr("lpcq.weightings.LIFT_TOL", 1e-7)
        weights = tmp_path / "w.csv"
        code, _ = run_main(
            [
                "solve", str(DELIVERY / "delivery.lpcq"), str(DELIVERY / "data"),
                "--mode", "factorized", "--decomp", str(DELIVERY / "decomp.json"),
                "--weights", str(weights),
            ]
        )
        assert code == 3
        assert "error: marginals differ on edge (1, 2)" in capsys.readouterr().err
        assert not weights.exists()

    def test_weights_past_the_materialization_guard(self, tmp_path, monkeypatch):
        # the library refuses to materialize more answers than the guard;
        # the CLI writes them from columns whatever their number
        monkeypatch.setattr("lpcq.weightings.MATERIALIZE_LIMIT", 5)
        weights = tmp_path / "w.csv"
        code, _ = run_main(
            [
                "solve", str(DELIVERY / "delivery.lpcq"), str(DELIVERY / "data"),
                "--mode", "factorized", "--decomp", str(DELIVERY / "decomp.json"),
                "--weights", str(weights),
            ]
        )
        assert code == 0
        lines = weights.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "# dlr" and len(lines) == 7

    @pytest.mark.parametrize("mode", ["natural", "replacement"])
    @pytest.mark.parametrize(
        "flags", [["--decomp"], ["--heuristic-decomp"], ["--decomp", "--heuristic-decomp"]]
    )
    def test_decomposition_outside_factorized_is_input_error(
        self, worked_dir, tmp_path, capsys, mode, flags
    ):
        prog, db, decomp = worked_dir
        argv = ["solve", str(prog), str(db), "--mode", mode]
        for flag in flags:
            argv += [flag, str(decomp)] if flag == "--decomp" else [flag]
        weights = tmp_path / "w.csv"
        code, out = run_main([*argv, "--weights", str(weights)])
        assert code == 3 and out == ""
        err = capsys.readouterr().err
        assert err.startswith("error: ") and all(flag in err for flag in flags)
        assert not weights.exists()

    def test_weights_of_empty_answer_set(self, tmp_path):
        db = tmp_path / "db"
        db.mkdir()
        (db / "R.csv").write_text("0,1\n")
        (db / "S.csv").write_text("2\n")
        prog = tmp_path / "empty.lpcq"
        prog.write_text(EMPTY_ANSWERS)
        decomp = tmp_path / "decomp.json"
        decomp.write_text(json.dumps(EMPTY_ANSWERS_DECOMP))
        weights = tmp_path / "w.csv"
        code, out = run_main(
            [
                "solve", str(prog), str(db), "--mode", "factorized",
                "--decomp", str(decomp), "--weights", str(weights), "--explain",
            ]
        )
        assert code == 0
        # no vacuous 0 = 0 soundness rows for the empty projections
        assert "soundness=0" in out and "[soundness]" not in out
        assert weights.read_text().splitlines() == ["# Q"]

    @pytest.mark.parametrize(
        "case",
        ["program is a directory", "program not utf-8", "db is a file", "table not utf-8",
         "decomp not json", "decomp node without bag"],
    )
    def test_bad_input_is_input_error(self, worked_dir, tmp_path, capsys, case):
        prog, db, decomp = worked_dir
        if case == "program is a directory":
            prog = bad = tmp_path
        elif case == "program not utf-8":
            bad = prog
            prog.write_bytes(b"\xff\xfe" + WORKED.encode())
        elif case == "db is a file":
            db = bad = prog
        elif case == "table not utf-8":
            bad = db / "R1.csv"
            bad.write_bytes(b"\xff\n1\n")
        else:
            bad = decomp
            if case == "decomp not json":
                decomp.write_text("{not json")
            else:
                decomp.write_text(json.dumps({**THREE_NODE_DECOMP, "nodes": [{"id": 0}]}))
        code, out = run_main(
            ["solve", str(prog), str(db), "--mode", "factorized", "--decomp", str(decomp)]
        )
        assert code == 3 and out == ""
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert str(bad) in err

    @pytest.mark.parametrize("flag", ["--emit-lp", "--weights"])
    def test_unwritable_output_is_input_error(self, worked_dir, tmp_path, capsys, flag):
        prog, db, _ = worked_dir
        target = tmp_path / "missing" / "out"
        code, _ = run_main(["solve", str(prog), str(db), flag, str(target)])
        assert code == 3
        assert "error:" in capsys.readouterr().err
        assert not target.exists()

    @pytest.mark.parametrize("extra", [["--engine", "highs"], ["--mode", "nope"]])
    def test_usage_error_is_input_error(self, worked_dir, capsys, extra):
        prog, db, _ = worked_dir
        with pytest.raises(SystemExit) as exc:
            main(["solve", str(prog), str(db), *extra])
        assert exc.value.code == 3
        assert "usage: lpcq" in capsys.readouterr().err

    def test_counting_gadget_value(self, tmp_path):
        db = tmp_path / "db"
        db.mkdir()
        (db / "E.csv").write_text("0,1\n1,2\n2,0\n1,0\n2,1\n0,2\n1,1\n")
        gadget = tmp_path / "count.lpcq"
        gadget.write_text(
            "let P(a, b) = E(a, b)\n"
            "maximize weight[(a, b): true](P)\n"
            "subject to forall (u, v): E(u, v).\n"
            "    weight[(a, b): a == u /\\ b == v](P) <= 1\n"
        )
        code, out = run_main(["solve", str(gadget), str(db)])
        assert code == 0
        # the optimum counts the seven answers
        assert "value: 7" in out

    def test_names_unique_across_queries(self, tmp_path):
        # q's row (x, all) and q_x's only answer would both be th_q_x_all
        db = tmp_path / "db"
        db.mkdir()
        (db / "R.csv").write_text("x,all\ny,z\n")
        (db / "S.csv").write_text("a\n")
        prog = tmp_path / "names.lpcq"
        prog.write_text(
            'let q(u, w) = R(u, w)\n'
            'let q_x() = S("a")\n'
            "maximize weight[(u, w): true](q) + weight[(): true](q_x)\n"
            'subject to weight[(u, w): u == "x"](q) <= 1\n'
            '    /\\ weight[(u, w): u == "y"](q) <= 2\n'
            "    /\\ weight[(): true](q_x) <= 5\n"
        )
        for mode in ("natural", "replacement", "factorized"):
            extra = ["--heuristic-decomp"] if mode == "factorized" else []
            code, out = run_main(["solve", str(prog), str(db), "--mode", mode, *extra])
            assert code == 0 and "value: 8\n" in out, mode
            if mode != "factorized":
                assert "variables: theta=3 " in out, mode


class TestCertificate:
    def test_broken_optimum_exits_4_without_a_value(self, worked_dir, monkeypatch, capsys):
        import scipy.optimize

        prog, db, _ = worked_dir
        real = scipy.optimize.linprog

        def moved(*args, **kwargs):
            res = real(*args, **kwargs)
            res.x = res.x.copy()
            res.x[0] += 0.5  # breaks the row weight[x == 0] <= 1, which is tight
            return res

        monkeypatch.setattr(scipy.optimize, "linprog", moved)
        for extra in ([], ["--json"]):
            code, out = run_main(["solve", str(prog), str(db), *extra])
            assert code == 4 and out == ""
            err = capsys.readouterr().err
            assert err.startswith("error:") and "violates a row or bound" in err

    @pytest.mark.parametrize(
        "argv, method",
        [([], "highs"), (["--mode", "factorized", "--decomp", str(DELIVERY / "decomp.json")],
                         "highs-ipm")],
    )
    def test_json_carries_the_solver_block(self, argv, method):
        code, out = run_main(
            ["solve", str(DELIVERY / "delivery.lpcq"), str(DELIVERY / "data"), "--json", *argv]
        )
        assert code == 0
        solver = json.loads(out)["solver"]
        assert solver["method"] == method and solver["status"] == 0
        # the delivery demo's >= orders: the origin violates its natural LP
        reason = {"highs": "the origin violates a row", "highs-ipm": "equality rows sent"}[method]
        assert solver["reason"].endswith(reason) and solver["options"] == {}
        assert solver["fallback"] is None
        assert solver["nit"] >= 0
        assert (solver["crossover_nit"] is None) == (method == "highs")
        cert = solver["certificate"]
        assert 0.0 <= cert["violation"] <= cert["tolerance"]
        assert cert["tolerance"] >= FEAS_TOL
        assert cert["clipped_mass"] == 0.0 and cert["most_negative"] == 0.0
        # the text report is unchanged
        code, text = run_main(
            ["solve", str(DELIVERY / "delivery.lpcq"), str(DELIVERY / "data"), *argv]
        )
        assert code == 0 and "solver" not in text and "certificate" not in text

    def test_clipped_mass_reaches_the_json_report(self, worked_dir, monkeypatch):
        import scipy.optimize

        prog, db, _ = worked_dir
        real = scipy.optimize.linprog

        def nudged(*args, **kwargs):
            res = real(*args, **kwargs)
            res.x = res.x.copy()
            res.x[res.x.argmin()] = -3e-8
            return res

        monkeypatch.setattr(scipy.optimize, "linprog", nudged)
        weights = prog.parent / "w.csv"
        code, out = run_main(["solve", str(prog), str(db), "--json", "--weights", str(weights)])
        assert code == 0
        cert = json.loads(out)["solver"]["certificate"]
        assert cert["clipped_mass"] == 3e-8 and cert["most_negative"] == -3e-8
        assert cert["violation"] <= cert["tolerance"]
        # the weights file reads the clipped value
        masses = [float(line.rsplit(",", 1)[1]) for line in weights.read_text().splitlines()[1:]]
        assert min(masses) == 0.0


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_factorized_lift_satisfies_the_natural_rows(tmp_path, seed):
    # the factorized vertex comes from the interior point solver with
    # crossover; its lift must still be an optimal plan of the natural LP
    db_dir = tmp_path / "db"
    code, _ = run_main(
        ["gen", "--out", str(db_dir), "--size", "100", "--seed", str(seed),
         "--selectivity", str(BENCH_SELECTIVITY)]
    )
    assert code == 0
    prog = tmp_path / "bench.lpcq"
    prog.write_text(BENCH_PROGRAM)
    decomp = tmp_path / "decomp.json"
    decomp.write_text(json.dumps(BENCH_DECOMP))
    weights = tmp_path / "w.csv"
    code, out = run_main(["solve", str(prog), str(db_dir), "--json"])
    assert code == 0
    nat = json.loads(out)
    code, out = run_main(
        ["solve", str(prog), str(db_dir), "--json", "--mode", "factorized",
         "--decomp", str(decomp), "--weights", str(weights)]
    )
    assert code == 0
    fac = json.loads(out)
    assert nat["solver"]["method"] == "highs" and fac["solver"]["method"] == "highs-ipm"
    assert nat["status"] == fac["status"] == "optimal"
    assert math.isclose(nat["value"], fac["value"], rel_tol=1e-6, abs_tol=1e-6)

    db = load_database(db_dir)
    nat_ilp = natural(quantifier_eliminate(close(normal_form(parse(BENCH_PROGRAM)), db)), db)
    ((key, block),) = nat_ilp.theta.items()
    row_of = {tuple(v.text for v in row): row for row in block.rows}
    masses = {}
    for line in weights.read_text(encoding="utf-8").splitlines()[1:]:
        cells = next(csv.reader([line]))
        masses[row_of[tuple(cell.split("=", 1)[1] for cell in cells[:-1])]] = float(cells[-1])
    assert len(masses) == len(block.rows)
    point = answer_point(nat_ilp, key, masses)
    assert min(point.values()) >= 0.0
    # every natural row is a user row
    certificate, objective = certify_point(nat_ilp.program, point)
    assert set(nat_ilp.provenance) == {"user"} and certificate.violation <= 1e-6
    assert math.isclose(objective, nat["value"], rel_tol=1e-6)


class TestGenCommand:
    def test_deterministic_bytes(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            code, _ = run_main(
                ["gen", "--out", str(out), "--size", "10", "--seed", "1",
                 "--selectivity", "0.01"]
            )
            assert code == 0
        for name in ("prod", "order", "store", "route"):
            assert (a / f"{name}.csv").read_bytes() == (b / f"{name}.csv").read_bytes()

    def test_unwritable_out_is_input_error(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code, out = run_main(["gen", "--out", str(blocker / "db"), "--size", "5"])
        assert code == 3 and out == ""
        assert capsys.readouterr().err.startswith("error:")

    def test_row_counts(self, tmp_path):
        out = tmp_path / "d"
        run_main(["gen", "--out", str(out), "--size", "10", "--seed", "1"])
        db = load_database(out)
        for name in ("prod", "order", "store", "route"):
            assert len(db.relations[name]) == 10

    def test_single_row(self):
        db = generate_delivery(GenSpec(size=1, seed=3))
        assert all(len(rel) == 1 for rel in db.relations.values())

    def test_full_grid(self):
        db = generate_delivery(GenSpec(size=8, seed=2, selectivity=1.0))
        prod = db.relations["prod"]
        # n = 2, so the key pair grid {d0,d1}^2 appears exactly twice each
        pairs = sorted((r[0].text, r[1].text) for r in prod)
        assert len(prod) == 8
        assert {p for p in pairs} == {
            (a, b) for a in ("d0", "d1") for b in ("d0", "d1")
        }

    def test_infeasible_spec(self):
        with pytest.raises(InfeasibleSpecError):
            GenSpec(size=0)
        with pytest.raises(InfeasibleSpecError):
            GenSpec(size=10, selectivity=2.0)

    def test_numeric_columns_decode(self):
        db = generate_delivery(GenSpec(size=5, seed=9))
        for row in db.relations["store"]:
            assert row[1].numeric is not None
            assert 1.0 <= row[1].numeric <= 100.0


class TestBenchCommand:
    def test_empty_sizes_gives_header_only(self, tmp_path):
        out = tmp_path / "bench.csv"
        code, _ = run_main(["bench", "--sizes", "", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("size,rep,seed,status")

    def test_unwritable_out_is_input_error(self, tmp_path, capsys):
        target = tmp_path / "missing" / "x.csv"
        code, out = run_main(["bench", "--sizes", "", "--out", str(target)])
        assert code == 3 and out == ""
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("raw", ["abc", "0", "-1e-6", "inf", "nan"])
    def test_malformed_tolerance_is_input_error(self, monkeypatch, capsys, raw):
        monkeypatch.setenv("LPCQ_TOL", raw)
        code, out = run_main(["bench", "--sizes", "30"])
        assert code == 3 and out == ""
        assert "LPCQ_TOL" in capsys.readouterr().err

    def test_small_sizes_rows_and_agreement(self):
        rows = bench_rows([30, 50], seed=1, reps=2, selectivity=0.04)
        assert len(rows) == 4
        assert [r["size"] for r in rows] == [30, 30, 50, 50]
        assert [r["rep"] for r in rows] == [0, 1, 0, 1]

    def test_coarse_tree_also_agrees(self):
        rows = bench_rows(
            [40], seed=1, reps=1, selectivity=0.04, decomp_dict=BENCH_DECOMP_COARSE
        )
        assert rows[0]["status"] in ("optimal", "infeasible")

    @pytest.mark.parametrize(
        "argv", [["--sizes", "abc"], ["--sizes", "10,-5"], ["--sizes", "10", "--reps", "0"]]
    )
    def test_malformed_sizes_and_reps_are_usage_errors(self, monkeypatch, capsys, argv):
        def run(*args, **kwargs):
            raise AssertionError("an instance ran")

        monkeypatch.setattr("lpcq.cli.bench_rows", run)
        with pytest.raises(SystemExit) as exc:
            main(["bench", *argv])
        assert exc.value.code == 3
        assert "usage: lpcq" in capsys.readouterr().err


class TestWidthCommand:
    def test_width_of_bench_decomp(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text(json.dumps(BENCH_DECOMP))
        code, out = run_main(["width", str(path)])
        assert code == 0
        assert "tree width: 2" in out

    def test_width_three_node(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text(json.dumps(THREE_NODE_DECOMP))
        code, out = run_main(["width", str(path)])
        assert code == 0
        assert "tree width: 1" in out


class TestCheckDecompCommand:
    def test_valid_decomp(self, tmp_path, worked_dir):
        prog, _, decomp = worked_dir
        code, out = run_main(["check-decomp", str(decomp), "--program", str(prog)])
        assert code == 0
        assert "valid" in out
        assert "compatible" in out

    def test_invalid_decomp(self, tmp_path):
        bad = dict(THREE_NODE_DECOMP)
        bad["nodes"] = [{"id": 0, "bag": ["x"]}, {"id": 1, "bag": ["y"]},
                        {"id": 2, "bag": ["x"]}]
        bad["edges"] = [[0, 1], [1, 2]]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        code, _ = run_main(["check-decomp", str(path)])
        assert code == 3

    def test_reports_the_bags_solve_attaches(self, tmp_path):
        prog = tmp_path / "bench.lpcq"
        prog.write_text(BENCH_PROGRAM)
        decomp = tmp_path / "d.json"
        decomp.write_text(json.dumps(BENCH_DECOMP))
        code, out = run_main(["check-decomp", str(decomp), "--program", str(prog)])
        assert code == 0
        # a leaf {w'} and a three-bag chain up to an empty root
        assert "compatible with query 'dlr'" in out
        assert "solve attaches 4 bags" in out

    def test_unfittable_target_fails_like_solve(self, tmp_path, capsys):
        db = tmp_path / "db"
        db.mkdir()
        (db / "R.csv").write_text("a,b\nc,d\n")
        (db / "S.csv").write_text("b,e\n")
        prog = tmp_path / "q.lpcq"
        prog.write_text(UNFITTABLE)
        decomp = tmp_path / "d.json"
        decomp.write_text(json.dumps(UNFITTABLE_DECOMP))
        message = "target set ['x', 'z'] fits inside no bag"

        code, out = run_main(["check-decomp", str(decomp), "--program", str(prog)])
        assert code == 3
        assert "compatible" not in out
        assert message in capsys.readouterr().err

        code, _ = run_main(
            ["solve", str(prog), str(db), "--mode", "factorized", "--decomp", str(decomp)]
        )
        assert code == 3
        assert message in capsys.readouterr().err

    def test_program_not_utf8_is_named(self, tmp_path, worked_dir, capsys):
        prog, _, decomp = worked_dir
        prog.write_bytes(b"\xff" + WORKED.encode())
        code, _ = run_main(["check-decomp", str(decomp), "--program", str(prog)])
        assert code == 3
        assert str(prog) in capsys.readouterr().err


# node 0 given twice, and node 0's bag written as a string; a reader that
# kept the last node, or split the string into characters, would take
# either file for the valid one-bag tree {x, y}
MALFORMED_DECOMPS = {
    "node 0 is given twice": {
        **THREE_NODE_DECOMP, "nodes": [{"id": 0, "bag": ["x"]}, {"id": 0, "bag": ["x", "y"]}],
        "edges": [],
    },
    "the bag of node 0 is not a list of strings": {
        **THREE_NODE_DECOMP, "nodes": [{"id": 0, "bag": "xy"}], "edges": [],
    },
}


@pytest.mark.parametrize("command", ["solve", "width", "check-decomp"])
@pytest.mark.parametrize("message", sorted(MALFORMED_DECOMPS))
def test_malformed_decomposition_file_is_input_error(worked_dir, capsys, command, message):
    prog, db, decomp = worked_dir
    decomp.write_text(json.dumps(MALFORMED_DECOMPS[message]))
    argv = {
        "solve": ["solve", str(prog), str(db), "--mode", "factorized", "--decomp", str(decomp)],
        "width": ["width", str(decomp)],
        "check-decomp": ["check-decomp", str(decomp)],
    }[command]
    code, out = run_main(argv)
    assert code == 3 and out == ""
    assert capsys.readouterr().err == f"error: {decomp}: {message}\n"


# edges that do not make a tree: one names a missing node, the other closes
# a cycle through the root of the file's second tree
NOT_A_TREE = {
    "tree 0: edge (0, 5) references an unknown node": {
        "root": 0, "nodes": [{"id": 0, "bag": ["x"]}], "edges": [[0, 5]],
    },
    "tree 1: root has a parent": [THREE_NODE_DECOMP, {
        "root": 0, "nodes": [{"id": 0, "bag": ["x"]}, {"id": 1, "bag": ["x", "y"]}],
        "edges": [[0, 1], [1, 0]],
    }],
}


@pytest.mark.parametrize("command", ["solve", "width", "check-decomp"])
@pytest.mark.parametrize("message", sorted(NOT_A_TREE))
def test_tree_shape_error_names_file_and_tree(worked_dir, capsys, command, message):
    prog, db, decomp = worked_dir
    decomp.write_text(json.dumps(NOT_A_TREE[message]))
    argv = {
        "solve": ["solve", str(prog), str(db), "--mode", "factorized", "--decomp", str(decomp)],
        "width": ["width", str(decomp)],
        "check-decomp": ["check-decomp", str(decomp)],
    }[command]
    code, out = run_main(argv)
    assert code == 3 and out == ""
    assert capsys.readouterr().err == f"error: {decomp}: {message}\n"


class TestHeuristicTreesAsBuilt:
    @pytest.mark.parametrize("demo", ["privacy", "smeasure"])
    def test_one_bag_variable_per_projection_row(self, demo):
        # the heuristic tree is factorized as built, with no normal-form
        # extend or project bags in between
        program = parse((DEMOS / demo / f"{demo}.lpcq").read_text(encoding="utf-8"))
        db = load_database(DEMOS / demo / "data")
        *_, factorized = run_pipeline(program, db, "factorized", use_heuristic=True)
        *_, natural = run_pipeline(program, db, "natural")

        cp = quantifier_eliminate(close(normal_form(program), db))
        targets: dict = {}
        for w in cp.weight_exprs():
            targets.setdefault(w.query, []).append(w.target_vars())
        rows = 0
        for query, sets in targets.items():
            tree = heuristic_decompose(query, sets)
            rows += sum(len(p) for p in bag_projections(query, tree, db).values())
        assert factorized.xi_vars == rows
        assert factorized.status == natural.status == "optimal"
        assert math.isclose(factorized.value, natural.value, rel_tol=1e-9, abs_tol=1e-9)


def lpcq_process(*argv, flags=()):
    """``python -m lpcq.cli`` with *argv*, in a process of its own, so that
    Python's own warning filters apply rather than pytest's."""
    src = str(Path(lpcq.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *flags, "-m", "lpcq.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_module_entry_point_runs_without_warnings():
    proc = lpcq_process("--help", flags=("-W", "error"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


def test_primal_simplex_solve_writes_nothing_to_stderr(tmp_path):
    # the natural throughput LP gets an option linprog passes to HiGHS
    # verbatim; the warning that says so must not reach the user
    db_dir = tmp_path / "db"
    code, _ = run_main(["gen", "--out", str(db_dir), "--size", "60", "--seed", "1",
                        "--selectivity", str(BENCH_SELECTIVITY)])
    assert code == 0
    prog = tmp_path / "bench.lpcq"
    prog.write_text(BENCH_PROGRAM)
    proc = lpcq_process("solve", str(prog), str(db_dir), "--json")
    assert proc.returncode == 0 and proc.stderr == ""
    assert json.loads(proc.stdout)["solver"]["options"] == {"presolve": False, "simplex_strategy": 4}
