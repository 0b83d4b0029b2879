import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


def printed_weights(out: str, header: str) -> list[float]:
    """The ``  answer: weight`` lines after *header*, up to a blank line."""
    lines = out.split(header + "\n", 1)[1].split("\n\n", 1)[0].splitlines()
    return [float(line.rsplit(": ", 1)[1]) for line in lines]


def privacy_weights_not_all_zero(out: str) -> None:
    assert any(printed_weights(out, "disclosure weight per answer row:"))


def support_weights_sum_to_the_support(out: str) -> None:
    support = float(re.search(r"overlap-aware support: (\S+)", out).group(1))
    assert support == 3
    # five weights printed to three decimals
    assert math.isclose(sum(printed_weights(out, "weight per matching:")), support, abs_tol=5e-3)


OUTPUT_CHECKS = {
    "04_privacy_budget.py": privacy_weights_not_all_zero,
    "05_pattern_support.py": support_weights_sum_to_the_support,
}


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    args = [sys.executable, str(script)]
    if script.name.startswith("06"):
        args += ["30", "60"]  # keep the benchmark demo cheap under pytest
    proc = subprocess.run(
        args, capture_output=True, text=True, timeout=180, env=env, cwd=ROOT
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip()
    if script.name in OUTPUT_CHECKS:
        OUTPUT_CHECKS[script.name](proc.stdout)


def test_delivery_cli_round_trip(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    weights = tmp_path / "plan.csv"
    proc = subprocess.run(
        [
            sys.executable, "-m", "lpcq", "solve",
            str(ROOT / "demos/delivery/delivery.lpcq"),
            str(ROOT / "demos/delivery/data"),
            "--mode", "factorized",
            "--decomp", str(ROOT / "demos/delivery/decomp.json"),
            "--weights", str(weights),
        ],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "value: 33" in proc.stdout
    assert weights.exists() and weights.read_text().strip()
