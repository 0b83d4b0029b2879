"""Disclosure budgets for published studies, as a weighted-answers program.

    python demos/04_privacy_budget.py
"""

from pathlib import Path

from lpcq import load_database, parse, run_pipeline, solution_to_weights

here = Path(__file__).parent / "privacy"
program = parse((here / "privacy.lpcq").read_text())
db = load_database(here / "data")

cp, ilp, sol, report = run_pipeline(program, db, "natural")
print("\n".join(report.lines()))

# the pipeline rewrites the query quantifier-free, so answer rows keep the
# study column alongside the sensitive (patient, test) pair
print("\ndisclosure weight per answer row:")
(key,) = cp.queries_w()
for answer, mass in solution_to_weights(sol, ilp, key, db).items():
    pair = ", ".join(f"{v}={val.text}" for v, val in answer.items())
    print(f"  {pair}: {mass:.3f}")

cp, _, fac_sol, fac_report = run_pipeline(program, db, "factorized", use_heuristic=True)
print(f"\nfactorized agrees: {fac_report.value:.6g} "
      f"({fac_report.total_vars} variables vs {report.total_vars})")
