"""Overlap-aware pattern frequency in a graph.

    python demos/05_pattern_support.py
"""

from pathlib import Path

from lpcq import evaluate, load_database, parse, parse_query, run_pipeline, solution_to_weights

here = Path(__file__).parent / "smeasure"
program = parse((here / "smeasure.lpcq").read_text())
db = load_database(here / "data")

pattern = parse_query("edge(x1, x2) /\\ edge(x2, x3)")
matches = evaluate(pattern, db)
print(f"raw match count of the two-edge path: {len(matches)}")

cp, ilp, sol, report = run_pipeline(program, db, "natural")
print(f"overlap-aware support: {report.value:g}  (always <= raw count)")

print("\nweight per matching:")
(key,) = cp.queries_w()
for answer, mass in solution_to_weights(sol, ilp, key, db).items():
    path = " -> ".join(val.text for val in answer.values)
    print(f"  {path}: {mass:.3f}")
