"""Decomposition trees: validation, widths, fitting to targets, projections.

    python demos/02_decompositions_and_projections.py
"""

from pathlib import Path

from lpcq import (
    attach_target_bags,
    bag_projections,
    close,
    fractional_bag_width,
    heuristic_decompose,
    load_database,
    load_decompositions,
    normal_form,
    parse,
    parse_query,
    qf,
    quantifier_eliminate,
    tree_width,
    validate,
)

here = Path(__file__).parent / "delivery"
db = load_database(here / "data")

(tree,) = load_decompositions(here / "decomp.json")
body = qf(tree.query)
validate(tree, body)
print(f"loaded tree: {len(tree.bags)} bags, fractional width {tree_width(tree, body):g}")
for node in tree.nodes:
    bag = ",".join(sorted(tree.bags[node]))
    print(f"  node {node}: {{{bag}}}  width {fractional_bag_width(tree.bags[node], body):g}")

# the factorized program needs every weight target of the delivery program
# as a bag; fitting adds a leaf for each one missing
cp = quantifier_eliminate(close(normal_form(parse((here / "delivery.lpcq").read_text())), db))
targets = {w.target_vars() for w in cp.weight_exprs()}
fitted = attach_target_bags(tree, targets)
print(f"\nfitted to {len(targets)} weight targets: {len(fitted.bags)} bags")

# projections are computed by two semi-join sweeps, never materializing
# the full answer set
proj = bag_projections(body, fitted, db)
for node in fitted.bfs_order():
    bag = ",".join(sorted(fitted.bags[node]))
    print(f"  node {node}: {{{bag}}} under {fitted.parent[node]}, {len(proj[node])} rows")

# with no tree at hand, a min-fill heuristic builds one
triangle = parse_query("R(x, y) /\\ S(y, z) /\\ T(z, x)")
auto = heuristic_decompose(triangle)
print(f"\nheuristic tree for the triangle query: width {tree_width(auto, triangle):g}, "
      f"bags {sorted(tuple(sorted(b)) for b in auto.bags.values())}")
