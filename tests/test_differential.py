"""Natural, replacement and factorized runs of the same random program
against each other.

Programs and databases come from ``makers``, drawn from
``random.Random(seed)`` with the seed from hypothesis, as in
``test_closure``: a derandomized ``st.randoms`` stream explores much less.
The factorized run uses the min-fill trees ``build_decompositions`` fits
to the weight targets, as ``lpcq solve --heuristic-decomp`` does.  All
three must reach the same status and optimum, and ``lift_answers`` in
every mode must give a point that satisfies the natural LP at that
optimum.
"""

import math
import random

from hypothesis import HealthCheck, event, given, reject, settings
from hypothesis import strategies as st

from lpcq.cli import build_decompositions
from lpcq.interpret import factorized, natural, quantifier_eliminate, replacement
from lpcq.linprog import solve
from lpcq.weightings import lift_answers

from makers import answer_point, certify_point, rand_flagship_instance

REL_TOL = 1e-6


def close_rel(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=REL_TOL)


@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=st.integers(0, 2**32), n_exists=st.integers(0, 1))
def test_modes_agree_and_every_lift_certifies(seed, n_exists):
    try:
        db, _, cp = rand_flagship_instance(random.Random(seed), n_exists=n_exists)
    except RuntimeError:
        reject()
    cp_qf = quantifier_eliminate(cp)
    nat_ilp = natural(cp_qf, db)
    runs = {
        "natural": nat_ilp,
        "replacement": replacement(cp_qf, db),
        "factorized": factorized(
            cp_qf, build_decompositions(cp, cp_qf, None, use_heuristic=True), db
        ),
    }
    event(f"largest tree: {max(len(t.bags) for t in runs['factorized'].trees.values())} bags")
    classes = nat_ilp.program.lead is not None  # None: one class per answer
    event("θ blocks with fewer classes than answers" if classes else "one class per answer")
    solutions = {mode: solve(ilp.program) for mode, ilp in runs.items()}
    expected = solutions["natural"]
    event(f"natural {expected.status}")
    matrices = [ilp.program.matrices() for ilp in runs.values()]
    bag_classes = runs["factorized"].program.lead is not None  # None: one class per bag row
    event("factorized LP with bag-row classes" if bag_classes else "no bag-row classes")
    forced = any(m.classes.max(initial=-1) + 1 < len(m.columns) for m in matrices)
    event("an LP with forced-equal merges" if forced else "no LP with forced-equal merges")
    event("an LP with rows sent as bounds" if any(m.bounded for m in matrices)
          else "no LP with rows sent as bounds")
    event("an LP with leaf columns taken out" if any(m.substituted for m in matrices)
          else "no LP with leaf columns taken out")
    for mode, sol in solutions.items():
        assert sol.status == expected.status, mode
        if sol.status == "optimal":
            assert close_rel(sol.value, expected.value), (mode, sol.value, expected.value)
    if expected.status != "optimal":
        return

    for mode, ilp in runs.items():
        point = {}
        for key in cp_qf.queries_w():
            lifted = lift_answers(solutions[mode], ilp, key)
            masses = dict(zip(lifted.rows(), lifted.masses.tolist()))
            assert len(masses) == len(nat_ilp.theta[key].rows), mode
            point.update(answer_point(nat_ilp, key, masses))
        certificate, objective = certify_point(nat_ilp.program, point)
        assert certificate.violation <= 1e-6, (mode, certificate)
        assert close_rel(objective, expected.value), (mode, objective, expected.value)
