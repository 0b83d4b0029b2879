"""Linear programs over conjunctive-query answer sets.

The pipeline: parse a program (``language.parse``), rewrite it to normal
form, close it over a database, eliminate quantifiers from the weight
queries, interpret the result as a concrete LP (naturally or factorized
over hypertree decompositions), solve, and optionally lift the factorized
solution back to per-answer weights.
"""

from .relations import (
    Assignment,
    Database,
    Relation,
    Value,
    load_database,
    save_database,
)
from .queries import (
    And,
    AnswerSet,
    Atom,
    Const,
    Equal,
    Exists,
    TRUE,
    Var,
    evaluate,
    extend,
    format_query,
    free_vars,
    parse_query,
    prenex,
    qf,
    substitute,
)
from .decomp import (
    DecompTree,
    NodeKind,
    attach_target_bags,
    bag_projections,
    check_compatible,
    fractional_bag_width,
    heuristic_decompose,
    load_decompositions,
    match_tree_to_query,
    normalize,
    save_decompositions,
    tree_width,
    validate,
)
from .linprog import (
    LinConstraint,
    LinearProgram,
    LinSum,
    LpSolution,
    eval_sum,
    solve,
)
from .lpformat import export_lp, parse_lp
from .language import (
    ClosedConstraint,
    ClosedProgram,
    ClosedSum,
    LpcqProgram,
    WeightExprClosed,
    close,
    free_vars_lpcq,
    normal_form,
    parse,
)
from .interpret import (
    InterpretedLp,
    VarNaming,
    factorized,
    natural,
    quantifier_eliminate,
    replacement,
)
from .weightings import (
    Weighting,
    WeightingCollection,
    check_sound,
    collection_from_weighting,
    project_weighting,
    reconstruct,
    reconstruct_point,
    solution_to_weights,
)
from .synth import GenSpec, generate_delivery, write_delivery
from . import errors

# the CLI module loads only when one of these is asked for, so that
# ``python -m lpcq.cli`` does not find it already imported by the package
_FROM_CLI = ("RunReport", "run_pipeline")


def __getattr__(name):
    if name in _FROM_CLI:
        from . import cli

        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [name for name in dir() if not name.startswith("_")] + list(_FROM_CLI)
__version__ = "0.1.0"
