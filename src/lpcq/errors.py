"""Exception types raised across the package.

Every error that callers are expected to catch derives from LpcqError, so a
driver can distinguish bad input from genuine bugs with one except clause.
"""


class LpcqError(Exception):
    """Base class for all errors raised by this package."""


# --- databases and assignments -------------------------------------------

class RaggedRowsError(LpcqError):
    """A CSV file mixes rows of different lengths."""


class EmptyDirError(LpcqError):
    """A database directory contains no .csv files."""


class DuplicateRelationError(LpcqError):
    """Two files map to the same relation name."""


class UnknownVariableError(LpcqError):
    """An assignment was restricted to a variable it does not bind."""


# --- queries ---------------------------------------------------------------

class UnknownRelationError(LpcqError):
    """A query atom names a relation absent from the database."""


class ArityMismatchError(LpcqError):
    """A query atom's argument count differs from the relation arity."""


class MissingFreeVariableError(LpcqError):
    """evaluate() was asked for a variable set not covering the free variables."""


class LengthMismatchError(LpcqError):
    """Substitution received variable and constant vectors of different lengths."""


# --- decompositions --------------------------------------------------------

class NotATreeError(LpcqError):
    """The node/edge structure is not a rooted tree."""


class DisconnectedVariableError(LpcqError):
    """A variable's bag occurrences do not form a connected subtree."""

    def __init__(self, variable, msg=None):
        super().__init__(msg or f"occurrences of {variable!r} are not connected")
        self.variable = variable


class UncoveredAtomError(LpcqError):
    """Some atom's variables fit in no single bag."""


class UncoveredVariableError(LpcqError):
    """A free variable of the query appears in no bag."""


class UncoverableVariableError(LpcqError):
    """A bag variable occurs in no atom, so no fractional cover exists."""


class IncompatibleTargetError(LpcqError):
    """A weight-expression target set fits inside no bag of the tree."""


# --- linear programs -------------------------------------------------------

class NumericalFailureError(LpcqError):
    """The LP solver stopped without an optimum, infeasibility or unboundedness
    verdict, e.g. on an iteration limit or numerical trouble; or the LP
    holds a number that is not finite, which no solve is tried on."""


class CertificateError(LpcqError):
    """The optimum the LP solver returned violates a row or a bound beyond
    tolerance, so it is not reported.  ``certificate`` holds the figures."""

    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = certificate


class IoError(LpcqError):
    """An LP-format file or its names sidecar could not be written or read."""


# --- surface language ------------------------------------------------------

class ParseError(LpcqError):
    """Program, query or decomposition-file text violates the grammar, or an
    input file is not UTF-8."""

    def __init__(self, message, span=None):
        if span is not None:
            message = f"{message} (at line {span[0]}, column {span[1]})"
        super().__init__(message)
        self.span = span


class FreeVariableError(ParseError):
    """A program leaves a variable unbound."""


class ShadowingError(ParseError):
    """A binder reuses a name in a way that makes references ambiguous."""


class NumUndefinedError(LpcqError):
    """num() was applied to a value with no numeric reading."""


class InternalFreeVariableError(LpcqError):
    """Closure met an unbound variable; unreachable on checked programs."""


# --- interpretations -------------------------------------------------------

class IncompatibleDecompositionError(LpcqError):
    """A decomposition tree is missing a bag required by a weight expression."""


class MissingDecompositionError(LpcqError):
    """Factorized interpretation found no tree for a weight-bearing query."""


# --- weightings ------------------------------------------------------------

class BadSubsetError(LpcqError):
    """Projection target is not a subset of the weighting's variables."""


class UnsoundCollectionError(LpcqError):
    """A weighting collection violates an edge marginal equality."""

    def __init__(self, edge, gamma, lhs, rhs, tol):
        super().__init__(
            f"marginals differ on edge {edge} at {gamma}: {lhs} vs {rhs} (tol {tol})"
        )
        self.edge = edge
        self.gamma = gamma
        self.lhs = lhs
        self.rhs = rhs


class TooLargeError(LpcqError):
    """An operation refused an input above its brute-force or memory guard."""


class NotAnAnswerError(LpcqError):
    """reconstruct_point was asked about an assignment outside the answer set."""


# --- synthetic data --------------------------------------------------------

class InfeasibleSpecError(LpcqError):
    """The generator cannot draw m distinct tuples from the requested grid."""
