"""Typed errors shared across the package.

Every failure mode that callers are expected to handle gets its own class;
the CLI maps them onto exit codes (parse -> 2, verification -> 3, rest -> 1).
"""


class ConfanError(Exception):
    """Base class for all library errors."""


class ParseError(ConfanError):
    """Malformed input file or unparseable value."""


class VerificationFailure(ConfanError):
    """A verification pass found a counterexample."""


# arith

class NonSquare(ConfanError):
    """Determinant of a non-square matrix."""


class ZeroPolynomial(ConfanError):
    """Lead term of the zero polynomial."""


# matroid

class RankDeficient(ConfanError):
    """Matrix does not have full row rank."""


class Degenerate(ConfanError):
    """Rank constraint 0 < r < n violated, or an operation needs r >= 2."""


class DisconnectedGraph(ConfanError):
    """Graph input must be connected."""


class HasLoops(ConfanError):
    """Operation rejects matroids with loops."""


class EmptyResult(ConfanError):
    """Minor operation would produce an empty ground set."""


class NonDivisible(ConfanError):
    """Exact polynomial division left a remainder (internal consistency)."""


# config

class Mismatch(VerificationFailure):
    """Two routes that must agree symbolically did not."""


class NotConnected(ConfanError):
    """Operation requires a connected matroid."""


# fans

class LoopOrColoop(ConfanError):
    """Operation rejects matroids with loops or coloops."""


class NotAFlat(ConfanError):
    """Subset is not a flat of the matroid."""


# classes

class NotRound(ConfanError):
    """Operation requires a round matroid."""
