"""Exception hierarchy shared across the package."""


class OdAdjustError(Exception):
    """Base class for every error raised by this package."""


class InputError(OdAdjustError):
    """An input document cannot be turned into a valid network."""


class MalformedInput(InputError):
    """Syntactically or semantically invalid input document."""


class DuplicateId(InputError):
    """A node or link identifier appears more than once."""


class DanglingReference(InputError):
    """A record references a node or link id that does not exist."""


class NegativeCoefficient(InputError):
    """A link cost polynomial has a negative coefficient."""


class UnreachableDestination(InputError):
    """A commodity's destination cannot be reached from its origin."""


class DimensionMismatch(OdAdjustError):
    """A vector or matrix argument has the wrong shape."""


class Unreachable(OdAdjustError):
    """Positive demand cannot be routed because no path has a finite cost:
    a link travel time overflows at the flows an assignment reaches, or the
    times along every path sum past the largest float."""


class MaxIterations(OdAdjustError):
    """An iterative solver exhausted its iteration budget."""


class ResidualTooLarge(OdAdjustError):
    """Recovered multipliers violate the optimality system beyond tolerance."""


class SolverStalled(OdAdjustError):
    """An iterative subproblem solver cycled beyond its iteration cap."""


class NoCandidate(OdAdjustError):
    """The optimization phase produced no point satisfying its decrease test."""


class InfeasibleTheta(OdAdjustError):
    """No penalty weight achieves the required predicted reduction."""


class TooLarge(OdAdjustError):
    """Instance exceeds the size limits of a brute-force oracle."""
