"""Exception types shared across the package."""


class TorusDiracError(Exception):
    """Base class for all package-specific errors."""


class DegenerateGeometry(TorusDiracError):
    """The ring radius R(x) vanishes (or nearly so) where it must not."""


class ChargeZero(TorusDiracError):
    """A gauge family needing a nonzero charge was built with e = 0."""


class GridMismatch(TorusDiracError):
    """Samples do not fit the grid: coefficient samples of the wrong shape, an
    operand whose last axis is not the grid's n samples, or a non-periodic grid
    for the Dirac kernel."""


class VelocityZero(TorusDiracError):
    """The Fermi velocity vanishes on an interior grid point where it is divided by."""


class FamilyMismatch(TorusDiracError):
    """An operation received a gauge family it is not defined for."""


class DomainSingularity(TorusDiracError):
    """The evaluation grid touches a pole of the integrand/potential."""


class DomainUnsupported(TorusDiracError):
    """A series evaluation outside its supported domain (a non-terminating 2F1)."""


class PoleAtC(TorusDiracError):
    """Hypergeometric lower parameter hits a nonpositive integer before the series terminates."""


class SingularParameter(TorusDiracError):
    """A parameter combination makes a closed form singular."""


class NoRootInBracket(TorusDiracError):
    """A level has no root to find: it is unbound (eps_n^2 < 0)."""


class ComplexPotential(TorusDiracError):
    """A real symmetric eigensolve was requested for a complex potential."""


class ConvergenceFailure(TorusDiracError):
    """Iterative solver exceeded its iteration budget."""


class EvenSampleCount(TorusDiracError):
    """Composite Simpson needs an odd number of samples."""


class ConfigError(TorusDiracError):
    """Scenario configuration failed validation; message carries the field path."""
