"""Error types shared across the package."""


class KerrshiftError(Exception):
    """Base class for all package-specific failures."""


class AmplitudeTooLarge(KerrshiftError):
    """Input amplitude beyond the Fock engine's hard cap; use the closed forms instead."""


class TruncationUnachievable(KerrshiftError):
    """Requested tail tolerance cannot be met below the hard basis-size cap,
    or a displaced state loses more norm to its truncated basis than allowed."""


class OrderTooHigh(KerrshiftError):
    """Normally ordered moment of order above the supported k + l <= 4."""


class ZeroMeanPhoton(KerrshiftError):
    """Fano factor is undefined for a state with zero mean photon number."""


class DegenerateDenominator(KerrshiftError):
    """Displaced mean photon number vanished; Fano factor undefined."""


class NonConvergence(KerrshiftError):
    """Iterative search exceeded its iteration cap."""


class UnboundedOptimum(KerrshiftError):
    """The minimum Fano factor over the shift is approached only as |beta| grows without bound."""


class OutOfValidityRange(KerrshiftError):
    """Piecewise approximation queried outside [0, 2 (Kz)_opt]."""


class TargetBelowFloor(KerrshiftError):
    """Requested suppression is deeper than the physical minimum Fano factor."""


class NoRealRoot(KerrshiftError):
    """Suppression-target inversion has no real solution."""


class StateTooLarge(KerrshiftError):
    """Wigner grid of this state would need a temporary above wigner.MAX_WIGNER_BYTES."""


class NumericalOverflow(KerrshiftError):
    """Scaled evaluation left the representable range."""
