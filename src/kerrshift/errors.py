"""Error types shared across the package."""


class KerrshiftError(Exception):
    """Base class for all package-specific failures."""


class AmplitudeTooLarge(KerrshiftError):
    """Input amplitude beyond the Fock engine's hard cap; use the closed forms instead."""


class TruncationUnachievable(KerrshiftError):
    """A displaced state needs more levels than the hard basis-size cap, or
    loses more norm to its truncated basis than allowed."""


class OrderTooHigh(KerrshiftError):
    """Normally ordered moment of order above the supported k + l <= 4."""


class ZeroMeanPhoton(KerrshiftError):
    """Fano factor is undefined for a state with zero mean photon number."""


class DegenerateDenominator(KerrshiftError):
    """The denominator of F or the displaced mean photon number vanished; F undefined."""


class NonConvergence(KerrshiftError):
    """Iterative search exceeded its iteration cap."""


class UnboundedOptimum(KerrshiftError):
    """The minimum Fano factor over the shift is approached only as |beta| grows without bound."""


class BelowResolution(KerrshiftError):
    """A result is lost to double rounding: F_min or its slope lies below what doubles resolve."""


class OutOfValidityRange(KerrshiftError):
    """Piecewise approximation queried outside [0, 2 (Kz)_opt]."""


class TargetBelowFloor(KerrshiftError):
    """Requested suppression is deeper than the physical minimum Fano factor."""


class StateTooLarge(KerrshiftError):
    """A Wigner map would need an array above wigner.MAX_WIGNER_BYTES."""


class NumericalOverflow(KerrshiftError):
    """Scaled evaluation left the representable range."""
