"""Photon-noise suppression with displaced Kerr states.

Exact truncated-Fock numerics, closed-form Fano factors of the displaced Kerr
state, shift/length optimizers, analytic approximations, Wigner maps, and
physical waveguide design estimates, all behind one CLI (`kerrshift`).
"""

__version__ = "0.1.0"

from .approx import (
    f1_short,
    f2_near_opt,
    f_min_approx,
    f_piecewise,
    kz_app,
    kz_opt_approx,
)
from .errors import (
    AmplitudeTooLarge,
    DegenerateDenominator,
    KerrshiftError,
    NonConvergence,
    NumericalOverflow,
    OrderTooHigh,
    OutOfValidityRange,
    StateTooLarge,
    TargetBelowFloor,
    TruncationUnachievable,
    UnboundedOptimum,
    ZeroMeanPhoton,
)
from .fock import (
    FockState,
    KerrScenario,
    PhotonStatistics,
    coherent_state,
    displace,
    displacement_matrix,
    field_moment,
    kerr_evolve,
    photon_distribution,
    photon_statistics,
)
from .moments import (
    DisplacementSetting,
    fano_displaced,
    fano_values,
    g_factors,
    shift_amplitude,
)
from .optimize import (
    Optimum,
    optimize_beta,
    optimize_length,
    rayleigh_lower_bound,
    sweep_length,
)
from .waveguide import (
    BeamSpec,
    WaveguideSpec,
    alpha_from_power,
    fano_floor_physical,
    gamma,
    kerr_coupling,
    length_for_suppression,
    load_preset,
    parse_preset,
    z_opt_physical,
)
from .wigner import WignerGrid, auto_window, wigner, wigner_at
