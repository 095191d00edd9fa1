"""Photon-noise suppression with displaced Kerr states.

Each name is imported from the module that defines it; the package root
holds only `__version__`. The layers, from the bottom up:
    errors     the named failures and their CLI exit codes
    fock       truncated-Fock states: coherent, Kerr-evolved, displaced
    moments    closed-form Fano factor of the displaced Kerr state
    optimize   optimal shift and length, length sweeps
    approx     asymptotic laws for the optimum length and Fano floor
    waveguide  physical waveguide and beam design numbers
    wigner     Wigner maps of Fock states
    reference  the paper's published values
    reproduce  the paper's tables and figures as artifacts
    serialize  JSON and CSV artifacts
    cli        the `kerrshift` command line
"""

__version__ = "0.1.0"
