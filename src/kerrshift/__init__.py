"""Photon-noise suppression with displaced Kerr states.

Each name is imported from the module that defines it; the package root
holds only `__version__`. The layers, from the bottom up, each importing
only layers listed before it:
    errors     the named failures
    serialize  JSON and CSV artifacts
    moments    the scenario and statistics records; the closed-form Fano factor
    fock       truncated-Fock states: coherent, Kerr-evolved, displaced
    approx     asymptotic laws for the optimum length and Fano floor
    optimize   optimal shift and length, length sweeps
    waveguide  physical waveguide and beam design numbers
    wigner     Wigner maps of Fock states
    reference  the paper's published values
    reproduce  the paper's tables and figures as artifacts
    cli        the `kerrshift` command line
"""

__version__ = "0.1.0"
