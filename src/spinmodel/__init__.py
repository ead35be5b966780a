"""Simulation and variational analysis of an electron-spin orientation model.

Units: natural units, e = hbar = m_e = 1, throughout the package.

Modules:

- ``orientation``: the cos^{2m} orientation-density family and its action
  functional (Tsallis / Renyi / Kullback-Leibler variants).
- ``telegraph``: the alternating up/down trend process of the orientation.
- ``stern_gerlach``: single- and two-apparatus measurement statistics,
  including the weak-gradient continuous-displacement regime.
- ``entanglement``: Bell-pair correlations, CHSH, and delayed measurement.
- ``pauli``: a split-step two-component Schrodinger-Pauli solver with
  Madelung (density/phase) diagnostics.
- ``fluctuations``: translational and rotational vacuum-fluctuation models.
- ``qm_oracle``: independent textbook quantum-mechanics reference values.
- ``streams``: reproducible random number streams, SFC64 seeded through
  SeedSequence.
"""

__version__ = "0.1.0"

from . import (  # noqa: E402,F401
    entanglement,
    fluctuations,
    orientation,
    pauli,
    qm_oracle,
    stern_gerlach,
    streams,
    telegraph,
)
from .pauli import ConvergenceError  # noqa: F401
