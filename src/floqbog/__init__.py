"""Floquet-Bogoliubov spectra, stability, and topology of a driven chain.

Quadratic bosonic two-band chain with on-site pairing and a cosine drive
of the hopping amplitudes: quasienergy spectra from the monodromy of the
non-Hermitian Bogoliubov generator, dynamical (in)stability
classification, symplectic winding numbers, a Bessel-function effective
Hamiltonian, open-chain edge instabilities, and parameter-grid engines.
"""

from .model import (
    ModelParams,
    bloch_blocks,
    chain_blocks,
    nambu_metric,
)
from .floquet import (
    IntegrationError,
    fold,
    kgrid,
    kgrid_solve,
    propagate,
)
from .topology import (
    InvariantResult,
    InvariantUndefinedError,
    TrackingError,
    evaluate_points,
    scan_path,
    symplectic_winding,
    winding_undriven,
)
from .effective import (
    EffectiveCoefficients,
    choose_indices,
    effective_coefficients,
    effective_quasienergies,
    effective_spectrum,
)
from .dynamics import (
    ChainSpectrum,
    EvolutionTrace,
    chain_spectrum,
    detect_midgap,
    edge_weight,
    evolve_vacuum,
    growth_rate_fit,
)
from .sweep import (
    effective_phase_overlay,
    phase_diagram,
    stability_grid,
)

__version__ = "0.1.0"

__all__ = [
    "ChainSpectrum",
    "EffectiveCoefficients",
    "EvolutionTrace",
    "IntegrationError",
    "InvariantResult",
    "InvariantUndefinedError",
    "ModelParams",
    "TrackingError",
    "bloch_blocks",
    "chain_blocks",
    "chain_spectrum",
    "choose_indices",
    "detect_midgap",
    "edge_weight",
    "effective_coefficients",
    "effective_phase_overlay",
    "effective_quasienergies",
    "effective_spectrum",
    "evaluate_points",
    "evolve_vacuum",
    "fold",
    "growth_rate_fit",
    "kgrid",
    "kgrid_solve",
    "nambu_metric",
    "phase_diagram",
    "propagate",
    "scan_path",
    "stability_grid",
    "symplectic_winding",
    "winding_undriven",
]
