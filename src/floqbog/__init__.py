"""Floquet-Bogoliubov spectra, stability, and topology of a driven chain.

Quadratic bosonic two-band chain with on-site pairing and a cosine drive
of the hopping amplitudes: quasienergy spectra from the monodromy of the
non-Hermitian Bogoliubov generator, dynamical (in)stability
classification, symplectic winding numbers, a Bessel-function effective
Hamiltonian, open-chain edge instabilities, and parameter-grid engines.
"""

from .model import (
    BdGMatrix,
    FieldSample,
    ModelParams,
    bloch_blocks,
    bloch_hamiltonian,
    chain_blocks,
    chain_hamiltonian,
    chiral_residual,
    drive_fields,
    nambu_metric,
)
from .floquet import (
    IntegrationError,
    Monodromy,
    QuasienergyBranch,
    Verdict,
    classify_stability,
    fold,
    global_stability,
    kgrid,
    kgrid_solve,
    propagate,
    quasienergies,
    solve_bloch_k,
    symplectic_norms,
)
from .topology import (
    InvariantResult,
    InvariantUndefinedError,
    TrackedBands,
    TrackingError,
    scan_path,
    select_band_set,
    symplectic_winding,
    track_bands,
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
    GridSpec,
    PhaseCell,
    StabilityCell,
    curve_gamma,
    effective_phase_overlay,
    phase_diagram,
    stability_grid,
)

__version__ = "0.1.0"

__all__ = [
    "BdGMatrix",
    "ChainSpectrum",
    "EffectiveCoefficients",
    "EvolutionTrace",
    "FieldSample",
    "GridSpec",
    "IntegrationError",
    "InvariantResult",
    "InvariantUndefinedError",
    "ModelParams",
    "Monodromy",
    "PhaseCell",
    "QuasienergyBranch",
    "StabilityCell",
    "TrackedBands",
    "TrackingError",
    "Verdict",
    "bloch_blocks",
    "bloch_hamiltonian",
    "chain_blocks",
    "chain_hamiltonian",
    "chain_spectrum",
    "chiral_residual",
    "choose_indices",
    "classify_stability",
    "curve_gamma",
    "detect_midgap",
    "drive_fields",
    "edge_weight",
    "effective_coefficients",
    "effective_phase_overlay",
    "effective_quasienergies",
    "effective_spectrum",
    "evolve_vacuum",
    "fold",
    "global_stability",
    "growth_rate_fit",
    "kgrid",
    "kgrid_solve",
    "nambu_metric",
    "phase_diagram",
    "propagate",
    "quasienergies",
    "scan_path",
    "select_band_set",
    "solve_bloch_k",
    "stability_grid",
    "symplectic_norms",
    "symplectic_winding",
    "track_bands",
    "winding_undriven",
]
