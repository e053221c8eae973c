"""oqmap: a numerical laboratory for open chaotic maps on the torus.

The package covers the full pipeline from exact classical symbolic
dynamics of D-symbol open baker maps (escape volumes, trapped-set
covers, topological pressure) through their quantizations (standard
Fourier blocks and the Walsh tensor model) to spectral analysis of the
resulting subunitary matrices: resonance counting and fractal Weyl
fits, pressure-based spectral-radius brackets, an exact Schur-complement
effective Hamiltonian on the trapped cover, and Husimi phase-space
localization of metastable eigenmodes.
"""

__version__ = "0.1.0"

from .classical import (
    BakerSpec,
    EscapeReport,
    PressureReport,
    TrappedCover,
    Word,
    admissible_words,
    cantor_dimension,
    escape_report,
    escape_time,
    pressure,
    spec_digest,
    step,
    symmetric_spec,
    thermo_report,
    trapped_cover,
    validate_spec,
    word_interval,
)
from .errors import (
    AsymmetricSpec,
    CoverTooFine,
    DimensionGuard,
    DivisibilityError,
    EmptyOrFullKeepSet,
    EndpointMismatch,
    HorizonTooLarge,
    InsufficientSamples,
    LengthMismatch,
    NonMonotonePartition,
    NumericalError,
    OQMapError,
    OutOfDomain,
    ParityNotExact,
    PowerIterationDivergence,
    ProbeInsideBulkSpectrum,
    SingularResolvent,
    SolverFailure,
    UnnormalizedInput,
    ValidationError,
)
from .phasespace import (
    CoherentFrame,
    HusimiField,
    HusimiReport,
    coherent_state,
    coherent_state_raw,
    husimi_field,
    husimi_report,
    merged_strip_cover,
)
from .quantize import (
    OpenQuantization,
    QuantizationConfig,
    QuantizedMap,
    WalshModel,
    apply_diagonal_phases,
    parity_split,
    quantize_open,
    walsh_open,
)
from .spectral import (
    CountReport,
    EffectiveHamiltonianReport,
    Quasiprojector,
    Spectrum,
    WeylFit,
    count_profile,
    effective_hamiltonian,
    eigen_decompose,
    lifetimes,
    match_spectra,
    residual_decay,
    spectral_radius,
    trapped_quasiprojector,
    weyl_fit,
)

__all__ = [
    "__version__",
    # classical
    "BakerSpec", "EscapeReport", "PressureReport", "TrappedCover", "Word",
    "admissible_words", "cantor_dimension", "escape_report", "escape_time",
    "pressure", "spec_digest", "step", "symmetric_spec", "thermo_report",
    "trapped_cover", "validate_spec", "word_interval",
    # quantize
    "OpenQuantization", "QuantizationConfig", "QuantizedMap", "WalshModel",
    "apply_diagonal_phases", "parity_split", "quantize_open", "walsh_open",
    # spectral
    "CountReport", "EffectiveHamiltonianReport", "Quasiprojector", "Spectrum",
    "WeylFit", "count_profile", "effective_hamiltonian", "eigen_decompose",
    "lifetimes", "match_spectra", "residual_decay", "spectral_radius",
    "trapped_quasiprojector", "weyl_fit",
    # phase space
    "CoherentFrame", "HusimiField", "HusimiReport", "coherent_state",
    "coherent_state_raw", "husimi_field", "husimi_report", "merged_strip_cover",
    # errors
    "OQMapError", "ValidationError", "NumericalError", "NonMonotonePartition",
    "EmptyOrFullKeepSet", "EndpointMismatch", "OutOfDomain", "HorizonTooLarge",
    "DivisibilityError", "DimensionGuard", "AsymmetricSpec", "LengthMismatch",
    "InsufficientSamples", "CoverTooFine", "ProbeInsideBulkSpectrum",
    "UnnormalizedInput", "PowerIterationDivergence", "ParityNotExact",
    "SolverFailure", "SingularResolvent",
]
