"""Multimode parametric networks: scattering, Gaussian states, certification.

The package models a comb of resonator modes coupled pairwise by pump
tones through a shared nonlinear mirror, predicts the output Gaussian
state, emulates the amplified measurement chain and certifies two-mode
entanglement and full inseparability with calibrated error bars.
"""

from .bases import symplectic_form
from .calibration import (
    CalibrationStore,
    CorrelationFitResult,
    PlanckFitResult,
    added_noise_from_pump_off,
    c_lineshape,
    fit_gain_from_correlations,
    planck_fit,
    planck_power,
    ppt_temperature_sweep,
)
from .cli import RunReport, main, run_scenario
from .config import ScenarioConfig
from .coupling_graph import (
    CouplingMatrix,
    FourWaveMatch,
    assign_probe_frequencies,
    build_coupling_matrix,
    default_tolerance,
    dressed_frequencies,
    match_four_wave,
    mode_frequency_shifts,
    pair_couplings,
)
from .entanglement import (
    Bipartition,
    EntanglementReport,
    all_bipartition_reports,
    all_bipartitions,
    decorrelate_iq,
    entanglement_sigma,
    ppt_min_eigenvalue,
    propagate_errors,
    significance,
    svl_test,
    svl_value,
)
from .errors import (
    ConfigError,
    DegenerateModeError,
    DimensionMismatchError,
    EmptySamplesError,
    FitDivergedError,
    GainBelowUnityError,
    InsufficientDataError,
    MissingFitCovarianceError,
    ModecombError,
    NegativeNoiseError,
    NonConvergenceWarning,
    NonPhysicalInputError,
    NotPSDError,
    NumericalError,
    OptimizerFailureError,
    PhysicalityWarning,
    SingularMatrixError,
    UnstablePumpError,
    ZeroVarianceError,
)
from .gaussian_state import (
    AmplifierModel,
    CovarianceMatrix,
    QuadratureSamples,
    amplify,
    bose_occupation,
    correlation_quantity,
    deamplify,
    drift_compensation_angle,
    histogram2d_subtracted,
    output_covariance,
    sample,
    sample_covariance,
    squeezing_stats,
    thermal_covariance,
    two_mode_squeezed_covariance,
)
from .modesys import (
    GAAS_REFERENCE,
    MaterialParams,
    MirrorSpec,
    ModeSpec,
    ModeSystem,
    PumpTone,
    effective_couplings,
    estimate_vacuum_coupling,
    parametric_coupling,
    pump_amplitude,
)
from .reconstruct import ReconstructionResult, reconstruct_intervals, reconstruct_physical
from .scattering import (
    ScatteringPair,
    network,
    pseudo_unitarity_residual,
    scattering_matrices,
    symplectic_residual,
)

__version__ = "0.1.0"
