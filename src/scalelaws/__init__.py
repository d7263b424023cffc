"""scalelaws: fit, compare, and extrapolate capacity-style scaling laws.

The package models test loss as a function of model size N, token count
D, and optionally a perturbation level X, using a registry of ten law
forms (a Shannon-capacity family plus classic power-law baselines). It
ships a deterministic multistart least-squares fitter, pooled R-squared
scoring, three held-out extrapolation protocols, loss-landscape grid
evaluation with basin detection, and an SNR-calibrated Gaussian weight
perturbation utility. See the `scalelaws` CLI for the orchestration
layer.
"""

__version__ = "0.1.0"

from .dataset import (
    Normalization,
    Observation,
    ObservationSet,
    distinct_axis_values,
    group_by_level,
    load_observations,
)
from .errors import (
    DataValidationError,
    FitError,
    LawDomainError,
    ScaleLawsError,
    ScoreOverflowError,
    SplitError,
    UndefinedVarianceError,
)
from .extrapolation import (
    ComparisonTable,
    ExtrapReport,
    SplitSpec,
    SweepTable,
    compare_laws,
    fit_levels,
    make_split,
    progressive_sweep,
    run_extrapolation,
)
from .fitter import FitConfig, FitResult, fit, local_solve
from .landscape import (
    BasinReport,
    ExponentReport,
    GridSpec,
    LossGrid,
    detect_basin,
    exponent_report,
    grid_eval,
    optimal_along_axis,
)
from .laws import (
    LAW_IDS,
    SHANNON_FAMILY,
    LawSpec,
    ParamVector,
    capacity,
    get_law,
    law_registry,
    predict_dataset,
    predict_loss,
    with_orientation,
)
from .metrics import EvalPairs, pooled_r_squared, r_squared, summarize_levels
from .perturb import (
    PerturbReport,
    WeightVector,
    inject,
    inject_segmented,
    measure_snr,
    measure_wvec,
    noise_sigma2,
    perturb_wvec,
    read_weights_text,
    read_wvec,
    signal_power,
    write_weights_text,
    write_wvec,
)

__all__ = [
    "__version__",
    # dataset
    "Normalization", "Observation", "ObservationSet",
    "load_observations", "group_by_level", "distinct_axis_values",
    # errors
    "ScaleLawsError", "DataValidationError", "LawDomainError",
    "UndefinedVarianceError", "ScoreOverflowError", "SplitError", "FitError",
    # laws
    "LAW_IDS", "SHANNON_FAMILY", "LawSpec", "ParamVector",
    "law_registry", "get_law", "with_orientation",
    "capacity", "predict_loss", "predict_dataset",
    # fitter
    "FitConfig", "FitResult", "fit", "local_solve",
    # metrics
    "EvalPairs", "r_squared", "pooled_r_squared", "summarize_levels",
    # level fitting, comparison and extrapolation
    "ComparisonTable", "SplitSpec", "ExtrapReport", "SweepTable",
    "fit_levels", "compare_laws", "make_split", "run_extrapolation", "progressive_sweep",
    # landscape
    "GridSpec", "LossGrid", "BasinReport", "ExponentReport",
    "grid_eval", "detect_basin", "optimal_along_axis", "exponent_report",
    # perturb
    "WeightVector", "PerturbReport",
    "signal_power", "noise_sigma2", "inject", "inject_segmented", "measure_snr",
    "perturb_wvec", "measure_wvec",
    "read_wvec", "write_wvec", "read_weights_text", "write_weights_text",
]
