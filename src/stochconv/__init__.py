"""Stochastic convolutions on Galerkin-truncated Hilbert spaces.

The package realizes stochastic integration as a concrete left-point
Euler-Ito operator on finite mode truncations, computes stochastic
convolutions directly, through a singular-kernel family, and through the
two-stage factorization pipeline, and ships verification harnesses for the
integrate/average commutation identity and the discrete measure-kernel
inequalities.
"""

from .convolution import (
    ConvolutionRequest,
    DiscrepancyReport,
    c_beta,
    compare,
    direct_convolution,
    factorization_smoothing,
    factorized_convolution,
    kernel_convolution,
)
from .errors import (
    ConfigError,
    DimensionMismatchError,
    PredictabilityError,
    StochConvError,
)
from .fubini import FubiniFamily, fubini_report, integrate_then_ito, ito_then_integrate
from .hilbert import (
    DenseOperator,
    HilbertSpec,
    SemigroupSpec,
    SpectralOperator,
    apply_operator,
    hs_norm,
    semigroup_eval,
)
from .ito import (
    IntegrandSpec,
    NormReport,
    PathEnsemble,
    ito_integrate,
    lr_path_norm,
    probe_predictability,
)
from .measures import (
    DiscreteFunction,
    DiscreteMeasureSpace,
    KernelSpec,
    holder_constant,
    lpq_norm,
)
from .noise import (
    NoiseEnsemble,
    QWienerSpec,
    TimeGrid,
    coarsen_increments,
    sample_increments,
)
from .norms import TwoParameterField, estimate_lpq, estimate_lpqr

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ConvolutionRequest",
    "DenseOperator",
    "DimensionMismatchError",
    "DiscreteFunction",
    "DiscreteMeasureSpace",
    "DiscrepancyReport",
    "FubiniFamily",
    "HilbertSpec",
    "IntegrandSpec",
    "KernelSpec",
    "NoiseEnsemble",
    "NormReport",
    "PathEnsemble",
    "PredictabilityError",
    "QWienerSpec",
    "SemigroupSpec",
    "SpectralOperator",
    "StochConvError",
    "TimeGrid",
    "TwoParameterField",
    "apply_operator",
    "c_beta",
    "coarsen_increments",
    "compare",
    "direct_convolution",
    "estimate_lpq",
    "estimate_lpqr",
    "factorization_smoothing",
    "factorized_convolution",
    "fubini_report",
    "holder_constant",
    "hs_norm",
    "integrate_then_ito",
    "ito_integrate",
    "ito_then_integrate",
    "kernel_convolution",
    "lpq_norm",
    "lr_path_norm",
    "probe_predictability",
    "sample_increments",
    "semigroup_eval",
]
