"""Groupwise treatment effect estimation via sample-splitting least squares.

Estimate average treatment effects within covariate-defined groups by
cross-fitting nuisance models (outcome mean and propensity), orthogonalizing,
and running least squares on the group-indicator design. Includes pointwise
and simultaneous (maxT) inference, data-driven group discovery with a
held-out clustering third, residual diagnostics, and a Monte-Carlo harness.
"""

from .clustering import FittedClusterer, KMeansSpec, fit_kmeans, gate_grouping
from .data import (
    CrossFitPlan,
    Dataset,
    GroupEffects,
    Grouping,
    load_csv,
    make_crossfit_plan,
    validate_dataset,
)
from .diagnostics import ResidualSeries, flag_regions, residual_series
from .dists import chisq_cdf, chisq_quantile, normal_cdf, normal_quantile
from .estimator import (
    DsslsResult,
    NuisanceFit,
    SslsConfig,
    crossfit_nuisance,
    estimate_dssls,
    estimate_ssls,
    repeated_ssls,
)
from .inference import (
    Contrast,
    GlhResult,
    InferenceReport,
    glh_test,
    maxt_critical,
    power_min_n,
    simultaneous_cis,
)
from .learners import (
    CartSpec,
    GbmSpec,
    KnownPropensity,
    LogisticSpec,
    OlsSpec,
    OracleSpec,
    RidgeSpec,
    fit_propensity,
    fit_regression,
)
from .rng import Stream

__version__ = "0.1.0"

__all__ = [
    "CartSpec",
    "Contrast",
    "CrossFitPlan",
    "Dataset",
    "DsslsResult",
    "FittedClusterer",
    "GbmSpec",
    "GlhResult",
    "GroupEffects",
    "Grouping",
    "InferenceReport",
    "KMeansSpec",
    "KnownPropensity",
    "LogisticSpec",
    "NuisanceFit",
    "OlsSpec",
    "OracleSpec",
    "ResidualSeries",
    "RidgeSpec",
    "SslsConfig",
    "Stream",
    "chisq_cdf",
    "chisq_quantile",
    "crossfit_nuisance",
    "estimate_dssls",
    "estimate_ssls",
    "fit_kmeans",
    "fit_propensity",
    "fit_regression",
    "flag_regions",
    "gate_grouping",
    "glh_test",
    "load_csv",
    "make_crossfit_plan",
    "maxt_critical",
    "normal_cdf",
    "normal_quantile",
    "power_min_n",
    "repeated_ssls",
    "residual_series",
    "simultaneous_cis",
    "validate_dataset",
]
