"""Fractional cumulative past entropy measures and their estimators.

The package is organized around a fractional order alpha in (0, 1]:

* :mod:`fracpast.fraclog` -- Mittag-Leffler function and fractional logs.
* :mod:`fracpast.quadrature` -- adaptive integration with divergence checks.
* :mod:`fracpast.distributions` -- the lifetime-distribution catalog.
* :mod:`fracpast.entropy` -- univariate cumulative measures.
* :mod:`fracpast.multivariate` -- bivariate measures and mutual information.
* :mod:`fracpast.empirical` -- sample-based estimation and inference.
* :mod:`fracpast.coherent` -- distortion calculus for system lifetimes.
* :mod:`fracpast.orders` -- dispersive-order checks and ordering validation.
* :mod:`fracpast.chaos` -- logistic-map discrimination experiments.
* :mod:`fracpast.cli` -- command-line interface.
"""

from .chaos import LogisticConfig, bifurcation_sweep, efcpe_vs_s, logistic_series
from .coherent import (
    DistortionFunction,
    distortion,
    omega_bounds,
    parallel_uniform_closed_form,
    phi_alpha,
    sandwich_check,
    system_efcpe,
)
from .distributions import (
    Beta,
    Degenerate,
    Distribution,
    Exponential,
    Frechet,
    LogUniform,
    ParetoType,
    TriangularSum,
    Uniform,
    Weibull,
    affine,
    independent_sum,
    make,
    parse_spec,
    prhr,
)
from .empirical import (
    Sample,
    confidence_interval,
    convergence_study,
    empirical_efcpe,
    exp_spacing_moments,
    load_sample_csv,
    unif_spacing_moments,
)
from .entropy import (
    EntropyResult,
    classic_fractional,
    dynamic_decomposition,
    dynamic_efcpe,
    efcpe,
    efcpe_closed_form,
    efcre,
    gini,
    modified_efcpe,
    paired_phi_entropy,
)
from .errors import (
    DivergedError,
    DomainError,
    FracpastError,
    MaxSubdivisionsError,
    NonConvergentError,
    UnsupportedError,
)
from .fraclog import (
    FracOrder,
    LogMode,
    discrete_frac_entropy,
    frac_log,
    frac_log_power,
    gamma_fn,
    log_kernel,
    mlf,
)
from .multivariate import (
    BivariateLaw,
    bivariate_efcpe,
    fcpmi,
    fgm_law,
    independent_law,
    modified_bivariate_efcpe,
    triangle_law,
)
from .orders import OrderReport, dispersive_check, ordering_validation
from .quadrature import QuadConfig, QuadResult, integrate

__version__ = "0.1.0"

__all__ = [
    "Beta",
    "BivariateLaw",
    "Degenerate",
    "DistortionFunction",
    "Distribution",
    "DivergedError",
    "DomainError",
    "EntropyResult",
    "Exponential",
    "FracOrder",
    "FracpastError",
    "Frechet",
    "LogMode",
    "LogUniform",
    "LogisticConfig",
    "MaxSubdivisionsError",
    "NonConvergentError",
    "OrderReport",
    "ParetoType",
    "QuadConfig",
    "QuadResult",
    "Sample",
    "TriangularSum",
    "Uniform",
    "UnsupportedError",
    "Weibull",
    "affine",
    "bifurcation_sweep",
    "bivariate_efcpe",
    "classic_fractional",
    "confidence_interval",
    "convergence_study",
    "discrete_frac_entropy",
    "dispersive_check",
    "distortion",
    "dynamic_decomposition",
    "dynamic_efcpe",
    "efcpe",
    "efcpe_closed_form",
    "efcpe_vs_s",
    "efcre",
    "empirical_efcpe",
    "exp_spacing_moments",
    "fcpmi",
    "fgm_law",
    "frac_log",
    "frac_log_power",
    "gamma_fn",
    "gini",
    "independent_law",
    "independent_sum",
    "integrate",
    "load_sample_csv",
    "log_kernel",
    "logistic_series",
    "make",
    "mlf",
    "modified_bivariate_efcpe",
    "modified_efcpe",
    "omega_bounds",
    "ordering_validation",
    "paired_phi_entropy",
    "parallel_uniform_closed_form",
    "parse_spec",
    "phi_alpha",
    "prhr",
    "sandwich_check",
    "system_efcpe",
    "triangle_law",
    "unif_spacing_moments",
    "__version__",
]
