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

import importlib

__version__ = "0.1.0"

# Each public name and the module it lives in. A name's module, or a module
# named as an attribute, is imported on first access (PEP 562), so ``import
# fracpast`` loads no submodule and a caller pays only for the modules it uses.
_HOMES = {
    "chaos": ("LogisticConfig", "bifurcation_sweep", "efcpe_vs_s", "logistic_series"),
    "coherent": ("DistortionFunction", "distortion", "omega_bounds",
                 "parallel_uniform_closed_form", "phi_alpha", "sandwich_check", "system_efcpe"),
    "distributions": ("Beta", "Degenerate", "Distribution", "Exponential", "Frechet",
                      "LogUniform", "ParetoType", "TriangularSum", "Uniform", "Weibull",
                      "affine", "independent_sum", "make", "parse_spec", "prhr"),
    "empirical": ("Sample", "confidence_interval", "convergence_study", "empirical_efcpe",
                  "exp_spacing_moments", "load_sample_csv", "unif_spacing_moments"),
    "entropy": ("EntropyResult", "classic_fractional", "dynamic_decomposition", "dynamic_efcpe",
                "efcpe", "efcpe_closed_form", "efcre", "gini", "modified_efcpe",
                "paired_phi_entropy"),
    "errors": ("DivergedError", "DomainError", "FracpastError", "MaxSubdivisionsError",
               "NonConvergentError", "UnsupportedError"),
    "fraclog": ("FracOrder", "LogMode", "discrete_frac_entropy", "frac_log", "frac_log_power",
                "gamma_fn", "log_kernel", "mlf"),
    "multivariate": ("BivariateLaw", "bivariate_efcpe", "fcpmi", "fgm_law", "independent_law",
                     "modified_bivariate_efcpe", "triangle_law"),
    "orders": ("OrderReport", "dispersive_check", "ordering_validation"),
    "quadrature": ("QuadResult",),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME) + ["__version__"]


def __getattr__(name):
    if name in _HOMES:
        return importlib.import_module(f"{__name__}.{name}")
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
