"""Moments of traces over compact simply connected semisimple Lie groups.

Three independent routes to the same numbers:

* exact character-ring evaluation (:mod:`liemoments.charring`),
* quadrature on the maximal torus (:mod:`liemoments.torusquad`),
* closed-form leading-order asymptotics (:mod:`liemoments.asymptotics`),

on top of exact root data (:mod:`liemoments.rootsys`) and weight systems
(:mod:`liemoments.repweights`), with a convergence harness and CLI
(:mod:`liemoments.harness`, :mod:`liemoments.cli`).
"""

from .asymptotics import (AsymptoticEstimate, ClassFunction, HypothesisError,
                          biane_dimension_estimate, leading_sequence,
                          leading_term_I, leading_term_K)
from .charring import (CycleType, SupportCapExceeded, adams, dual,
                       exact_moment, moment_sequence, product,
                       trivial_multiplicity)
from .harness import (ConvergenceReport, ExperimentConfig, HypothesisVerdict,
                      check_hypotheses, run_experiment)
from .repweights import (SecondMoment, WeightSystem, a_lambda, is_regular,
                         weight_system, weyl_dimension)
from .rootsys import (ConfigurationError, FundamentalGroup, RootSystem,
                      build_root_system, dominant_representative, kappa,
                      pairing)

__version__ = "0.1.0"

# Quadrature is the only layer that needs numpy, so its names are resolved
# from liemoments.torusquad on first access (PEP 562): importing the package
# and running the exact and asymptotic routes never loads numpy.
_QUADRATURE_NAMES = frozenset((
    "GridError", "TorusGrid", "character_at", "default_grid", "quad_I_N",
    "quad_K_N", "quad_sequence", "weyl_denominator_sq"))


def __getattr__(name):
    if name in _QUADRATURE_NAMES:
        from . import torusquad
        return getattr(torusquad, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _QUADRATURE_NAMES)

__all__ = [
    "AsymptoticEstimate", "ClassFunction", "ConfigurationError",
    "ConvergenceReport", "CycleType", "ExperimentConfig", "FundamentalGroup",
    "GridError", "HypothesisError", "HypothesisVerdict", "RootSystem",
    "SecondMoment", "SupportCapExceeded", "TorusGrid", "WeightSystem",
    "a_lambda", "adams", "biane_dimension_estimate", "build_root_system",
    "character_at", "check_hypotheses", "default_grid",
    "dominant_representative", "dual", "exact_moment", "is_regular",
    "kappa", "leading_sequence", "leading_term_I", "leading_term_K",
    "moment_sequence", "pairing", "product", "quad_I_N", "quad_K_N",
    "quad_sequence", "run_experiment", "trivial_multiplicity",
    "weight_system", "weyl_dimension", "weyl_denominator_sq",
]
