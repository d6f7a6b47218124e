"""Classical algebra of thermal stochastic processes: thermo-majorisation
decision procedures, elementary detailed-balanced sequence synthesis, the
thermal Birkhoff decomposition, thermal-cone geometry, exchange-model
achievability bounds and thermalisation dynamics."""

from .core import (ConvexDecomposition, DomainError, EdpStep, FormatError,
                   GibbsContext, Population, StochasticMatrix,
                   ThermoOpsError, ThermoPermutation, gibbs_context_from_weights,
                   is_detailed_balanced, is_gibbs_preserving, make_edp_step,
                   make_gibbs_context, thermo_transposition,
                   validate_stochastic)
from .majorization import (BetaOrder, LorenzCurve, beta_order, embed,
                           lorenz_curve, majorization_witness,
                           majorizes_classical, perpetuum_rate,
                           relative_entropy, thermo_majorizes,
                           thermo_majorizes_abs, thermo_majorizes_curve,
                           thermo_majorizes_embedded, unembed)
from .synthesis import (EdpSequence, StepRecord, SynthesisError, VerifyReport,
                        apply_edp, compose_edps_same_pair, synthesize,
                        verify_sequence)
from .birkhoff import (LiftedBistochastic, birkhoff_von_neumann, decompose,
                       is_doubly_stochastic, lift, pull_back,
                       random_edp_product, random_gibbs_preserving,
                       random_thermo_permutation, sample_process,
                       simulate_mean)
from .cone import (HullReport, ThermalCone, cone_membership, cone_vertices,
                   hull_check, hull_facets, simplex_coordinates, thermal_cone)
from .thermalization import (PltStep, apply_plt, edp_to_plt, is_markovian_edp,
                             is_thermalisation_of, make_plt_step,
                             markov_p_down_max, plt_to_edp,
                             repeated_edp_limit, relax)
from .linprog import feasible, gibbs_map_exists, in_convex_hull

__version__ = "0.1.0"

# The exchange-model names load numpy, which the exact operations never
# need, so they are imported on first use (PEP 562).
_JAYNES_CUMMINGS = frozenset((
    "JcParams", "NotAchievable", "RegionRow", "beta_bar_from_physical",
    "find_s_for_target", "j_lower_bound", "j_lower_bound_with_argmax",
    "j_probabilities", "j_upper_bound", "jc_params", "plt_max",
    "region_sweep"))


def __getattr__(name):
    if name in _JAYNES_CUMMINGS:
        from . import jaynes_cummings
        return getattr(jaynes_cummings, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _JAYNES_CUMMINGS)
