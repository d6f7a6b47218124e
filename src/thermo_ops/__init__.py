"""Classical algebra of thermal stochastic processes: thermo-majorisation
decision procedures, elementary detailed-balanced sequence synthesis, the
thermal Birkhoff decomposition, thermal-cone geometry, exchange-model
achievability bounds and thermalisation dynamics.

Each public name loads its module on first use (PEP 562), so ``import
thermo_ops`` loads no submodule.  The lookup is not cached: a name rebound
on its module is what the next caller gets.
"""

import importlib
import sys

__version__ = "0.1.0"

_PUBLIC = {
    "core": """ConvexDecomposition DomainError EdpStep FormatError GibbsContext
        Population StochasticMatrix ThermoOpsError ThermoPermutation
        gibbs_context_from_weights is_detailed_balanced is_gibbs_preserving
        make_edp_step make_gibbs_context thermo_transposition
        validate_stochastic""",
    "majorization": """BetaOrder LorenzCurve beta_order embed lorenz_curve
        majorization_witness majorizes_classical perpetuum_rate
        relative_entropy thermo_majorizes thermo_majorizes_abs
        thermo_majorizes_curve thermo_majorizes_embedded unembed""",
    "synthesis": """EdpSequence StepRecord SynthesisError VerifyReport
        apply_edp compose_edps_same_pair synthesize verify_sequence""",
    "birkhoff": """birkhoff_von_neumann decompose is_doubly_stochastic lift
        pull_back simulate_mean""",
    "cone": """HullReport ThermalCone cone_membership cone_vertices hull_check
        hull_facets simplex_coordinates thermal_cone""",
    "thermalization": """PltStep apply_plt edp_to_plt is_markovian_edp
        is_thermalisation_of make_plt_step markov_p_down_max plt_to_edp
        repeated_edp_limit relax""",
    "linprog": "feasible gibbs_map_exists in_convex_hull",
    "jaynes_cummings": """JcParams NotAchievable RegionRow
        beta_bar_from_physical find_s_for_target j_lower_bound
        j_lower_bound_with_argmax j_probabilities j_upper_bound jc_params
        plt_max region_sweep""",
}
_MODULE_OF = {name: f"{__name__}.{module}" for module, names in _PUBLIC.items()
              for name in names.split()}
__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(sys.modules.get(module) or importlib.import_module(module),
                   name)


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF))
