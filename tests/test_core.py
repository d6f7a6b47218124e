import dataclasses
import math
import random
import time
from fractions import Fraction

import pytest

from thermo_ops import (ConvexDecomposition, DomainError, EdpStep,
                        Population, PltStep, StochasticMatrix,
                        ThermoPermutation, apply_edp, apply_plt,
                        beta_order, cone_vertices, decompose, embed,
                        find_s_for_target, gibbs_context_from_weights,
                        hull_check, hull_facets,
                        in_convex_hull, is_detailed_balanced,
                        is_gibbs_preserving, lorenz_curve, make_edp_step,
                        make_gibbs_context, make_plt_step,
                        majorization_witness, perpetuum_rate,
                        relative_entropy, relax, repeated_edp_limit,
                        simplex_coordinates, simulate_mean, thermo_majorizes,
                        thermo_transposition, unembed, validate_stochastic)
from thermo_ops.core import MAX_FIT_TOTAL, as_values, auto_tol
from thermo_ops.io import population_to_json
from thermo_ops.linprog import gibbs_map_exists

F = Fraction


class TestMakeGibbsContext:
    def test_two_level_half_gap(self):
        ctx = make_gibbs_context([0.0, math.log(2)])
        assert ctx.d == (2, 1) and ctx.D == 3
        assert ctx.g == (F(2, 3), F(1, 3))

    def test_degenerate_levels_uniform(self):
        ctx = make_gibbs_context([0.0, 0.0])
        assert ctx.d == (1, 1) and ctx.D == 2

    def test_three_level_powers_of_two(self):
        ctx = make_gibbs_context([0.0, math.log(2), math.log(4)])
        assert ctx.d == (4, 2, 1) and ctx.D == 7

    def test_renormalisation_idempotent(self):
        ctx = make_gibbs_context([0.0, 0.7, 1.9])
        again = make_gibbs_context([-math.log(float(g)) for g in ctx.g])
        for a, b in zip(ctx.g, again.g):
            assert abs(float(a) - float(b)) < 1e-12

    def test_empty_energies_rejected(self):
        with pytest.raises(DomainError):
            make_gibbs_context([])

    def test_denominator_budget_enforced(self):
        with pytest.raises(DomainError):
            make_gibbs_context([0.0, 1.0], max_denominator=10**9)

    def test_fit_cap(self):
        with pytest.raises(DomainError, match="cap"):
            make_gibbs_context([0.0, 0.7],
                               max_denominator=MAX_FIT_TOTAL // 2 + 1)
        with pytest.raises(DomainError, match="cap"):
            make_gibbs_context([0.0] * 5, max_denominator=MAX_FIT_TOTAL // 4)

    def test_float_mode(self):
        ctx = make_gibbs_context([0.0, 0.5], max_denominator=None)
        assert not ctx.rational
        with pytest.raises(DomainError):
            ctx.require_rational()

    def test_exact_flag(self):
        assert gibbs_context_from_weights([F(1, 2), F(1, 2)]).exact
        assert not make_gibbs_context([0.0, 1.0]).exact

    def test_weights_must_sum_to_one(self):
        with pytest.raises(DomainError):
            gibbs_context_from_weights([F(1, 2), F(1, 3)])

    @pytest.mark.parametrize("energies,max_denominator", [
        ([-1e12, 0.0], 50),  # exp overflows
        ([1000.0, 1000.0], 50),  # every Boltzmann factor underflows
        ([0.0, 1e6], None),  # one float-mode weight underflows to zero
        ([10**400, 0.0], 50)])  # an integer beyond the float range
    def test_out_of_float_range(self, energies, max_denominator):
        with pytest.raises(DomainError):
            make_gibbs_context(energies, max_denominator=max_denominator)


class TestPopulation:
    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            Population((F(-1, 2), F(3, 2)))

    def test_rejects_zero_norm(self):
        with pytest.raises(DomainError):
            Population((0, 0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(DomainError):
            Population((bad, 1.0))

    def test_norm_overflow_rejected(self):
        with pytest.raises(DomainError, match="overflows"):
            Population((F(10**400), 0.5))

    def test_norm_free(self):
        assert Population((F(1, 2), F(1, 4))).norm == F(3, 4)


_CTX3 = gibbs_context_from_weights([F(1, 2), F(1, 3), F(1, 6)])

#: every library entry point that takes a raw tuple, called on it
_RAW_TUPLE_ENTRIES = {
    "as_values": as_values,
    "relative_entropy": lambda x: relative_entropy(x, _CTX3),
    "beta_order": lambda x: beta_order(x, _CTX3),
    "lorenz_curve": lambda x: lorenz_curve(x, _CTX3),
    "embed": lambda x: embed(x, _CTX3),
    "unembed": lambda x: unembed(x + (0.5, 0.5, 0.5), _CTX3),
    "population_to_json": population_to_json,
    "relax": lambda x: relax(x, 1.0, 1.0, _CTX3),
    "apply_plt": lambda x: apply_plt(make_plt_step(_CTX3, 0, 1, 0.5), x,
                                     _CTX3),
    "simplex_coordinates": lambda x: simplex_coordinates([x]),
    "hull_facets": lambda x: hull_facets([x, (1, 0, 0), (0, 1, 0)]),
    "in_convex_hull point": lambda x: in_convex_hull(x, [(1, 0, 0)]),
    "in_convex_hull generator": lambda x: in_convex_hull((1, 0, 0), [x]),
    "gibbs_map_exists p": lambda x: gibbs_map_exists(x, _CTX3.g, _CTX3),
    "gibbs_map_exists q": lambda x: gibbs_map_exists(_CTX3.g, x, _CTX3),
    "StochasticMatrix": lambda x: StochasticMatrix((x, (1, 0, 0),
                                                    (0, 1, 0))),
}

#: nine levels, one more than ``MAX_CONE_LEVELS``
_CTX9 = gibbs_context_from_weights([F(i, 45) for i in range(1, 10)])


class TestNonFiniteRawTuples:
    """A NaN or infinite float entry of a raw tuple is a DomainError at
    every entry point, as it is for a Population."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("entry", sorted(_RAW_TUPLE_ENTRIES))
    def test_rejected(self, entry, bad):
        with pytest.raises(DomainError, match="finite"):
            _RAW_TUPLE_ENTRIES[entry]((bad, 0.5, 0.5))

    @pytest.mark.parametrize("entry", sorted(_RAW_TUPLE_ENTRIES))
    def test_finite_entries_accepted(self, entry):
        _RAW_TUPLE_ENTRIES[entry]((0.5, 0.25, 0.25))


class TestRawTupleMisuse:
    """Raw tuples of the wrong shape or sign end in a DomainError, not in
    a bare Python error."""

    @pytest.mark.parametrize("call", [
        lambda: simplex_coordinates([(0, 0, 0)]),
        lambda: simplex_coordinates([(-1, 0.5, 0.5)]),
        lambda: in_convex_hull((1, 0, 0), [(1, 0)]),
        lambda: hull_facets(()),
        lambda: hull_facets([(0.5, 0.5, 0), (1, 0)]),
        lambda: hull_facets([(F(k, 7), 1 - F(k, 7), 0) for k in range(7)]),
        lambda: StochasticMatrix(((1,), (0, 1))),
        lambda: ConvexDecomposition((
            (F(1, 2), ThermoPermutation(((1, 0), (0, 1)), (1, 1))),
            (F(1, 2), ThermoPermutation(((2, 0), (0, 1)), (2, 1))))),
    ], ids=["simplex-zero-sum", "simplex-negative", "hull-dimensions",
            "facets-no-vertex", "facets-dimensions", "facets-too-many",
            "matrix-ragged", "decomposition-mixed-sizes"])
    def test_domain_error(self, call):
        with pytest.raises(DomainError):
            call()

    def test_cone_levels_refused_before_the_walk(self):
        """Nine levels are refused before the 9! orderings are walked."""
        t0 = time.perf_counter()
        with pytest.raises(DomainError, match="the cap"):
            cone_vertices((F(1),) + (F(0),) * 8, _CTX9)
        assert time.perf_counter() - t0 < 1.0


_CTX4 = gibbs_context_from_weights([F(5, 11), F(3, 11), F(2, 11), F(1, 11)])
_CTX7 = gibbs_context_from_weights([F(4, 7), F(2, 7), F(1, 7)])
_THIRDS = (F(1, 3), F(1, 3), F(1, 3))
#: step parameters outside [0, 1], which every step refuses when built
_OUT_OF_UNIT = {"nan": math.nan, "inf": math.inf, "minus-inf": -math.inf,
                "minus-tenth": F(-1, 10), "three-halves": F(3, 2)}


def _simulate(samples, seed):
    T = thermo_transposition(_CTX3, 0, 1).as_matrix(_CTX3)
    return simulate_mean(decompose(T, _CTX3), _CTX3.g, samples, seed)


def _repeat(n):
    return repeated_edp_limit(make_edp_step(_CTX3, 0, 1, F(1, 2)), _CTX3.g,
                              n, _CTX3)


class TestScalarArgumentMisuse:
    """A NaN, infinite, fractional or too small count, a NaN or infinite
    work quantum or solve tolerance, and a step parameter outside [0, 1]
    are DomainErrors, not a wrong answer or a bare Python error.  A step
    refuses its parameter where it is built, so no use of it sees one."""

    @pytest.mark.parametrize("call", [
        lambda: perpetuum_rate(_CTX3.g, _CTX3, math.nan),
        lambda: perpetuum_rate(_CTX3.g, _CTX3, math.inf),
        lambda: _repeat(math.nan),
        lambda: _repeat(2.5),
        lambda: _repeat(math.inf),
        lambda: _simulate(2.5, 1),
        lambda: _simulate(10, math.nan),
        # D = 11 takes the sampled branch, which would check no image
        lambda: hull_check((F(1), F(0), F(0), F(0)), _CTX4, samples=-1),
        lambda: hull_check((F(1), F(0), F(0), F(0)), _CTX4, samples=0),
        *(lambda v=v: EdpStep(0, 1, v) for v in _OUT_OF_UNIT.values()),
        *(lambda v=v: PltStep(0, 1, v) for v in _OUT_OF_UNIT.values()),
        lambda: dataclasses.replace(make_edp_step(_CTX7, 0, 1, F(1, 2)),
                                    p_down=2),
        # applied, these steps would give (nan, nan, 1/3), (8/9, -2/9, 1/3)
        # and (4/3, -2/3, 1/3): a NaN or negative population
        lambda: apply_edp(EdpStep(0, 1, math.nan), _THIRDS, _CTX7),
        lambda: apply_plt(PltStep(0, 1, 5), _THIRDS, _CTX7),
        lambda: repeated_edp_limit(EdpStep(0, 1, 2), _THIRDS, 3, _CTX7),
        lambda: find_s_for_target(0.3, 1.0, math.inf),
    ], ids=["rate-nan-work", "rate-infinite-work", "repeat-nan",
            "repeat-fractional", "repeat-infinite", "simulate-fractional",
            "simulate-nan-seed", "hull-negative-samples",
            "hull-zero-samples",
            *(f"edp-step-{name}" for name in _OUT_OF_UNIT),
            *(f"plt-step-{name}" for name in _OUT_OF_UNIT),
            "replace-p-down", "apply-edp-nan", "apply-plt-five",
            "repeat-p-down-two", "solve-infinite-tol"])
    def test_domain_error(self, call):
        with pytest.raises(DomainError):
            call()


class TestValidateStochastic:
    def test_identity(self):
        assert validate_stochastic(StochasticMatrix.identity(3), 0)

    def test_bad_column_sum(self):
        bad = StochasticMatrix(((F(1), F(1, 2)), (F(0), F(1, 2))))
        assert not validate_stochastic(bad, 1e-9)

    def test_nan_entry(self):
        with pytest.raises(DomainError, match="finite"):
            StochasticMatrix(((math.nan, 1.0), (0.0, 1.0)))

    def test_thermo_transposition(self, two_thirds_ctx):
        m = thermo_transposition(two_thirds_ctx, 0, 1).as_matrix(two_thirds_ctx)
        assert validate_stochastic(m, 0)
        assert m.cols == ((F(1, 2), F(1, 2)), (F(1), F(0)))


class TestGibbsPreserving:
    def test_identity(self, two_thirds_ctx):
        assert is_gibbs_preserving(StochasticMatrix.identity(2),
                                   two_thirds_ctx, 0)

    def test_every_edp_matrix(self, seven_ctx):
        rng = random.Random(5)
        for _ in range(50):
            lo, hi = random.Random(rng.random()).sample([0, 1, 2], 2)
            if seven_ctx.g[lo] < seven_ctx.g[hi]:
                lo, hi = hi, lo
            step = make_edp_step(seven_ctx, lo, hi, F(rng.randint(0, 8), 8))
            m = step.as_matrix(seven_ctx)
            assert validate_stochastic(m, 0)
            assert is_gibbs_preserving(m, seven_ctx, 0)
            assert is_detailed_balanced(m, seven_ctx, 0)

    def test_plain_swap_is_not(self, two_thirds_ctx):
        swap = StochasticMatrix(((F(0), F(1)), (F(1), F(0))))
        assert not is_gibbs_preserving(swap, two_thirds_ctx, 0)

    def test_dimension_mismatch(self, two_thirds_ctx):
        with pytest.raises(DomainError):
            is_gibbs_preserving(StochasticMatrix.identity(3),
                                two_thirds_ctx, 0)


class TestDetailedBalance:
    def test_identity(self, two_thirds_ctx):
        assert is_detailed_balanced(StochasticMatrix.identity(2),
                                    two_thirds_ctx, 0)

    def test_thermo_transposition(self, two_thirds_ctx):
        m = thermo_transposition(two_thirds_ctx, 0, 1).as_matrix(two_thirds_ctx)
        assert is_detailed_balanced(m, two_thirds_ctx, 0)

    def test_gibbs_preserving_cyclic_mixer_violates(self, seven_ctx):
        # LP-built witness: pin T[1|0] = 0.3 and force the reverse entry off
        # the detailed-balance ratio; the map still fixes the weights.
        g = seven_ctx.g
        ratio_value = F(3, 10) * g[0] / g[1]
        pinned = gibbs_map_exists(g, g, seven_ctx,
                                  pins=[((1, 0), F(3, 10)),
                                        ((0, 1), ratio_value / 2)])
        assert pinned is not None
        T = StochasticMatrix(pinned)
        assert validate_stochastic(T, 0)
        assert is_gibbs_preserving(T, seven_ctx, 0)
        assert not is_detailed_balanced(T, seven_ctx, 0)

    def test_two_level_gibbs_preserving_implies_balanced(self):
        rng = random.Random(7)
        for _ in range(1000):
            d1 = rng.randint(1, 30)
            d2 = rng.randint(1, 30)
            while d2 == d1:
                d2 = rng.randint(1, 30)
            ctx = gibbs_context_from_weights(
                [F(d1, d1 + d2), F(d2, d1 + d2)])
            g1, g2 = ctx.g
            a_max = min(F(1), g2 / g1)
            a = F(rng.randint(0, 64), 64) * a_max
            b = a * g1 / g2
            T = StochasticMatrix(((1 - a, a), (b, 1 - b)))
            assert validate_stochastic(T, 0)
            assert is_gibbs_preserving(T, ctx, 0)
            assert is_detailed_balanced(T, ctx, 0)


class TestEdpStep:
    def test_degenerate_pair_rejected(self):
        ctx = gibbs_context_from_weights([F(1, 3), F(1, 3), F(1, 3)])
        with pytest.raises(DomainError):
            make_edp_step(ctx, 0, 1, F(1, 2))

    def test_ordering_enforced(self, two_thirds_ctx):
        with pytest.raises(DomainError):
            make_edp_step(two_thirds_ctx, 1, 0, F(1, 2))

    def test_p_down_range(self, two_thirds_ctx):
        with pytest.raises(DomainError):
            make_edp_step(two_thirds_ctx, 0, 1, F(3, 2))

    def test_balance_ratio_exact(self, two_thirds_ctx):
        step = make_edp_step(two_thirds_ctx, 0, 1, F(3, 4))
        assert step.p_up(two_thirds_ctx) == F(3, 8)
        m = step.as_matrix(two_thirds_ctx)
        g = two_thirds_ctx.g
        assert m.entry(1, 0) * g[0] == m.entry(0, 1) * g[1]


class TestTolerancePolicy:
    def test_auto_tol(self):
        assert auto_tol(None, (F(1), 2)) == 0
        assert auto_tol(None, (F(1),), (0.5,)) == 1e-9
        assert auto_tol(F(1, 10), (0.5,)) == F(1, 10)

    @pytest.mark.parametrize("tol", [float("nan"), -1, F(-1, 10**12),
                                     float("inf"), float("-inf")])
    def test_bad_explicit_tol_rejected(self, tol, two_thirds_ctx):
        T = StochasticMatrix.identity(2)
        with pytest.raises(DomainError, match="tolerance"):
            auto_tol(tol, (F(1),))
        for check in (lambda: validate_stochastic(T, tol),
                      lambda: is_gibbs_preserving(T, two_thirds_ctx, tol),
                      lambda: is_detailed_balanced(T, two_thirds_ctx, tol)):
            with pytest.raises(DomainError, match="tolerance"):
                check()

    @pytest.mark.parametrize("zero", [0, F(0), 0.0])
    def test_explicit_zero_compares_at_zero_slack(self, zero,
                                                  two_thirds_ctx):
        """A zero tolerance of any type is zero slack: exact inputs give
        Fraction witnesses, and float entries 2^-40 above the source's curve
        are a violation that the default 1e-9 forgives."""
        ctx = two_thirds_ctx
        eps = F(1, 10**12)
        p, q = (F(1, 2), F(1, 2)), (F(1, 2) - eps, F(1, 2) + eps)
        witness = majorization_witness(p, q, ctx, zero)
        assert witness == (F(1, 3), F(1, 2), F(1, 2) + eps)
        assert all(type(v) is F for v in witness)
        assert not thermo_majorizes(p, q, ctx, zero, route="all")
        assert majorization_witness(p, q, ctx, F(1, 10)) is None
        e = 2.0 ** -40
        fp, fq = (0.5, 0.5), (0.5 - e, 0.5 + e)
        assert majorization_witness(fp, fq, ctx, zero) == (F(1, 3), 0.5,
                                                           0.5 + e)
        assert not thermo_majorizes(fp, fq, ctx, zero, route="all")
        assert thermo_majorizes(fp, fq, ctx, route="all")

    def test_exact_near_miss_rejected(self, two_thirds_ctx):
        """Exact inputs compare at zero tolerance: 10^-12 off is off."""
        eps = F(1, 10**12)
        short = StochasticMatrix(((F(1, 2), F(1, 2) - eps), (F(0), F(1))))
        assert not validate_stochastic(short)
        # column-stochastic, but b = 2a + eps breaks g-preservation and
        # detailed balance by eps/3
        a = F(1, 10)
        b = 2 * a + eps
        skew = StochasticMatrix(((1 - a, a), (b, 1 - b)))
        assert validate_stochastic(skew)
        assert not is_gibbs_preserving(skew, two_thirds_ctx)
        assert not is_detailed_balanced(skew, two_thirds_ctx)
        assert is_gibbs_preserving(skew, two_thirds_ctx, eps)
        assert is_detailed_balanced(skew, two_thirds_ctx, eps)

    def test_float_near_miss_keeps_the_float_tolerance(self, two_thirds_ctx):
        b = 0.2 + 1e-12
        skew = StochasticMatrix(((0.9, 0.1), (b, 1 - b)))
        assert validate_stochastic(skew)
        assert is_gibbs_preserving(skew, two_thirds_ctx)
        assert is_detailed_balanced(skew, two_thirds_ctx)


class TestThermoPermutation:
    """The constructor owns the thermo-permutation rule: an n x n table of
    nonnegative ints whose row and column sums are both the positive
    slot counts d."""

    @pytest.mark.parametrize("counts,d,match", [
        (((2, 0), (0, 0)), (2, 0), "positive integers"),
        (((1, 1), (1, 0)), (2, 1.0), "positive integers"),
        (((1, 1), (1, 0)), (2, True), "positive integers"),
        (((1, 1), (1,)), (2, 1), "2 x 2"),
        (((1, 1), (1, 0), (0, 0)), (2, 1), "2 x 2"),
        (((2, -1), (-1, 2)), (1, 1), "nonnegative integers"),
        (((1.0, 1), (1, 0)), (2, 1), "nonnegative integers"),
        (((True, False), (False, True)), (1, 1), "nonnegative integers"),
        (((0, 1), (0, 1)), (1, 1), "sum to d"),
        (((1, 1), (0, 1)), (1, 2), "sum to d"),
    ], ids=["d-zero", "d-float", "d-bool", "ragged", "not-square",
            "negative", "float-count", "bool-count", "rows-off-d",
            "columns-off-d"])
    def test_refused(self, counts, d, match):
        with pytest.raises(DomainError, match=match):
            ThermoPermutation(counts, d)


class TestConvexDecomposition:
    @staticmethod
    def terms(weights):
        ident = ThermoPermutation(((1, 0), (0, 1)), (1, 1))
        return tuple((w, ident) for w in weights)

    def test_exact_weights_must_sum_to_exactly_one(self):
        ConvexDecomposition(self.terms([F(1, 3), F(2, 3)]))
        with pytest.raises(DomainError, match="sum to one"):
            ConvexDecomposition(self.terms([F(1, 3), F(2, 3) - F(1, 10**12)]))

    def test_float_weights_keep_the_float_tolerance(self):
        ConvexDecomposition(self.terms([0.25, 0.75 - 1e-12]))
        with pytest.raises(DomainError, match="sum to one"):
            ConvexDecomposition(self.terms([0.25, 0.75 - 1e-6]))

    def test_terms_built_from_lists_share_their_d(self):
        tp = ThermoPermutation([[1, 1], [1, 0]], [2, 1])
        dec = ConvexDecomposition(((F(1, 2), tp), (F(1, 2), tp)))
        assert dec.reconstruct().cols == tp.pulled_back.cols

    @pytest.mark.parametrize("bad", [-0.5, float("nan")])
    def test_negative_or_nan_weight_rejected(self, bad):
        with pytest.raises(DomainError, match="nonnegative"):
            ConvexDecomposition(self.terms([bad, 1.0]))
