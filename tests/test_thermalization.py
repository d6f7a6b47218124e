import math
import random
from fractions import Fraction

import pytest

from thermo_ops import (DomainError, apply_edp, apply_plt, beta_order,
                        edp_to_plt, gibbs_context_from_weights,
                        is_markovian_edp, is_thermalisation_of,
                        make_edp_step, make_gibbs_context, make_plt_step,
                        markov_p_down_max, plt_to_edp, relax,
                        repeated_edp_limit, thermo_transposition)

from conftest import rand_ctx, rand_pop, usable_pairs

F = Fraction


class TestRelax:
    def test_zero_time(self, seven_ctx):
        p = (0.5, 0.25, 0.25)
        assert relax(p, 0.0, 2.0, seven_ctx) == p

    def test_long_time_thermalises(self, seven_ctx):
        p = (1.0, 0.0, 0.0)
        out = relax(p, 1e3, 1.0, seven_ctx)
        for a, g in zip(out, seven_ctx.g):
            assert a == pytest.approx(float(g), abs=1e-12)

    def test_half_life(self, two_thirds_ctx):
        p = (1.0, 0.0)
        out = relax(p, math.log(2), 1.0, two_thirds_ctx)
        expected = tuple(0.5 * pi + 0.5 * float(g)
                         for pi, g in zip(p, two_thirds_ctx.g))
        assert out == pytest.approx(expected, abs=1e-15)

    def test_semigroup(self, seven_ctx):
        rng = random.Random(3)
        for _ in range(50):
            p = tuple(float(v) for v in rand_pop(rng, 3))
            t1, t2 = rng.uniform(0, 4), rng.uniform(0, 4)
            xi = rng.uniform(0.2, 3)
            once = relax(relax(p, t1, xi, seven_ctx), t2, xi, seven_ctx)
            joint = relax(p, t1 + t2, xi, seven_ctx)
            for a, b in zip(once, joint):
                assert a == pytest.approx(b, abs=1e-12)

    def test_requires_positive_xi(self, seven_ctx):
        with pytest.raises(DomainError):
            relax((1.0, 0.0, 0.0), 1.0, 0.0, seven_ctx)


class TestPlt:
    def test_zero_epsilon(self, two_thirds_ctx):
        step = make_plt_step(two_thirds_ctx, 0, 1, F(0))
        x = (F(1, 4), F(3, 4))
        assert apply_plt(step, x, two_thirds_ctx) == x

    def test_full_thermalisation(self, two_thirds_ctx):
        step = make_plt_step(two_thirds_ctx, 0, 1, F(1))
        out = apply_plt(step, (F(1), F(0)), two_thirds_ctx)
        assert out == (F(2, 3), F(1, 3))

    def test_half_mix(self, two_thirds_ctx):
        step = make_plt_step(two_thirds_ctx, 0, 1, F(1, 2))
        out = apply_plt(step, (F(1), F(0)), two_thirds_ctx)
        assert out == (F(5, 6), F(1, 6))

    def test_conversion_round_trip(self, seven_ctx):
        rng = random.Random(5)
        for _ in range(50):
            lo, hi = usable_pairs(seven_ctx)[rng.randrange(3)]
            eps = F(rng.randint(0, 16), 16)
            plt = make_plt_step(seven_ctx, lo, hi, eps)
            edp = plt_to_edp(plt, seven_ctx)
            assert is_markovian_edp(edp, seven_ctx)
            back = edp_to_plt(edp, seven_ctx)
            assert back.epsilon == eps and type(back.epsilon) is Fraction
            x = rand_pop(rng, 3)
            assert apply_plt(plt, x, seven_ctx) == apply_edp(edp, x, seven_ctx)

    def test_conversion_round_trip_float_context(self):
        ctx = make_gibbs_context([0.0, 0.7, 2.5], None)
        rng = random.Random(6)
        for _ in range(50):
            lo, hi = sorted(rng.sample(range(3), 2))
            eps = rng.choice([F(rng.randint(0, 16), 16), rng.random(), 1])
            plt = make_plt_step(ctx, lo, hi, eps)
            edp = plt_to_edp(plt, ctx)
            assert type(edp.p_down) is float
            assert type(markov_p_down_max(ctx, lo, hi)) is float
            assert is_markovian_edp(edp, ctx)
            back = edp_to_plt(edp, ctx)
            assert type(back.epsilon) is float
            assert math.isclose(back.epsilon, eps, rel_tol=1e-15,
                                abs_tol=1e-300)
            x = (rng.random(), rng.random(), rng.random())
            assert all(math.isclose(a, b, rel_tol=1e-12) for a, b in zip(
                apply_plt(plt, x, ctx), apply_edp(edp, x, ctx)))

    def test_non_markovian_rejected(self, two_thirds_ctx):
        t = thermo_transposition(two_thirds_ctx, 0, 1)
        with pytest.raises(DomainError):
            edp_to_plt(t, two_thirds_ctx)


class TestLevelPairChecks:
    """Both two-level step constructors refuse a bad level pair with the
    same DomainError."""

    @pytest.mark.parametrize("lo,hi", [(0, -1), (-3, 1), (0, 5), (1, 1),
                                       (2, 0)])
    def test_same_error_as_edp(self, lo, hi, seven_ctx):
        with pytest.raises(DomainError) as edp:
            make_edp_step(seven_ctx, lo, hi, F(1, 2))
        with pytest.raises(DomainError) as plt:
            make_plt_step(seven_ctx, lo, hi, F(1, 2))
        assert str(plt.value) == str(edp.value)

    def test_degenerate_pair(self):
        ctx = gibbs_context_from_weights([F(1, 2), F(1, 4), F(1, 4)])
        for make in (make_edp_step, make_plt_step):
            with pytest.raises(DomainError, match="degenerate"):
                make(ctx, 1, 2, F(1, 2))


class TestMarkovianity:
    def test_identity_is_markovian(self, two_thirds_ctx):
        step = make_edp_step(two_thirds_ctx, 0, 1, F(0))
        assert is_markovian_edp(step, two_thirds_ctx)

    def test_transposition_is_not(self, two_thirds_ctx):
        assert not is_markovian_edp(thermo_transposition(two_thirds_ctx, 0, 1),
                                    two_thirds_ctx)

    def test_boundary_exact(self, two_thirds_ctx):
        cap = markov_p_down_max(two_thirds_ctx, 0, 1)
        assert cap == F(2, 3)
        assert is_markovian_edp(make_edp_step(two_thirds_ctx, 0, 1, cap),
                                two_thirds_ctx)
        just_above = cap + F(1, 10**9)
        assert not is_markovian_edp(
            make_edp_step(two_thirds_ctx, 0, 1, just_above), two_thirds_ctx)


class TestRepeatedEdp:
    def test_zero_iterations(self, seven_ctx):
        step = make_edp_step(seven_ctx, 0, 1, F(1, 3))
        x = (F(1, 2), F(1, 3), F(1, 6))
        assert repeated_edp_limit(step, x, 0, seven_ctx) == x

    def test_one_iteration_matches_apply(self, seven_ctx):
        rng = random.Random(8)
        for _ in range(40):
            lo, hi = usable_pairs(seven_ctx)[rng.randrange(3)]
            step = make_edp_step(seven_ctx, lo, hi, F(rng.randint(0, 8), 8))
            x = rand_pop(rng, 3)
            assert repeated_edp_limit(step, x, 1, seven_ctx) == \
                apply_edp(step, x, seven_ctx)

    def test_fixed_point_at_lambda_z_one(self, two_thirds_ctx):
        z = 1 + F(1, 2)
        step = make_edp_step(two_thirds_ctx, 0, 1, 1 / z)
        x = (F(1), F(0))
        once = repeated_edp_limit(step, x, 1, two_thirds_ctx)
        assert repeated_edp_limit(step, x, 7, two_thirds_ctx) == once
        assert once == (F(2, 3), F(1, 3))

    def test_converges_to_pair_thermal(self, seven_ctx):
        step = make_edp_step(seven_ctx, 0, 2, F(1, 5))
        x = (F(1, 2), F(1, 4), F(1, 4))
        out = repeated_edp_limit(step, x, 400, seven_ctx)
        npair = x[0] + x[2]
        share = seven_ctx.g[0] / (seven_ctx.g[0] + seven_ctx.g[2])
        assert abs(float(out[0] - npair * share)) < 1e-12

    def test_geometric_rate(self, two_thirds_ctx):
        step = make_edp_step(two_thirds_ctx, 0, 1, F(1, 4))
        z = 1 + F(1, 2)
        rate = float(1 - step.p_down * z)
        x = (F(1), F(0))
        fixed = F(2, 3)
        prev = None
        for n in (5, 6, 7, 8):
            val = float(repeated_edp_limit(step, x, n, two_thirds_ctx)[0]
                        - fixed)
            if prev is not None:
                assert val / prev == pytest.approx(rate, rel=1e-9)
            prev = val


class TestThermalisationPredicate:
    def test_self(self, seven_ctx):
        p = (F(1, 2), F(1, 3), F(1, 6))
        assert is_thermalisation_of(p, p, seven_ctx)

    def test_relaxation_snapshots(self, seven_ctx):
        rng = random.Random(12)
        for _ in range(40):
            p = tuple(float(v) for v in rand_pop(rng, 3))
            # t/xi bounded so the decay weight stays above float rounding
            q = relax(p, rng.uniform(0, 5), rng.uniform(0.5, 2), seven_ctx)
            assert is_thermalisation_of(p, q, seven_ctx)

    def test_order_flip_rejected(self, two_thirds_ctx):
        p = (F(1), F(0))
        q = (F(2, 5), F(3, 5))
        assert not is_thermalisation_of(p, q, two_thirds_ctx)

    def test_plt_sequences_majorize(self, seven_ctx):
        rng = random.Random(19)
        pairs = usable_pairs(seven_ctx)
        for _ in range(60):
            p = rand_pop(rng, 3)
            x = p
            for _ in range(rng.randint(1, 6)):
                lo, hi = pairs[rng.randrange(3)]
                eps = F(rng.randint(0, 63), 64)
                x = apply_plt(make_plt_step(seven_ctx, lo, hi, eps), x,
                              seven_ctx)
            from thermo_ops import thermo_majorizes
            assert thermo_majorizes(p, x, seven_ctx)

    def test_two_level_plt_sequences_are_thermalisations(self, two_thirds_ctx):
        # eps = 1 lands on an exact ratio tie, where the deterministic tie
        # rule may pick the other representative permutation; stay inside
        # the open interval, where the order is preserved strictly.
        rng = random.Random(19)
        for _ in range(200):
            p = rand_pop(rng, 2)
            x = p
            for _ in range(rng.randint(1, 6)):
                eps = F(rng.randint(0, 63), 64)
                x = apply_plt(make_plt_step(two_thirds_ctx, 0, 1, eps), x,
                              two_thirds_ctx)
            assert is_thermalisation_of(p, x, two_thirds_ctx)

    def test_plt_preserves_pair_and_untouched_orders(self):
        # what a partial thermalisation really preserves: the relative order
        # of the touched pair and of every untouched pair; a touched level
        # may still overtake an uninvolved one (see the inversion test).
        from thermo_ops import gibbs_context_from_weights
        rng = random.Random(29)
        ctx = gibbs_context_from_weights(
            [F(8, 15), F(4, 15), F(2, 15), F(1, 15)])
        pairs = usable_pairs(ctx)
        for _ in range(500):
            p = rand_pop(rng, 4)
            lo, hi = pairs[rng.randrange(len(pairs))]
            eps = F(rng.randint(1, 63), 64)
            q = apply_plt(make_plt_step(ctx, lo, hi, eps), p, ctx)
            rp = [p[i] / ctx.g[i] for i in range(4)]
            rq = [q[i] / ctx.g[i] for i in range(4)]
            assert (rp[lo] >= rp[hi]) == (rq[lo] >= rq[hi])
            rest = [k for k in range(4) if k not in (lo, hi)]
            for a in rest:
                for b in rest:
                    assert (rp[a] > rp[b]) == (rq[a] > rq[b])

    def test_plt_can_invert_order_against_third_level(self, seven_ctx):
        # touched ratios move toward the pair mean and may cross an
        # uninvolved level on the way: the beta-order is not invariant
        # for three or more levels.
        x = (F(2, 7), F(6, 7), F(3, 35))
        before = beta_order(x, seven_ctx).perm
        y = apply_plt(make_plt_step(seven_ctx, 0, 1, F(1)), x, seven_ctx)
        after = beta_order(y, seven_ctx).perm
        assert before.index(2) < before.index(0)
        assert after.index(0) < after.index(2)
        from thermo_ops import thermo_majorizes
        assert thermo_majorizes(x, y, seven_ctx)
        assert not is_thermalisation_of(x, y, seven_ctx)

    def test_beta_order_preserved_two_level(self, two_thirds_ctx):
        rng = random.Random(29)
        for _ in range(2000):
            p = rand_pop(rng, 2)
            eps = F(rng.randint(1, 63), 64)
            q = apply_plt(make_plt_step(two_thirds_ctx, 0, 1, eps), p,
                          two_thirds_ctx)
            assert beta_order(q, two_thirds_ctx) == \
                beta_order(p, two_thirds_ctx)

    def test_false_predicate_unreachable_by_plt(self, two_thirds_ctx):
        # beta-order flips, so no thermalisation-model run may reach q
        p = (F(1), F(0))
        q = (F(2, 5), F(3, 5))
        assert not is_thermalisation_of(p, q, two_thirds_ctx)
        rng = random.Random(31)
        for _ in range(300):
            x = p
            for _ in range(rng.randint(1, 8)):
                eps = F(rng.randint(0, 64), 64)
                x = apply_plt(make_plt_step(two_thirds_ctx, 0, 1, eps), x,
                              two_thirds_ctx)
            assert x != q
