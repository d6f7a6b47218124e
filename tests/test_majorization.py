import collections
import itertools
import math
import random
from fractions import Fraction

import pytest

from hypothesis import given, settings, strategies as st

from thermo_ops import (DomainError, EdpSequence, apply_edp, apply_plt,
                        beta_order, cone_vertices, embed,
                        gibbs_context_from_weights, is_thermalisation_of,
                        lorenz_curve, make_edp_step, make_gibbs_context,
                        make_plt_step, majorization_witness,
                        majorizes_classical, perpetuum_rate, relax,
                        relative_entropy, repeated_edp_limit, synthesize,
                        thermo_majorizes, thermo_majorizes_abs,
                        thermo_majorizes_curve, thermo_majorizes_embedded,
                        unembed, verify_sequence)
from thermo_ops import majorization
from thermo_ops.linprog import gibbs_map_exists
from thermo_ops.majorization import _abs_majorize, _agree, exact_lorenz

from conftest import rand_ctx, rand_pop

F = Fraction


class TestBetaOrder:
    def test_thermal_state_identity(self, two_thirds_ctx):
        assert beta_order(two_thirds_ctx.g, two_thirds_ctx).perm == (0, 1)

    def test_pure_ground(self, two_thirds_ctx):
        assert beta_order((F(1), F(0)), two_thirds_ctx).perm == (0, 1)

    def test_excited_heavy(self, two_thirds_ctx):
        assert beta_order((F(1, 5), F(4, 5)), two_thirds_ctx).perm == (1, 0)

    def test_tie_rule_prefers_larger_occupation(self):
        from thermo_ops import gibbs_context_from_weights
        ctx = gibbs_context_from_weights([F(1, 6), F(1, 3), F(1, 2)])
        # equal ratios on levels 0 and 1, the larger occupation first
        p = (F(1, 10), F(2, 10), F(7, 10))
        assert beta_order(p, ctx).perm == (2, 1, 0)


class TestLorenzCurve:
    def test_thermal_state_is_diagonal(self, two_thirds_ctx):
        lc = lorenz_curve(two_thirds_ctx.g, two_thirds_ctx)
        assert lc.points == ((0, 0), (F(2, 3), F(2, 3)), (1, 1))

    def test_pure_state_elbows(self, two_thirds_ctx):
        lc = lorenz_curve((F(1), F(0)), two_thirds_ctx)
        assert lc.points == ((0, 0), (F(2, 3), F(1)), (1, 1))

    def test_interpolation(self, two_thirds_ctx):
        lc = lorenz_curve((F(1), F(0)), two_thirds_ctx)
        assert lc.evaluate(F(1, 3)) == F(1, 2)

    def test_concave_and_norm(self):
        rng = random.Random(11)
        for _ in range(200):
            ctx = rand_ctx(rng, nmax=6, distinct=False)
            p = rand_pop(rng, ctx.n)
            lc = lorenz_curve(p, ctx)
            assert lc.norm == sum(p)
            slopes = [(y1 - y0) / (x1 - x0) for (x0, y0), (x1, y1)
                      in zip(lc.points, lc.points[1:])]
            assert all(a >= b for a, b in zip(slopes, slopes[1:]))


class TestCurveRoute:
    def test_pure_to_mixed(self, two_thirds_ctx):
        assert thermo_majorizes_curve((F(1), F(0)), (F(1, 2), F(1, 2)),
                                      two_thirds_ctx)

    def test_reverse_fails(self, two_thirds_ctx):
        assert not thermo_majorizes_curve((F(1, 2), F(1, 2)), (F(1), F(0)),
                                          two_thirds_ctx)

    def test_everything_majorizes_thermal(self):
        rng = random.Random(13)
        for _ in range(100):
            ctx = rand_ctx(rng, distinct=False)
            p = rand_pop(rng, ctx.n)
            assert thermo_majorizes_curve(p, ctx.g, ctx)

    def test_norm_mismatch(self, two_thirds_ctx):
        with pytest.raises(DomainError):
            thermo_majorizes_curve((F(1), F(0)), (F(1, 2), F(1, 4)),
                                   two_thirds_ctx)


class TestAbsRoute:
    def test_same_three_examples(self, two_thirds_ctx):
        p, q = (F(1), F(0)), (F(1, 2), F(1, 2))
        assert thermo_majorizes_abs(p, q, two_thirds_ctx)
        assert not thermo_majorizes_abs(q, p, two_thirds_ctx)
        assert thermo_majorizes_abs(q, two_thirds_ctx.g, two_thirds_ctx)

    def test_tolerance_agrees_with_the_curve_route(self, two_thirds_ctx):
        # the deviation sums count q's 7.5e-10 shortfall twice; at the curve
        # route's slack alone the routes disagreed
        e = 7.5e-10
        p, q = (0.5, 0.5), (0.5 - e, 0.5 + e)
        assert thermo_majorizes_curve(p, q, two_thirds_ctx, 1e-9)
        assert thermo_majorizes_abs(p, q, two_thirds_ctx, 1e-9)
        assert thermo_majorizes(p, q, two_thirds_ctx, 1e-9, route="all")


def abs_majorize_per_kink(r, s, d, slack):
    """Reference for ``_abs_majorize``: both deviation sums evaluated term
    by term at every kink."""
    for k in {0, *r, *s}:
        lhs = sum(dj * abs(sj - k) for dj, sj in zip(d, s))
        rhs = sum(dj * abs(rj - k) for dj, rj in zip(d, r))
        if lhs > rhs + slack:
            return False
    return True


class TestAbsSweep:
    def test_sweep_matches_per_kink_reference(self):
        """Keys drawn from a small range (duplicates, zeros, keys shared by
        r and s), from a wide one, and of either sign (so that the kink at
        zero matters too); slacks at the critical value, one below it, zero
        and random of either sign."""
        rng = random.Random(1212)
        verdicts = {True: 0, False: 0}
        for case in range(1500):
            n = rng.randint(1, 6)
            d = [rng.randint(1, 9) for _ in range(n)]
            top = (10 ** 6, 8, 8)[case % 3]
            bottom = -top if case % 3 == 2 else 0
            r = [rng.choice((0, rng.randint(bottom, top))) for _ in range(n)]
            s = [rng.choice((rng.choice(r), rng.randint(bottom, top)))
                 for _ in range(n)]
            critical = max(
                sum(dj * abs(sj - k) for dj, sj in zip(d, s))
                - sum(dj * abs(rj - k) for dj, rj in zip(d, r))
                for k in {0, *r, *s})
            for slack in {0, critical, critical - 1,
                          rng.randint(-top, top)}:
                got = _abs_majorize(sorted(zip(r, d)), sorted(zip(s, d)),
                                    slack)
                assert got == abs_majorize_per_kink(r, s, d, slack), \
                    (r, s, d, slack)
                verdicts[got] += 1
        assert sum(verdicts.values()) >= 5000
        assert min(verdicts.values()) >= 1000


class TestEmbeddedRoute:
    def test_float_context(self):
        ctx = make_gibbs_context([0.0, 1.0, 2.0], None)
        p, q = (0.4, 0.35, 0.25), (0.5, 0.3, 0.2)
        assert thermo_majorizes_embedded(p, q, ctx)
        assert thermo_majorizes(p, q, ctx, route="all")
        assert not thermo_majorizes(q, p, ctx, route="all")


class TestEmbedding:
    def test_split(self, two_thirds_ctx):
        assert embed((F(3, 5), F(2, 5)), two_thirds_ctx) == \
            (F(3, 10), F(3, 10), F(2, 5))

    def test_thermal_to_uniform(self, two_thirds_ctx):
        assert embed(two_thirds_ctx.g, two_thirds_ctx) == \
            (F(1, 3), F(1, 3), F(1, 3))

    def test_pure(self, two_thirds_ctx):
        assert embed((F(1), F(0)), two_thirds_ctx) == (F(1, 2), F(1, 2), F(0))

    def test_unembed_blocks(self, two_thirds_ctx):
        assert unembed((F(3, 10), F(3, 10), F(2, 5)), two_thirds_ctx) == \
            (F(3, 5), F(2, 5))
        assert unembed((F(1, 3), F(1, 3), F(1, 3)), two_thirds_ctx) == \
            (F(2, 3), F(1, 3))
        assert unembed((F(1, 2), F(1, 10), F(2, 5)), two_thirds_ctx) == \
            (F(3, 5), F(2, 5))

    def test_round_trip(self):
        rng = random.Random(3)
        for _ in range(100):
            ctx = rand_ctx(rng, distinct=False)
            p = rand_pop(rng, ctx.n)
            assert unembed(embed(p, ctx), ctx) == p

    def test_length_mismatch(self, two_thirds_ctx):
        with pytest.raises(DomainError):
            unembed((F(1, 2), F(1, 2)), two_thirds_ctx)


class TestClassicalMajorization:
    def test_pure_beats_uniform(self):
        assert majorizes_classical((1, 0, 0), (F(1, 3), F(1, 3), F(1, 3)))

    def test_reflexive(self):
        assert majorizes_classical((F(1, 2), F(1, 2), F(0)),
                                   (F(1, 2), F(1, 2), F(0)))

    def test_counterexample(self):
        assert not majorizes_classical(
            (F(1, 2), F(1, 2), F(0)), (F(3, 5), F(1, 5), F(1, 5)))


class TestRouteAgreementAndOrder:
    def test_routes_agree_random(self):
        rng = random.Random(99)
        for _ in range(500):
            ctx = rand_ctx(rng, nmax=6, dmax_total=40, distinct=False)
            p = rand_pop(rng, ctx.n)
            q = rand_pop(rng, ctx.n)
            a = thermo_majorizes_curve(p, q, ctx)
            b = thermo_majorizes_abs(p, q, ctx)
            c = thermo_majorizes_embedded(p, q, ctx)
            assert a == b == c

    def test_unknown_route_rejected(self, two_thirds_ctx):
        ctx = two_thirds_ctx
        with pytest.raises(DomainError, match="unknown route 'bogus'"):
            thermo_majorizes((F(1), F(0)), ctx.g, ctx, route="bogus")

    def test_reflexive_transitive(self):
        rng = random.Random(17)
        for _ in range(100):
            ctx = rand_ctx(rng, nmax=4, dmax_total=25)
            p = rand_pop(rng, ctx.n)
            assert thermo_majorizes(p, p, ctx)
        hits = 0
        while hits < 30:
            ctx = rand_ctx(rng, nmax=3, dmax_total=12)
            a = rand_pop(rng, ctx.n)
            b = rand_pop(rng, ctx.n)
            c = rand_pop(rng, ctx.n)
            if thermo_majorizes(a, b, ctx) and thermo_majorizes(b, c, ctx):
                hits += 1
                assert thermo_majorizes(a, c, ctx)

    def test_lp_oracle_agrees_spot(self):
        rng = random.Random(23)
        for _ in range(60):
            ctx = rand_ctx(rng, nmax=3, dmax_total=15, distinct=False)
            p = rand_pop(rng, ctx.n, denom=40)
            q = rand_pop(rng, ctx.n, denom=40)
            verdict = thermo_majorizes(p, q, ctx, route="all")
            assert (gibbs_map_exists(p, q, ctx) is not None) == verdict


def _evaluate_witness(p, q, ctx, t):
    """Reference witness: both curves read by LorenzCurve.evaluate at the
    sorted union of their elbows."""
    lp, lq = lorenz_curve(p, ctx), lorenz_curve(q, ctx)
    for x in sorted({x for x, _ in lp.points} | {x for x, _ in lq.points}):
        yp, yq = lp.evaluate(x), lq.evaluate(x)
        if yp < yq - t:
            return (x, yp, yq)
    return None


def _criterion_1_pairs(seed, count):
    """Criterion-1 contexts with random, majorized and reversed targets."""
    rng = random.Random(seed)
    for k in range(count):
        ctx = rand_ctx(rng, nmax=6, dmax_total=100, distinct=False)
        p = rand_pop(rng, ctx.n)
        q = rand_pop(rng, ctx.n)
        if k % 3 == 1:
            lam = F(rng.randint(0, 8), 8)
            q = tuple(lam * a + (1 - lam) * b for a, b in zip(p, ctx.g))
        elif k % 3 == 2:
            p, q = q, p
        yield ctx, p, q


def _tied_pairs(seed, count):
    """Contexts with D <= 12, equal weights allowed, and populations that
    are a few small multiples of the weights, so that ratio keys repeat
    within p, within q and at levels of different weight."""
    rng = random.Random(seed)

    def population(ctx):
        c = [0] * ctx.n
        while not any(c):
            c = [rng.randint(0, 3) for _ in range(ctx.n)]
        total = sum(ci * di for ci, di in zip(c, ctx.d))
        return tuple(F(ci * di, total) for ci, di in zip(c, ctx.d))

    for _ in range(count):
        ctx = rand_ctx(rng, nmax=5, dmax_total=12, distinct=False)
        yield ctx, population(ctx), population(ctx)


def _floats(x):
    return tuple(float(v) for v in x)


class TestIntegerKernel:
    def test_block_embedded_equals_literal_embedding(self):
        """The embedded and abs routes read the curves' beta-ordered blocks,
        whose equal keys may come in any order; both against the literal
        embedding, on the criterion-1 pairs and on pairs full of ties."""
        seen = set()
        tied = 0
        for ctx, p, q in itertools.chain(_criterion_1_pairs(31, 300),
                                         _tied_pairs(53, 300)):
            keys = {(pi / di, di) for pi, di in zip(p, ctx.d)}
            tied += len({k for k, _ in keys}) < len(keys)
            for a, b in ((p, q), (_floats(p), _floats(q))):
                verdict = thermo_majorizes_embedded(a, b, ctx)
                assert verdict == majorizes_classical(embed(a, ctx),
                                                      embed(b, ctx))
                assert thermo_majorizes_abs(a, b, ctx) == verdict
                seen.add((type(a[0]), verdict))
        assert seen == {(t, v) for t in (F, float) for v in (True, False)}
        # equal ratio keys at levels of different weight
        assert tied >= 100

    def test_values_sweep_equals_at(self):
        """``values`` reads ascending slots (0, repeats and the last slot
        among them) as ``at`` reads each, and both are the literal curve."""
        rng = random.Random(59)
        for ctx, p, _ in _criterion_1_pairs(61, 200):
            curve = exact_lorenz(p, ctx)
            points = sorted([0, ctx.D, *curve.xs[1:-1], *(
                rng.randint(0, ctx.D) for _ in range(6))])
            got = curve.values(points)
            assert got == [curve.at(x) for x in points]
            literal = lorenz_curve(p, ctx)
            unit = curve.scale * curve.lam
            assert [F(v, unit) for v in got] == [
                literal.evaluate(F(x, ctx.D)) for x in points]

    def test_witness_equals_evaluate_reference(self):
        hits = 0
        for ctx, p, q in _criterion_1_pairs(37, 300):
            witness = majorization_witness(p, q, ctx)
            assert witness == _evaluate_witness(p, q, ctx, 0)
            if witness is not None:
                hits += 1
                assert all(type(v) is F for v in witness)
        assert 0 < hits < 300

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("route", ["curve", "abs", "embedded", "all"])
    def test_non_finite_raw_tuple_rejected(self, two_thirds_ctx, bad,
                                           route):
        ctx = two_thirds_ctx
        with pytest.raises(DomainError):
            thermo_majorizes((bad, 1.0), ctx.g, ctx, route=route)
        with pytest.raises(DomainError):
            thermo_majorizes(ctx.g, (1.0, bad), ctx, route=route)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_witness_and_classical_rejected(self,
                                                       two_thirds_ctx, bad):
        ctx = two_thirds_ctx
        with pytest.raises(DomainError):
            majorization_witness((bad, 1.0), ctx.g, ctx)
        with pytest.raises(DomainError):
            majorization_witness(ctx.g, (bad, 1.0), ctx)
        with pytest.raises(DomainError):
            majorizes_classical((bad, 1.0), (0.5, 0.5))

    def test_beta_order_matches_fraction_key(self):
        for ctx, p, _ in _criterion_1_pairs(43, 200):
            float_ctx = make_gibbs_context(ctx.energies, None)
            for c, x in ((ctx, p), (ctx, _floats(p)), (float_ctx, p),
                         (float_ctx, _floats(p))):
                g = c.g
                key = sorted(range(c.n),
                             key=lambda i: (-(F(x[i]) / F(g[i])), -x[i], i))
                assert beta_order(x, c).perm == tuple(key)


def _one_pair_corpus():
    """(ctx, p, q, tol): criterion-1 and tied pairs, exact, with float
    populations, and with float populations in a float context built from
    the same energies, each with the default and an explicit tolerance."""
    for ctx, p, q in itertools.chain(_criterion_1_pairs(67, 150),
                                     _tied_pairs(71, 150)):
        float_ctx = make_gibbs_context(ctx.energies, None)
        for c, a, b, tol in ((ctx, p, q, None), (ctx, p, q, F(1, 50)),
                             (ctx, _floats(p), _floats(q), None),
                             (ctx, _floats(p), _floats(q), 1e-3),
                             (float_ctx, _floats(p), _floats(q), None),
                             (float_ctx, _floats(p), _floats(q), 1e-3)):
            yield c, a, b, tol


class TestOnePairCalls:
    """``thermo_majorizes(route="all")`` and ``is_thermalisation_of`` each
    decide on one pair of curves, and answer as the public calls they
    replace."""

    def test_all_routes_equal_the_three_public_routes(self):
        seen = collections.Counter()
        for ctx, p, q, tol in _one_pair_corpus():
            verdict = thermo_majorizes(p, q, ctx, tol, route="all")
            assert verdict is _agree((
                thermo_majorizes_curve(p, q, ctx, tol),
                thermo_majorizes_abs(p, q, ctx, tol),
                thermo_majorizes_embedded(p, q, ctx, tol)))
            seen[ctx.rational, type(p[0]), tol is None, verdict] += 1
        # every corpus, tolerance and verdict
        assert len(seen) == 12 and min(seen.values()) >= 20

    def test_thermalisation_equals_majorisation_and_orders(self):
        seen = collections.Counter()
        for ctx, p, q, tol in _one_pair_corpus():
            got = is_thermalisation_of(p, q, ctx, tol)
            assert got is (thermo_majorizes(p, q, ctx, tol)
                           and beta_order(p, ctx) == beta_order(q, ctx))
            seen[ctx.rational, type(p[0]), got] += 1
        assert len(seen) == 6 and min(seen.values()) >= 20

    def test_orders_read_from_tied_pairs(self):
        """Pairs whose ratio keys tie within p or q, where the common scale
        of the pair must order the levels as each population's own."""
        tied = 0
        for ctx, p, q in _tied_pairs(73, 300):
            if len({pi / di for pi, di in zip(p, ctx.d)}) < ctx.n:
                tied += 1
            got = is_thermalisation_of(p, q, ctx)
            assert got is (thermo_majorizes(p, q, ctx)
                           and beta_order(p, ctx) == beta_order(q, ctx))
        assert tied >= 100

    def test_normalisation_message(self, two_thirds_ctx):
        ctx = two_thirds_ctx
        p, q = (F(1, 2), F(1, 2)), (F(1, 2), F(1, 4))
        for call in (lambda: thermo_majorizes(p, q, ctx, route="all"),
                     lambda: thermo_majorizes_curve(p, q, ctx),
                     lambda: is_thermalisation_of(p, q, ctx)):
            with pytest.raises(DomainError) as info:
                call()
            assert str(info.value) == "normalisations differ: 1 vs 3/4"

    def test_disagreeing_routes_message(self, two_thirds_ctx, monkeypatch):
        ctx = two_thirds_ctx
        real = majorization._blocks_majorize
        monkeypatch.setattr(majorization, "_blocks_majorize",
                            lambda *args: not real(*args))
        with pytest.raises(DomainError) as info:
            thermo_majorizes((F(1), F(0)), ctx.g, ctx, route="all")
        assert str(info.value) == "majorisation routes disagree"
        # each public route still answers alone
        assert not thermo_majorizes_embedded((F(1), F(0)), ctx.g, ctx)
        assert thermo_majorizes_curve((F(1), F(0)), ctx.g, ctx)


@st.composite
def _float_instances(draw):
    """Float populations in a rational context (D <= 1600) or a float one,
    n <= 8: random pairs, and mixtures of p with the thermal state in
    either direction; the tolerance is the default or an explicit one."""
    n = draw(st.integers(2, 8))
    if draw(st.booleans()):
        d = draw(st.lists(st.integers(1, 200), min_size=n, max_size=n))
        ctx = gibbs_context_from_weights([F(di, sum(d)) for di in d])
    else:
        ctx = make_gibbs_context(
            draw(st.lists(st.floats(0, 6), min_size=n, max_size=n)), None)
    weights = st.lists(st.floats(0, 1), min_size=n,
                       max_size=n).filter(lambda w: sum(w) > 0)

    def population():
        w = draw(weights)
        return tuple(v / sum(w) for v in w)

    p = population()
    kind = draw(st.sampled_from(["random", "mixture", "reversed"]))
    if kind == "random":
        q = population()
    else:
        lam = draw(st.floats(0, 1))
        q = tuple(lam * a + (1 - lam) * float(b) for a, b in zip(p, ctx.g))
        if kind == "reversed":
            p, q = q, p
    return ctx, p, q, draw(st.sampled_from([None, 1e-6]))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_float_instances())
def test_float_inputs_match_the_float_reference(instance):
    """The integer kernel on float inputs against the float evaluation of
    both curves: the same verdict wherever no elbow's margin lies within
    1e-12 of the tolerance boundary, and the same witness to 4 ulp."""
    ctx, p, q, tol = instance
    t = 1e-9 if tol is None else tol
    lp, lq = lorenz_curve(p, ctx), lorenz_curve(q, ctx)
    elbows = {x for x, _ in lp.points} | {x for x, _ in lq.points}
    if any(abs(lp.evaluate(x) - lq.evaluate(x) + t) <= 1e-12
           for x in elbows):
        return
    reference = _evaluate_witness(p, q, ctx, t)
    witness = majorization_witness(p, q, ctx, tol)
    assert thermo_majorizes_curve(p, q, ctx, tol) == (reference is None)
    assert (witness is None) == (reference is None)
    if witness is not None:
        assert type(witness[0]) is (F if ctx.rational else float)
        assert all(type(v) is float for v in witness[1:])
        for a, b in zip(witness, reference):
            assert abs(a - b) <= 4 * math.ulp(float(max(abs(a), abs(b))))


class TestEntropyAndRate:
    def test_zero_at_thermal(self, two_thirds_ctx):
        assert relative_entropy(two_thirds_ctx.g, two_thirds_ctx) == 0.0

    def test_pure_state(self, two_thirds_ctx):
        val = relative_entropy((F(1), F(0)), two_thirds_ctx)
        assert abs(val - math.log(1.5)) < 1e-12

    def test_even_mixture(self, two_thirds_ctx):
        val = relative_entropy((F(1, 2), F(1, 2)), two_thirds_ctx)
        expected = 0.5 * math.log(3 / 4) + 0.5 * math.log(3 / 2)
        assert abs(val - expected) < 1e-12

    def test_exact_norm_has_no_slack(self, two_thirds_ctx):
        short = (F(1, 2), F(1, 2) - F(1, 10**12))
        with pytest.raises(DomainError, match="normalised"):
            relative_entropy(short, two_thirds_ctx)
        assert relative_entropy((0.5, 0.5 - 1e-12), two_thirds_ctx) > 0

    def test_float_norm_floor_at_zero_tol(self):
        # the entries sum to 1 - 2^-53 in floats; thermo_majorizes accepts
        # the same vector at tol=0, as the float floor of norm_tol allows
        ctx = gibbs_context_from_weights([F(1, 2), F(1, 3), F(1, 6)])
        x = (0.3, 0.6, 0.09999999999999998)
        assert sum(x) != 1
        assert thermo_majorizes(x, x, ctx, tol=0)
        assert relative_entropy(x, ctx, tol=0) > 0

    def test_dimension_mismatch(self):
        from thermo_ops import gibbs_context_from_weights
        ctx = gibbs_context_from_weights([F(1, 2), F(1, 3), F(1, 6)])
        with pytest.raises(DomainError, match="dimensions"):
            relative_entropy((0.5, 0.5), ctx)

    def test_rate(self, two_thirds_ctx):
        assert perpetuum_rate(two_thirds_ctx.g, two_thirds_ctx, 2.0) == 0.0
        r1 = perpetuum_rate((F(1), F(0)), two_thirds_ctx, 1.0)
        assert abs(r1 - math.log(1.5)) < 1e-12
        r2 = perpetuum_rate((F(1), F(0)), two_thirds_ctx, 2.0)
        assert abs(r1 - 2 * r2) < 1e-12

    def test_rate_needs_positive_work(self, two_thirds_ctx):
        with pytest.raises(DomainError):
            perpetuum_rate(two_thirds_ctx.g, two_thirds_ctx, 0.0)


_CTX3 = gibbs_context_from_weights([F(1, 2), F(1, 3), F(1, 6)])
_STEP3 = make_edp_step(_CTX3, 0, 1, F(1, 2))
_NO_STEPS = EdpSequence((), (), (0, 1, 2), (0, 1, 2))


@pytest.mark.parametrize("call", [
    synthesize, thermo_majorizes, majorization_witness, is_thermalisation_of,
    lambda p, q, ctx: cone_vertices(p, ctx),
    lambda p, q, ctx: apply_edp(_STEP3, p, ctx),
    lambda p, q, ctx: apply_plt(make_plt_step(ctx, 0, 1, F(1, 2)), p, ctx),
    lambda p, q, ctx: repeated_edp_limit(_STEP3, p, 3, ctx),
    lambda p, q, ctx: verify_sequence(_NO_STEPS, q, p, ctx),
    lambda p, q, ctx: verify_sequence(_NO_STEPS, p, p, ctx),
    lambda p, q, ctx: relax(p, 1.0, 1.0, ctx),
    lambda p, q, ctx: embed(p, ctx),
    lambda p, q, ctx: relative_entropy(p, ctx),
    gibbs_map_exists,
], ids=["synthesize", "thermo_majorizes", "majorization_witness",
        "is_thermalisation_of", "cone_vertices", "apply_edp", "apply_plt",
        "repeated_edp_limit", "verify_sequence-q", "verify_sequence-p-q",
        "relax", "embed", "relative_entropy", "gibbs_map_exists"])
def test_short_population_is_a_dimension_error(call):
    """A population p one level short or one level long is the same
    DomainError at every entry point."""
    q = (F(1, 3), F(1, 3), F(1, 3))
    for p in ((F(1, 2), F(1, 2)), (F(1, 4),) * 4):
        with pytest.raises(DomainError,
                           match="^population and context dimensions differ$"):
            call(p, q, _CTX3)
