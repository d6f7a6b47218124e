"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with ``pytest tests/test_acceptance.py -v -s`` to see them).

Criterion 3 runs over pairs connected by elementary sequences (constructive
generators): thermo-majorized pairs outside that class exist and are
documented with explicit unreachable instances in the synthesis tests.
Criterion 13 asserts a claim that is false for three or more levels (a
touched ratio can cross an uninvolved one); it is implemented faithfully and
marked as an expected failure with the counterexample printed.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from thermo_ops import (apply_edp, apply_plt, beta_order, decompose,
                        gibbs_context_from_weights, is_detailed_balanced,
                        is_doubly_stochastic, is_gibbs_preserving,
                        j_lower_bound, j_lower_bound_with_argmax,
                        j_probabilities, j_upper_bound, jc_params, lift,
                        make_edp_step, make_plt_step, plt_max, region_sweep,
                        relax, repeated_edp_limit, simulate_mean, synthesize,
                        thermo_majorizes, thermo_majorizes_abs,
                        thermo_majorizes_curve, thermo_majorizes_embedded,
                        validate_stochastic)
from thermo_ops.birkhoff import birkhoff_von_neumann
from thermo_ops.cone import cone_vertices, hull_check
from thermo_ops.io import region_csv_text, write_text_atomic
from thermo_ops.linprog import gibbs_map_exists, in_convex_hull

from conftest import (rand_ctx, rand_edp_image, rand_plt_image, rand_pop,
                      random_edp_product, random_gibbs_preserving,
                      usable_pairs)

F = Fraction


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d} ({name}): {status}  {detail}")
    return ok


def test_criterion_01_route_agreement():
    rng = random.Random(101)
    t0 = time.time()
    for _ in range(10_000):
        ctx = rand_ctx(rng, nmax=6, dmax_total=100, distinct=False)
        p = rand_pop(rng, ctx.n)
        q = rand_pop(rng, ctx.n)
        a = thermo_majorizes_curve(p, q, ctx)
        b = thermo_majorizes_abs(p, q, ctx)
        c = thermo_majorizes_embedded(p, q, ctx)
        assert a == b == c, (p, q, ctx)
    elapsed = time.time() - t0
    assert report(1, "route agreement", elapsed < 60.0,
                  f"10000 instances in {elapsed:.1f}s")


def test_criterion_02_lp_oracle_agreement():
    rng = random.Random(202)
    agree = 0
    for _ in range(1_000):
        ctx = rand_ctx(rng, nmax=4, dmax_total=25, distinct=False)
        p = rand_pop(rng, ctx.n, denom=60)
        q = rand_pop(rng, ctx.n, denom=60)
        verdict = thermo_majorizes(p, q, ctx, route="all")
        lp = gibbs_map_exists(p, q, ctx) is not None
        assert lp == verdict, (p, q, ctx)
        agree += 1
    assert report(2, "LP oracle agreement", agree == 1000,
                  f"{agree}/1000 agree")


def test_criterion_03_synthesis():
    from thermo_ops import compose_edps_same_pair
    rng = random.Random(303)
    lengths = []
    grouped_lengths = []
    for trial in range(10_000):
        ctx = rand_ctx(rng, nmax=5, dmax_total=60)
        p = rand_pop(rng, ctx.n)
        kind = trial % 5
        if kind == 0:
            q = rand_edp_image(rng, p, ctx, rng.randint(1, 12))
        elif kind == 1:
            q = rand_plt_image(rng, p, ctx, rng.randint(1, 12))
        elif kind == 2:
            w = F(rng.randint(0, 64), 64)
            q = tuple(w * pi + (1 - w) * gi for pi, gi in zip(p, ctx.g))
        elif kind == 3:
            q = rand_edp_image(rng, p, ctx, 1)
        else:
            q = p
        seq = synthesize(p, q, ctx, group=False)
        assert len(seq.steps) <= ctx.D
        lengths.append(len(seq.steps))
        grouped = []
        x = p
        for step in seq.steps:
            m = step.as_matrix(ctx)
            assert validate_stochastic(m, 0)
            assert is_detailed_balanced(m, ctx, 0)
            x = apply_edp(step, x, ctx)
            if grouped and (grouped[-1].lo, grouped[-1].hi) == \
                    (step.lo, step.hi):
                grouped[-1] = compose_edps_same_pair(grouped[-1], step, ctx)
            else:
                grouped.append(step)
        assert x == q
        grouped_lengths.append(len(grouped))
    assert report(3, "elementary-sequence synthesis", True,
                  f"10000 exact replays, max length {max(lengths)} "
                  f"ungrouped / {max(grouped_lengths)} grouped")


def test_criterion_04_decomposition():
    rng = random.Random(404)
    for trial in range(1_000):
        if trial % 2:
            ctx = rand_ctx(rng, nmax=5, dmax_total=40, distinct=False)
            T = random_gibbs_preserving(ctx, rng, terms=rng.randint(1, 6))
        else:
            ctx = rand_ctx(rng, nmax=4, dmax_total=16)
            T = random_edp_product(ctx, rng, factors=rng.randint(1, 4))
        lifted = lift(T, ctx)
        assert is_doubly_stochastic(lifted, 0)
        terms = birkhoff_von_neumann(lifted)
        assert len(terms) <= (ctx.D - 1) ** 2 + 1
        dec = decompose(T, ctx)
        assert dec.reconstruct().cols == T.cols
        for _, tp in dec.terms:
            assert is_gibbs_preserving(tp.pulled_back, ctx, 0)
    assert report(4, "thermo-permutation decomposition", True,
                  "1000 exact round trips (mixture and product generators)")


def test_criterion_05_simulation():
    rng = random.Random(505)
    worst = 0.0
    for _ in range(20):
        ctx = rand_ctx(rng, nmax=4, dmax_total=20, distinct=False)
        T = random_gibbs_preserving(ctx, rng, terms=rng.randint(2, 6))
        dec = decompose(T, ctx)
        p = rand_pop(rng, ctx.n)
        mean, exact, sigma = simulate_mean(dec, p, samples=1_000_000,
                                           rng_seed=rng.randint(0, 2**31))
        for m, e, s in zip(mean, exact, sigma):
            dev = abs(m - e)
            assert dev <= 3 * s + 1e-12
            if s > 0:
                worst = max(worst, dev / s)
    assert report(5, "simulation corollary", True,
                  f"20 x 1e6 samples, worst deviation {worst:.2f} sigma")


def test_criterion_06_jc_detailed_balance():
    worst = 0.0
    for bb in np.linspace(0.1, 5.0, 50):
        for s in np.linspace(0.1, 10.0, 50):
            params = jc_params(float(bb), float(s), tol=1e-10)
            up, down = j_probabilities(params)
            err = abs(up / down - math.exp(-bb))
            assert err <= 2 * params.tail_bound
            worst = max(worst, err)
    assert report(6, "JC detailed balance", True,
                  f"50x50 grid, worst ratio error {worst:.2e}")


def test_criterion_07_jc_bound_continuity():
    b = math.log(4.0) / 3.0
    e = math.exp(b)
    first = (8.0 * math.exp(-b) - e**2 + e**3 + 8.0) / 16.0
    second = math.exp(-4.0 * b) - math.exp(-3.0 * b) + 1.0
    gap = abs(first - second)
    assert gap <= 1e-12
    assert abs(first - 0.9074901312368592) < 1e-12
    assert j_upper_bound(0.0) == 1.0
    assert report(7, "JC bound continuity", True,
                  f"branch gap {gap:.1e} at log(4)/3, value {first:.6f}")


def test_criterion_08_region_sweep(tmp_path):
    t0 = time.time()
    grid = np.arange(0.05, 8.0 + 1e-9, 0.05)
    rows = region_sweep(grid)
    for row in rows:
        assert row.lower <= row.upper + 1e-12
        assert row.lower >= (1 - math.exp(-row.beta_bar)) - 1e-12
    out = tmp_path / "region.csv"
    write_text_atomic(str(out), region_csv_text(rows))
    elapsed = time.time() - t0
    assert out.exists() and len(rows) == len(grid)
    assert report(8, "achievable region sweep", elapsed < 30.0,
                  f"{len(rows)} rows in {elapsed:.1f}s")


def test_criterion_09_jc_beats_plt():
    grid = np.arange(0.1, 6.4 + 1e-9, 0.05)
    margin = min(j_lower_bound(float(bb)) - plt_max(float(bb))
                 for bb in grid)
    assert margin > 0
    assert report(9, "JC beats PLT on (0.1, 6.4)", True,
                  f"{len(grid)} grid points, min margin {margin:.2e}")


def test_criterion_10_point_nine_eight():
    value, s = j_lower_bound_with_argmax(1.6)
    assert value >= 0.98
    # the hbar*omega reading of nu = 1e13 Hz at 300 K: reported, not asserted
    from thermo_ops import beta_bar_from_physical
    alt = beta_bar_from_physical(300.0, 1e13, angular=True)
    alt_val = j_lower_bound(alt)
    assert report(10, "0.98 floor at beta_bar = 1.6", True,
                  f"lower {value:.4f} at s={s:.2f}; alternate reading "
                  f"beta_bar={alt:.3f} gives {alt_val:.3f} (reported only)")


def test_criterion_11_thermalisation_dynamics(seven_ctx):
    rng = random.Random(606)
    # semigroup property of the exponential relaxation
    for _ in range(200):
        p = tuple(float(v) for v in rand_pop(rng, 3))
        t1, t2 = rng.uniform(0, 3), rng.uniform(0, 3)
        xi = rng.uniform(0.2, 2.5)
        once = relax(relax(p, t1, xi, seven_ctx), t2, xi, seven_ctx)
        joint = relax(p, t1 + t2, xi, seven_ctx)
        assert max(abs(a - b) for a, b in zip(once, joint)) <= 1e-12
    # closed form of repeated steps vs direct n-fold application
    pairs = usable_pairs(seven_ctx)
    for _ in range(30):
        lo, hi = pairs[rng.randrange(len(pairs))]
        step = make_edp_step(seven_ctx, lo, hi, F(rng.randint(1, 31), 32))
        x = rand_pop(rng, 3)
        direct = x
        for n in range(1, 51):
            direct = apply_edp(step, direct, seven_ctx)
            closed = repeated_edp_limit(step, x, n, seven_ctx)
            assert max(abs(float(a - b))
                       for a, b in zip(direct, closed)) <= 1e-12
    # geometric convergence rate recovered from a log fit
    step = make_edp_step(seven_ctx, 0, 2, F(3, 16))
    z = 1 + step.up_factor(seven_ctx)
    expected = abs(1 - float(step.p_down) * float(z))
    x = (F(9, 10), F(1, 20), F(1, 20))
    npair = x[0] + x[2]
    fixed = npair * seven_ctx.g[0] / (seven_ctx.g[0] + seven_ctx.g[2])
    ns = np.arange(1, 16)
    residuals = [abs(float(repeated_edp_limit(step, x, int(n),
                                              seven_ctx)[0] - fixed))
                 for n in ns]
    slope = np.polyfit(ns, np.log(residuals), 1)[0]
    rate = math.exp(slope)
    assert abs(rate - expected) / expected < 0.01
    assert report(11, "thermalisation dynamics", True,
                  f"semigroup 1e-12, closed form 1e-12, rate "
                  f"{rate:.6f} vs {expected:.6f}")


def _partitions(total, parts, maximum=None):
    if maximum is None:
        maximum = total
    if parts == 1:
        if total <= maximum:
            yield (total,)
        return
    for first in range(min(total - parts + 1, maximum), 0, -1):
        for rest in _partitions(total - first, parts - 1, first):
            yield (first,) + rest


def test_criterion_12_cone_oracle():
    rng = random.Random(707)
    contexts = []
    for D in range(3, 10):
        for n in range(2, min(4, D) + 1):
            for d in _partitions(D, n):
                contexts.append(gibbs_context_from_weights(
                    [F(di, D) for di in d]))
    # spread 100 source populations across the contexts, small D first
    contexts.sort(key=lambda c: (c.D, c.n))
    images_total = 0
    p_total = 0
    while p_total < 100:
        ctx = contexts[p_total % len(contexts)]
        p = rand_pop(rng, ctx.n, denom=50)
        rep = hull_check(p, ctx, check_vertices=(ctx.D <= 7),
                         exhaustive_up_to=9)
        assert rep.exhaustive and rep.ok, (ctx.d, p)
        images_total += rep.images_checked
        p_total += 1
    # membership equivalence on 1000 random targets
    checks = 0
    ctx = gibbs_context_from_weights([F(4, 9), F(3, 9), F(2, 9)])
    sources = [rand_pop(rng, 3, denom=40) for _ in range(5)]
    verts = {src: cone_vertices(src, ctx) for src in sources}
    while checks < 1000:
        src = sources[checks % len(sources)]
        q = rand_pop(rng, 3, denom=40)
        assert in_convex_hull(q, verts[src]) == \
            thermo_majorizes(src, q, ctx)
        checks += 1
    assert report(12, "cone oracle", True,
                  f"{p_total} sources over {len(contexts)} contexts "
                  f"(n <= 4, D <= 9), {images_total} images in hull; "
                  f"{checks} membership equivalences")


@pytest.mark.xfail(
    strict=True,
    reason="the asserted invariant is false for n >= 3: a partial level "
           "thermalisation moves the touched ratios toward the pair mean "
           "and can cross an uninvolved level (it holds for n = 2 and for "
           "the global exponential relaxation)")
def test_criterion_13_plt_beta_order_preservation():
    rng = random.Random(808)
    bad = None
    violations = 0
    for trial in range(10_000):
        ctx = rand_ctx(rng, nmax=5, dmax_total=40)
        p = rand_pop(rng, ctx.n)
        pairs = usable_pairs(ctx)
        lo, hi = pairs[rng.randrange(len(pairs))]
        eps = F(rng.randint(1, 63), 64)
        q = apply_plt(make_plt_step(ctx, lo, hi, eps), p, ctx)
        if beta_order(q, ctx) != beta_order(p, ctx):
            violations += 1
            if bad is None:
                bad = (ctx.d, p, (lo, hi), eps)
    report(13, "PLT beta-order preservation", violations == 0,
           f"{violations}/10000 draws change the order; first "
           f"counterexample d={bad[0]} pair={bad[2]} eps={bad[3]}"
           if bad else "no violations")
    assert violations == 0


def test_criterion_13_restricted_claims_hold():
    """The salvageable parts of criterion 13: two-level systems and the
    global relaxation never change the beta-order."""
    rng = random.Random(809)
    ctx7 = gibbs_context_from_weights([F(4, 7), F(2, 7), F(1, 7)])
    for _ in range(5_000):
        d1 = rng.randint(1, 40)
        d2 = rng.randint(1, 40)
        while d2 == d1:
            d2 = rng.randint(1, 40)
        ctx = gibbs_context_from_weights([F(d1, d1 + d2), F(d2, d1 + d2)])
        p = rand_pop(rng, 2)
        eps = F(rng.randint(1, 63), 64)
        lo, hi = (0, 1) if ctx.g[0] > ctx.g[1] else (1, 0)
        q = apply_plt(make_plt_step(ctx, lo, hi, eps), p, ctx)
        assert beta_order(q, ctx) == beta_order(p, ctx)
    for _ in range(5_000):
        p = tuple(float(v) for v in rand_pop(rng, 3))
        # keep exp(-t/xi) above float rounding so ratio gaps stay resolvable
        q = relax(p, rng.uniform(0, 6), rng.uniform(0.5, 2), ctx7)
        assert beta_order(q, ctx7) == beta_order(p, ctx7)
    assert report(13, "PLT order preservation (restricted showings)", True,
                  "10000 two-level and relaxation draws preserve the order")
