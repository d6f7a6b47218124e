"""Shared exact-mode instance generators for the test suite."""

import random
from fractions import Fraction

import pytest

from thermo_ops import (ConvexDecomposition, DomainError, EdpStep,
                        GibbsContext, StochasticMatrix, apply_edp,
                        gibbs_context_from_weights, make_edp_step, pull_back)

F = Fraction

pytest_plugins = ["pytester"]


def rand_ctx(rng: random.Random, nmax: int = 5, dmax_total: int = 60,
             nmin: int = 2, distinct: bool = True) -> GibbsContext:
    """Random exact context; distinct weights unless asked otherwise."""
    n = rng.randint(nmin, nmax)
    while True:
        if distinct:
            d = rng.sample(range(1, dmax_total), n)
        else:
            d = [rng.randint(1, dmax_total // n) for _ in range(n)]
        if sum(d) <= dmax_total and (not distinct or len(set(d)) == n):
            break
    D = sum(d)
    return gibbs_context_from_weights([F(di, D) for di in d])


def rand_pop(rng: random.Random, n: int, denom: int = 1000):
    w = [rng.randint(0, denom) for _ in range(n)]
    while sum(w) == 0:
        w = [rng.randint(0, denom) for _ in range(n)]
    s = sum(w)
    return tuple(F(wi, s) for wi in w)


def usable_pairs(ctx: GibbsContext):
    """(lo, hi) level pairs with distinct weights, lo the heavier one."""
    return [(i, j) for i in range(ctx.n) for j in range(ctx.n)
            if ctx.g[i] > ctx.g[j]]


def rand_edp_image(rng: random.Random, p, ctx: GibbsContext,
                   nsteps: int):
    """Apply a random elementary sequence; the result is reachable from p
    by construction."""
    pairs = usable_pairs(ctx)
    x = tuple(p)
    for _ in range(nsteps):
        lo, hi = pairs[rng.randrange(len(pairs))]
        step = make_edp_step(ctx, lo, hi, F(rng.randint(0, 64), 64))
        x = apply_edp(step, x, ctx)
    return x


def rand_plt_image(rng: random.Random, p, ctx: GibbsContext, nsteps: int):
    pairs = usable_pairs(ctx)
    x = tuple(p)
    for _ in range(nsteps):
        lo, hi = pairs[rng.randrange(len(pairs))]
        pmax = F(ctx.g[lo], ctx.g[lo] + ctx.g[hi])
        step = make_edp_step(ctx, lo, hi,
                             F(rng.randint(0, 63), 64) * pmax)
        x = apply_edp(step, x, ctx)
    return x


def random_gibbs_preserving(ctx: GibbsContext, rng: random.Random,
                            terms: int = 4) -> StochasticMatrix:
    """Convex mixture of random pullbacks; in the Gibbs-preserving set by
    construction, with exact rational entries."""
    weights = [Fraction(rng.randint(1, 20)) for _ in range(terms)]
    total = sum(weights)
    mixture = []
    for w in weights:
        perm = list(range(ctx.D))
        rng.shuffle(perm)
        mixture.append((w / total, pull_back(perm, ctx)))
    return ConvexDecomposition(tuple(mixture)).reconstruct()


def random_edp_product(ctx: GibbsContext, rng: random.Random,
                       factors: int = 3) -> StochasticMatrix:
    """Product of random elementary steps; detailed balance of each factor
    makes the product Gibbs-preserving (though not detailed balanced)."""
    n = ctx.n
    pairs = [(i, j) for i in range(n) for j in range(n)
             if i != j and not ctx.degenerate_pair(i, j)
             and ctx.g[i] > ctx.g[j]]
    if not pairs:
        raise DomainError("context has no usable level pair")
    out = StochasticMatrix.identity(n)
    for _ in range(factors):
        lo, hi = pairs[rng.randrange(len(pairs))]
        step: EdpStep = make_edp_step(ctx, lo, hi,
                                      Fraction(rng.randint(0, 32), 32))
        out = step.as_matrix(ctx).compose(out)
    return out


@pytest.fixture
def two_thirds_ctx() -> GibbsContext:
    """The workhorse two-level context with weights (2/3, 1/3)."""
    return gibbs_context_from_weights([F(2, 3), F(1, 3)])


@pytest.fixture
def seven_ctx() -> GibbsContext:
    """Three levels with weights (4/7, 2/7, 1/7)."""
    return gibbs_context_from_weights([F(4, 7), F(2, 7), F(1, 7)])
