"""Thermal Birkhoff decomposition.

A Gibbs-preserving column-stochastic matrix lifts through the embedding to a
doubly stochastic matrix on D slots; Birkhoff-von Neumann factorisation of the
lift and pullback of each slot permutation express the original matrix as a
convex mixture of thermo-permutations.  The mixture drives the classical
simulation of an arbitrary thermal process by randomised elementary steps.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import (ConvexDecomposition, DomainError, EdpStep, GibbsContext,
                   Number, StochasticMatrix, ThermoPermutation, auto_tol,
                   is_gibbs_preserving, make_edp_step)

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class LiftedBistochastic:
    """D x D doubly stochastic lift; ``rows[r][c]`` indexed by slots."""

    rows: tuple[tuple[Number, ...], ...]

    @property
    def size(self) -> int:
        return len(self.rows)


def _slot_blocks(ctx: GibbsContext) -> list[int]:
    blocks = []
    for i, di in enumerate(ctx.d):
        blocks.extend([i] * di)
    return blocks


def lift(T: StochasticMatrix, ctx: GibbsContext,
         tol: Number | None = None) -> LiftedBistochastic:
    """Embed T as the slot matrix with entries T[i|j] / d_i.

    Column sums are one by stochasticity; row sums are one exactly because
    T preserves the Gibbs weights, which is checked first (within tol, which
    ``auto_tol`` resolves against T's entries).
    """
    ctx.require_rational()
    if T.n != ctx.n:
        raise DomainError("matrix and context dimensions differ")
    tol = auto_tol(tol, *T.cols)
    img = T.apply(ctx.g)
    residual = max(abs(a - b) for a, b in zip(img, ctx.g))
    if residual > tol:
        raise DomainError(
            f"matrix does not preserve the Gibbs weights (residual {residual})")
    blocks = _slot_blocks(ctx)
    D = ctx.D

    def cell(r, c):
        v = T.entry(blocks[r], blocks[c])
        di = ctx.d[blocks[r]]
        return Fraction(v, di) if isinstance(v, int) else v / di

    rows = tuple(tuple(cell(r, c) for c in range(D)) for r in range(D))
    return LiftedBistochastic(rows)


def is_doubly_stochastic(M: LiftedBistochastic,
                         tol: Number | None = None) -> bool:
    tol = auto_tol(tol, *M.rows)
    D = M.size
    for r in range(D):
        if abs(sum(M.rows[r]) - 1) > tol:
            return False
    for c in range(D):
        if any(M.rows[r][c] < -tol for r in range(D)):
            return False
        if abs(sum(M.rows[r][c] for r in range(D)) - 1) > tol:
            return False
    return True


def _perfect_matching(adj: list[list[int]], D: int) -> list[int] | None:
    """Kuhn's augmenting-path matching; adj[c] lists rows with support."""
    match_row = [-1] * D  # row -> column

    def try_col(c, seen):
        for r in adj[c]:
            if not seen[r]:
                seen[r] = True
                if match_row[r] == -1 or try_col(match_row[r], seen):
                    match_row[r] = c
                    return True
        return False

    for c in range(D):
        if not try_col(c, [False] * D):
            return None
    perm = [-1] * D
    for r, c in enumerate(match_row):
        perm[c] = r
    return perm


def birkhoff_von_neumann(M: LiftedBistochastic, tol: Number | None = None
                         ) -> list[tuple[Number, tuple[int, ...]]]:
    """Convex split into slot permutations.

    Returns (weight, perm) pairs where perm[c] is the slot receiving the
    content of slot c.  Each extraction empties at least one support cell, so
    at most (D-1)^2 + 1 terms appear.  Exact when entries are rational.
    """
    tol = auto_tol(tol, *M.rows)
    if not is_doubly_stochastic(M, tol):
        raise DomainError("matrix is not doubly stochastic within tolerance")
    D = M.size
    work = [list(row) for row in M.rows]
    out = []
    remaining = _ONE
    limit = (D - 1) ** 2 + 1
    while remaining > tol:
        adj = [[r for r in range(D) if work[r][c] > tol] for c in range(D)]
        perm = _perfect_matching(adj, D)
        if perm is None:
            raise DomainError(
                "no perfect matching on the positive support; the matrix is "
                "not doubly stochastic at this tolerance")
        weight = min(work[perm[c]][c] for c in range(D))
        for c in range(D):
            work[perm[c]][c] -= weight
        out.append((weight, tuple(perm)))
        remaining -= weight
        if len(out) > limit:
            raise DomainError("factor count exceeded the Birkhoff bound")
    return out


def pull_back(perm: Sequence[int], ctx: GibbsContext) -> ThermoPermutation:
    """Block-count matrix of a slot permutation: P[i|j] = (slots of block j
    sent into block i) / d_j.  Always Gibbs-preserving."""
    ctx.require_rational()
    blocks = _slot_blocks(ctx)
    n = ctx.n
    counts = [[0] * n for _ in range(n)]  # counts[i][j]
    for c, r in enumerate(perm):
        counts[blocks[r]][blocks[c]] += 1
    cols = tuple(
        tuple(Fraction(counts[i][j], ctx.d[j]) for i in range(n))
        for j in range(n))
    matrix = StochasticMatrix(cols)
    if not is_gibbs_preserving(matrix, ctx):
        raise DomainError("internal: pullback failed to preserve the weights")
    return ThermoPermutation(tuple(perm), matrix)


def decompose(T: StochasticMatrix, ctx: GibbsContext,
              tol: Number | None = None) -> ConvexDecomposition:
    """Lift, factor, pull back and merge identical factors; the tolerance
    is resolved once against T's entries and used by every stage."""
    tol = auto_tol(tol, *T.cols)
    lifted = lift(T, ctx, tol)
    merged: dict[tuple, tuple[Number, ThermoPermutation]] = {}
    for weight, perm in birkhoff_von_neumann(lifted, tol):
        tp = pull_back(perm, ctx)
        key = tp.pulled_back.cols
        if key in merged:
            w0, rep = merged[key]
            merged[key] = (w0 + weight, rep)
        else:
            merged[key] = (weight, tp)
    terms = tuple(sorted(((w, tp) for w, tp in merged.values()),
                         key=lambda t: (-t[0], t[1].lifted_perm)))
    return ConvexDecomposition(terms)


def sample_process(dec: ConvexDecomposition, p, rng_seed: int
                   ) -> tuple[Number, ...]:
    """One draw: pick a factor with probability lambda_k, apply it."""
    rng = random.Random(rng_seed)
    u = Fraction(rng.getrandbits(53), 2**53)
    acc = _ZERO
    for w, tp in dec.terms:
        acc += w
        if u < acc:
            return tp.apply(p)
    return dec.terms[-1][1].apply(p)


def simulate_mean(dec: ConvexDecomposition, p, samples: int, rng_seed: int):
    """Empirical mean over ``samples`` draws (multinomial counts), plus the
    exact mixture image and the per-coordinate binomial standard deviations.
    """
    if not 1 <= samples <= 2**63 - 1:  # numpy draws the counts as int64
        raise DomainError("samples must lie in [1, 2**63 - 1]")
    if rng_seed < 0:
        raise DomainError("the seed must be nonnegative")
    import numpy as np

    rng = np.random.default_rng(rng_seed)
    weights = np.array([float(w) for w, _ in dec.terms])
    weights = weights / weights.sum()
    counts = rng.multinomial(samples, weights)
    images = [tp.apply(p) for _, tp in dec.terms]
    n = len(images[0])
    mean = [sum(int(c) * float(img[i]) for c, img in zip(counts, images))
            / samples for i in range(n)]
    exact = [float(sum(w * img[i] for (w, _), img in zip(dec.terms, images)))
             for i in range(n)]
    second = [float(sum(w * img[i] ** 2
                        for (w, _), img in zip(dec.terms, images)))
              for i in range(n)]

    def variance(i):
        # zero when every term maps the coordinate alike; otherwise clamped,
        # because rounding can leave second - exact**2 just below zero
        if all(img[i] == images[0][i] for img in images):
            return 0.0
        return max(0.0, second[i] - exact[i] ** 2)

    sigma = [(variance(i) / samples) ** 0.5 for i in range(n)]
    return mean, exact, sigma


# ---------------------------------------------------------------- generators

def random_thermo_permutation(ctx: GibbsContext,
                              rng: random.Random) -> ThermoPermutation:
    perm = list(range(ctx.D))
    rng.shuffle(perm)
    return pull_back(perm, ctx)


def random_gibbs_preserving(ctx: GibbsContext, rng: random.Random,
                            terms: int = 4) -> StochasticMatrix:
    """Convex mixture of random pullbacks; in the Gibbs-preserving set by
    construction, with exact rational entries."""
    weights = [Fraction(rng.randint(1, 20)) for _ in range(terms)]
    total = sum(weights)
    n = ctx.n
    cols = [[_ZERO] * n for _ in range(n)]
    for w in weights:
        tp = random_thermo_permutation(ctx, rng)
        for j in range(n):
            for i in range(n):
                cols[j][i] += (w / total) * tp.pulled_back.cols[j][i]
    return StochasticMatrix(tuple(tuple(c) for c in cols))


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
