"""Thermal Birkhoff decomposition.

Every Gibbs-preserving column-stochastic matrix T is a convex mixture of
thermo-permutations, the pullbacks of slot permutations through the
embedding.  A thermo-permutation is fully described by its block-count
table (slots of block j sent into block i), an integer n x n table whose
row and column sums are both the slot counts d.  ``T diag(d)`` has those
sums too, so ``decompose`` splits it greedily into such tables without
touching a slot.  The slot lift, its Birkhoff-von Neumann factorisation and
the pullback stay as the oracle the acceptance suite checks it against.
The mixture drives the classical simulation of an arbitrary thermal process
by randomised elementary steps.
"""

from __future__ import annotations

import random
from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import (ConvexDecomposition, DomainError, EdpStep, GibbsContext,
                   Number, StochasticMatrix, ThermoPermutation, auto_tol,
                   is_gibbs_preserving, make_edp_step, validate_stochastic)

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


def _complete(X: dict, support: list[list[bool]], d: Sequence[int]) -> None:
    """Augment the partial integer table X ({(i, j): count > 0}, margins at
    most d, cells on the support) until every row and column sums to d, by
    BFS augmenting paths on the network source -> rows -> columns -> sink."""
    n = len(d)
    row_left, col_left = list(d), list(d)
    for (i, j), v in X.items():
        row_left[i] -= v
        col_left[j] -= v
    while any(row_left):
        # via_col[i]: the column row i was reached from (-1: the source);
        # via_row[j]: the row column j was reached from
        via_col = [-1 if left else None for left in row_left]
        via_row = [None] * n
        queue = deque(i for i in range(n) if row_left[i])
        end = None
        while queue and end is None:
            i = queue.popleft()
            for j in range(n):
                if support[i][j] and via_row[j] is None:
                    via_row[j] = i
                    if col_left[j]:
                        end = j
                        break
                    for k in range(n):
                        if via_col[k] is None and (k, j) in X:
                            via_col[k] = j
                            queue.append(k)
        if end is None:
            raise DomainError(
                "no integer table with the margins on the positive support; "
                "the matrix is off its margins at this tolerance")
        fwd, back, j = [], [], end  # cells the path fills and drains
        while j != -1:
            i = via_row[j]
            fwd.append((i, j))
            j = via_col[i]
            if j != -1:
                back.append((i, j))
        push = min(col_left[end], row_left[i], *(X[c] for c in back))
        col_left[end] -= push
        row_left[i] -= push
        for c in fwd:
            X[c] = X.get(c, 0) + push
        for c in back:
            X[c] -= push
            if not X[c]:
                del X[c]


def _split(F: Sequence[Sequence[Number]], d: Sequence[int], tol: Number
           ) -> list[tuple[Number, dict]]:
    """Greedy split of a nonnegative n x n table F whose row and column sums
    are both d into (weight, X) pairs, X an integer table {(i, j): count}
    with those sums, the weights summing to one (exactly, for int and
    Fraction entries: ints become Fractions, so no division rounds).

    Each step completes an integer table on the remainder's support (one
    exists: the transportation constraints are totally unimodular),
    subtracts the largest multiple that keeps the remainder nonnegative and
    sets the cell that fixed it to zero, so the remainder's face loses a
    dimension and at most (n-1)^2 + 1 terms appear.  The next table starts
    from this one minus its emptied cells, the only cells that can leave
    the support.
    """
    n = len(d)
    R = [[Fraction(v) if isinstance(v, int) else v for v in row] for row in F]
    support = [[v > tol for v in row] for row in R]
    X: dict = {}
    out = []
    remaining = 1
    while remaining > tol:
        _complete(X, support, d)
        weight, i0, j0 = min((R[i][j] / v, i, j) for (i, j), v in X.items())
        out.append((weight, dict(X)))
        if len(out) > (n - 1) ** 2 + 1:
            raise DomainError("factor count exceeded the Birkhoff bound")
        remaining -= weight
        for (i, j), v in list(X.items()):
            R[i][j] = 0 if (i, j) == (i0, j0) else R[i][j] - weight * v
            if R[i][j] <= tol:
                support[i][j] = False
                del X[i, j]
    return out


def birkhoff_von_neumann(M: LiftedBistochastic, tol: Number | None = None
                         ) -> list[tuple[Number, tuple[int, ...]]]:
    """Convex split into slot permutations.

    Returns (weight, perm) pairs where perm[c] is the slot receiving the
    content of slot c: the split of the lift with all-ones margins, so at
    most (D-1)^2 + 1 terms appear.  Exact when entries are rational.
    """
    tol = auto_tol(tol, *M.rows)
    if not is_doubly_stochastic(M, tol):
        raise DomainError("matrix is not doubly stochastic within tolerance")
    return [(w, tuple(r for _, r in sorted((c, r) for r, c in X)))
            for w, X in _split(M.rows, [1] * M.size, tol)]


def pull_back(perm: Sequence[int], ctx: GibbsContext) -> ThermoPermutation:
    """Block-count matrix of a slot permutation: P[i|j] = (slots of block j
    sent into block i) / d_j.  Always Gibbs-preserving."""
    ctx.require_rational()
    if sorted(perm) != list(range(ctx.D)):
        raise DomainError("perm must be a permutation of the D slots")
    blocks = _slot_blocks(ctx)
    return ThermoPermutation.from_counts(
        Counter((blocks[r], blocks[c]) for c, r in enumerate(perm)), ctx.d)


def decompose(T: StochasticMatrix, ctx: GibbsContext,
              tol: Number | None = None) -> ConvexDecomposition:
    """Split ``T diag(d)``, whose row and column sums are both d, into
    block-count tables: at most (n-1)^2 + 1 thermo-permutations, none
    repeated.  The tolerance is resolved once against T's entries."""
    tol = auto_tol(tol, *T.cols)
    ctx.require_rational()
    if not (is_gibbs_preserving(T, ctx, tol) and validate_stochastic(T, tol)):
        raise DomainError("matrix is not a Gibbs-preserving stochastic "
                          "matrix within tolerance")
    d, n = ctx.d, ctx.n
    table = [[T.cols[j][i] * d[j] for j in range(n)] for i in range(n)]
    return ConvexDecomposition(tuple(
        (w, ThermoPermutation.from_counts(X, d))
        for w, X in _split(table, d, tol)))


def sample_process(dec: ConvexDecomposition, p, rng_seed: int
                   ) -> tuple[Number, ...]:
    """One draw: pick a factor with probability lambda_k, apply it."""
    rng = random.Random(rng_seed)
    u = Fraction(rng.getrandbits(53), 2**53)
    acc = 0
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
    return ConvexDecomposition(tuple(
        (w / total, random_thermo_permutation(ctx, rng))
        for w in weights)).reconstruct()


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
