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

from collections import deque
from fractions import Fraction
from typing import Sequence

from .core import (ConvexDecomposition, DomainError, GibbsContext, Number,
                   StochasticMatrix, ThermoPermutation, auto_tol,
                   is_gibbs_preserving, validate_stochastic)


def _slot_blocks(ctx: GibbsContext) -> list[int]:
    blocks = []
    for i, di in enumerate(ctx.d):
        blocks.extend([i] * di)
    return blocks


def lift(T: StochasticMatrix, ctx: GibbsContext,
         tol: Number | None = None) -> StochasticMatrix:
    """Embed T as the D x D slot matrix with entries T[block(r)|block(c)] /
    d_block(r), column-major like every matrix of the library.

    Column sums are one by stochasticity; row sums are one exactly because
    T preserves the Gibbs weights, which ``is_gibbs_preserving`` checks
    first (within tol, resolved by ``auto_tol``).
    """
    ctx.require_rational()
    if not is_gibbs_preserving(T, ctx, tol):
        raise DomainError("matrix does not preserve the Gibbs weights "
                          "within tolerance")
    blocks = _slot_blocks(ctx)
    D = ctx.D

    def cell(r, c):
        v = T.entry(blocks[r], blocks[c])
        di = ctx.d[blocks[r]]
        return Fraction(v, di) if isinstance(v, int) else v / di

    return StochasticMatrix(tuple(tuple(cell(r, c) for r in range(D))
                                  for c in range(D)))


def is_doubly_stochastic(M: StochasticMatrix,
                         tol: Number | None = None) -> bool:
    """``validate_stochastic`` and every row sums to one within tol."""
    tol = auto_tol(tol, *M.cols)
    return validate_stochastic(M, tol) and all(
        abs(sum(row) - 1) <= tol for row in zip(*M.cols))


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


def birkhoff_von_neumann(M: StochasticMatrix, tol: Number | None = None
                         ) -> list[tuple[Number, tuple[int, ...]]]:
    """Convex split into slot permutations.

    Returns (weight, perm) pairs where perm[c] is the slot receiving the
    content of slot c: the split of the lift with all-ones margins, so at
    most (D-1)^2 + 1 terms appear.  Exact when entries are rational.
    """
    tol = auto_tol(tol, *M.cols)
    if not is_doubly_stochastic(M, tol):
        raise DomainError("matrix is not doubly stochastic within tolerance")
    return [(w, tuple(r for _, r in sorted((c, r) for r, c in X)))
            for w, X in _split(list(zip(*M.cols)), [1] * M.n, tol)]


def pull_back(perm: Sequence[int], ctx: GibbsContext) -> ThermoPermutation:
    """Block-count table of a slot permutation: the slots of block j sent
    into block i, counted in ``counts[j][i]``."""
    ctx.require_rational()
    if sorted(perm) != list(range(ctx.D)):
        raise DomainError("perm must be a permutation of the D slots")
    blocks = _slot_blocks(ctx)
    counts = [[0] * ctx.n for _ in range(ctx.n)]
    for c, r in enumerate(perm):
        counts[blocks[c]][blocks[r]] += 1
    return ThermoPermutation(tuple(map(tuple, counts)), ctx.d)


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
        (w, ThermoPermutation(tuple(tuple(X.get((i, j), 0) for i in range(n))
                                    for j in range(n)), d))
        for w, X in _split(table, d, tol)))


def simulate_mean(dec: ConvexDecomposition, p, samples: int, rng_seed: int):
    """Empirical mean over ``samples`` draws (multinomial counts), plus the
    exact mixture image and the per-coordinate binomial standard deviations.
    """
    # numpy draws the counts as int64
    if not isinstance(samples, int) or not 1 <= samples <= 2**63 - 1:
        raise DomainError("samples must be an integer in [1, 2**63 - 1]")
    if not isinstance(rng_seed, int) or rng_seed < 0:
        raise DomainError("the seed must be a nonnegative integer")
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
