"""Seeded corpus generators for the benchmark workloads.

Pure Python over ``fractions.Fraction``: nothing here imports thermo_ops, so
the library under test only ever sees the finished inputs.  The generators
mirror ``rand_pop``, ``rand_edp_image`` and ``rand_plt_image`` from
``tests/conftest.py`` and ``random_gibbs_preserving`` from
``thermo_ops.birkhoff``, with the same arithmetic, so that the benchmark
traffic matches the acceptance suite's.  Contexts take the distinct weights
``rand_ctx`` draws, but at slot counts D chosen along a golden-ratio
sequence (``golden_size``), so that every seed does the same amount of
work.

A corpus is a list of plain dicts (ints, Fractions, tuples and strings).
``digest`` hashes one canonically, so two runs can prove they measured the
same inputs.
"""

from __future__ import annotations

import hashlib
import math
import random
from fractions import Fraction as F

# exact-small: n varies fastest, so every five consecutive instances cover
# n = 2..6; the target kind changes every five instances and one block of
# fifty holds every (n, kind) pair, one unrelated target in ten.  The slot
# count D runs over n(n+1)/2..100 (the distinct weights rand_ctx draws)
# along a golden-ratio sequence, so every seed sees the same sizes in the
# same order and the seed draws the weights and populations.
EXACT_N = (2, 3, 4, 5, 6)
EXACT_KINDS = ("edp", "plt", "mix", "edp", "plt", "mix", "edp", "plt", "mix",
               "unrelated")
EXACT_DMAX = 100

GOLDEN = (5 ** 0.5 - 1) / 2


# ------------------------------------------------------------ contexts

def split_total(rng: random.Random, n: int, D: int):
    """Distinct positive parts of D with gcd 1, so the context built from
    the weights d_i/D has exactly D slots."""
    while True:
        cuts = sorted(rng.sample(range(1, D), n - 1))
        d = [b - a for a, b in zip([0] + cuts, cuts + [D])]
        if len(set(d)) == n and math.gcd(*d) == 1:
            return tuple(d)


def golden_size(i: int, lo: int, hi: int) -> int:
    """The i-th point of a golden-ratio sequence over lo..hi: any stretch
    of consecutive i covers the range evenly."""
    return lo + int((i * GOLDEN) % 1.0 * (hi - lo + 1))


def weights_of(d):
    D = sum(d)
    return tuple(F(di, D) for di in d)


# ------------------------------------------------------------ populations

def rand_pop(rng: random.Random, n: int, denom: int = 1000):
    w = [rng.randint(0, denom) for _ in range(n)]
    while sum(w) == 0:
        w = [rng.randint(0, denom) for _ in range(n)]
    s = sum(w)
    return tuple(F(wi, s) for wi in w)


def usable_pairs(g):
    """(lo, hi) pairs with distinct weights, lo the heavier level."""
    n = len(g)
    return [(i, j) for i in range(n) for j in range(n) if g[i] > g[j]]


def apply_step(x, g, lo, hi, p_down):
    """The elementary detailed-balanced step on (lo, hi), exact."""
    x = list(x)
    up = F(g[hi], g[lo]) * p_down
    a, b = x[lo], x[hi]
    x[lo] = (1 - up) * a + p_down * b
    x[hi] = up * a + (1 - p_down) * b
    return tuple(x)


def rand_edp_image(rng: random.Random, p, g, nsteps: int):
    pairs = usable_pairs(g)
    x = tuple(p)
    for _ in range(nsteps):
        lo, hi = pairs[rng.randrange(len(pairs))]
        x = apply_step(x, g, lo, hi, F(rng.randint(0, 64), 64))
    return x


def rand_plt_image(rng: random.Random, p, g, nsteps: int):
    pairs = usable_pairs(g)
    x = tuple(p)
    for _ in range(nsteps):
        lo, hi = pairs[rng.randrange(len(pairs))]
        pmax = F(g[lo], g[lo] + g[hi])
        x = apply_step(x, g, lo, hi, F(rng.randint(0, 63), 64) * pmax)
    return x


def gibbs_mixture(rng: random.Random, p, g):
    w = F(rng.randint(0, 64), 64)
    return tuple(w * pi + (1 - w) * gi for pi, gi in zip(p, g))


def beta_perm(x, g):
    """The library's beta-order tie rule, for choosing fixtures."""
    return sorted(range(len(x)), key=lambda i: (-(x[i] / g[i]), -x[i], i))


# ------------------------------------------------------------ matrices

def _blocks(d):
    out = []
    for i, di in enumerate(d):
        out.extend([i] * di)
    return out


def pull_back_cols(perm, d):
    """Block-count matrix of a slot permutation, column-major like
    ``StochasticMatrix.cols``."""
    blocks = _blocks(d)
    n = len(d)
    counts = [[0] * n for _ in range(n)]
    for c, r in enumerate(perm):
        counts[blocks[r]][blocks[c]] += 1
    return tuple(tuple(F(counts[i][j], d[j]) for i in range(n))
                 for j in range(n))


def random_gibbs_preserving(rng: random.Random, d, terms: int = 4):
    """Mirror of ``birkhoff.random_gibbs_preserving``."""
    weights = [F(rng.randint(1, 20)) for _ in range(terms)]
    total = sum(weights)
    n = len(d)
    cols = [[F(0)] * n for _ in range(n)]
    for w in weights:
        perm = list(range(sum(d)))
        rng.shuffle(perm)
        pb = pull_back_cols(perm, d)
        for j in range(n):
            for i in range(n):
                cols[j][i] += (w / total) * pb[j][i]
    return tuple(tuple(c) for c in cols)


# ------------------------------------------------------------ corpora

def exact_small(seed: int, count: int):
    """Acceptance-suite traffic: contexts with n = 2..6 and D <= 100, a
    source population and a target of a known kind."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        n = EXACT_N[i % len(EXACT_N)]
        kind = EXACT_KINDS[(i // len(EXACT_N)) % len(EXACT_KINDS)]
        D = golden_size(i // len(EXACT_N), n * (n + 1) // 2, EXACT_DMAX)
        g = weights_of(split_total(rng, n, D))
        p = rand_pop(rng, n)
        if kind == "edp":
            q = rand_edp_image(rng, p, g, rng.randint(1, 12))
        elif kind == "plt":
            q = rand_plt_image(rng, p, g, rng.randint(1, 12))
        elif kind == "mix":
            q = gibbs_mixture(rng, p, g)
        else:
            q = rand_pop(rng, n)
        # generated targets are majorized by construction; unrelated ones
        # get their verdict from the LP oracle when the corpus is built
        out.append({"i": i, "kind": kind, "g": g, "p": p, "q": q,
                    "majorized": None if kind == "unrelated" else True})
    return out


def digest(corpus) -> str:
    """SHA-256 over a canonical rendering of the corpus."""
    h = hashlib.sha256()
    for item in corpus:
        h.update(repr(sorted(item.items())).encode())
    return h.hexdigest()
