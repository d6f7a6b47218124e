"""Domain types shared by every other module: Gibbs contexts with a dual
exact-rational / float representation, populations, column-stochastic
matrices, elementary detailed-balanced steps and their validation predicates.

Conventions: level energies are stored pre-multiplied by beta as dimensionless
numbers, and stochastic matrices are column-stochastic with ``T[i|j]`` the
probability of the jump ``j -> i``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

Number = Union[int, float, Fraction]

#: widest denominator D we allow for the common-denominator weight form
MAX_WEIGHT_DENOMINATOR = 10**9
#: largest total the fit in ``make_gibbs_context`` scans up to; each total
#: costs a few microseconds, so 10^6 of them take seconds
MAX_FIT_TOTAL = 10**6
#: most levels a context may have: majorisation works over lcm(d), which
#: in float mode grows by about 44 bits a level (1000 levels: 0.33 s)
MAX_LEVELS = 1000
#: comparison tolerance of float inputs; exact inputs compare at zero
FLOAT_TOL = 1e-9


class ThermoOpsError(Exception):
    """Base class for all library errors."""


class DomainError(ThermoOpsError):
    """Violated mathematical precondition (CLI exit status 1)."""


class FormatError(ThermoOpsError):
    """Malformed input file or schema mismatch (CLI exit status 2)."""


@dataclass(frozen=True)
class GibbsContext:
    """Thermal weights of an n-level system.

    ``energies[i]`` is the dimensionless gap beta*hbar*omega_i.  When ``d`` is
    present the working weights are exactly ``g[i] = d[i]/D`` and every
    predicate in the library can be evaluated without floating error; ``exact``
    records whether the rational form was given directly rather than fitted.
    """

    energies: tuple[float, ...]
    g: tuple[Number, ...]
    d: tuple[int, ...] | None
    D: int | None
    exact: bool = False

    @property
    def n(self) -> int:
        return len(self.g)

    @property
    def rational(self) -> bool:
        return self.d is not None

    def require_rational(self) -> None:
        if not self.rational:
            raise DomainError("operation requires a rational-mode context")

    def degenerate_pair(self, i: int, j: int) -> bool:
        """Levels indistinguishable for detailed-balance purposes."""
        if self.rational:
            return self.g[i] == self.g[j]
        return self.energies[i] == self.energies[j]


def _check_level_count(n: int) -> None:
    if n > MAX_LEVELS:
        raise DomainError(f"{n} levels are above the cap of {MAX_LEVELS}")


def _float_weights(energies: Sequence[float]) -> list[float]:
    try:
        boltzmann = [math.exp(-e) for e in energies]
    except OverflowError:
        boltzmann = [math.inf]
    z = sum(boltzmann)
    if not 0 < z < math.inf:
        raise DomainError("energies are out of float range; shift them so "
                          "the lowest is near zero")
    return [b / z for b in boltzmann]


def make_gibbs_context(energies: Sequence[float],
                       max_denominator: int | None = 1000) -> GibbsContext:
    """Build a context from dimensionless energies.

    The common-denominator fit scans every total ``D <= n * max_denominator``
    and keeps the one minimising the worst per-level error, so small exact
    cases such as weights (2/3, 1/3) are recovered with D = 3.  A fit whose
    largest total ``n * max_denominator`` exceeds ``MAX_FIT_TOTAL`` is a
    DomainError before the scan starts; ``gibbs_context_from_weights`` takes
    exact weights up to ``MAX_WEIGHT_DENOMINATOR`` instead.  Passing
    ``max_denominator=None`` skips the rational form entirely (float mode).
    More than ``MAX_LEVELS`` energies are a DomainError.
    """
    try:
        energies = tuple(float(e) for e in energies)
    except OverflowError:  # an integer beyond the float range
        raise DomainError("energies must be finite") from None
    if not energies:
        raise DomainError("at least one energy level is required")
    _check_level_count(len(energies))
    if any(not math.isfinite(e) for e in energies):
        raise DomainError("energies must be finite")
    gf = _float_weights(energies)
    if max_denominator is None:
        if 0 in gf:
            raise DomainError("a Gibbs weight underflows to zero in float "
                              "mode; the energies span too wide a range")
        return GibbsContext(energies, tuple(gf), None, None, exact=False)
    if max_denominator < 1:
        raise DomainError("max_denominator must be >= 1")
    n = len(energies)
    if n * max_denominator > MAX_FIT_TOTAL:
        raise DomainError(
            f"fit would scan totals up to {n * max_denominator}, above the "
            f"cap of {MAX_FIT_TOTAL}; lower max_denominator or give exact "
            "weights")
    best: tuple[float, int, list[int]] | None = None
    for total in range(n, n * max_denominator + 1):
        d = [max(1, round(gi * total)) for gi in gf]
        s = sum(d)
        err = max(abs(gi - di / s) for gi, di in zip(gf, d))
        if best is None or err < best[0] - 1e-18:
            best = (err, s, d)
            if err == 0.0:
                break
    _, D, d = best
    g = tuple(Fraction(di, D) for di in d)
    return GibbsContext(energies, g, tuple(d), D, exact=False)


def gibbs_context_from_weights(weights: Sequence[Number]) -> GibbsContext:
    """Exact-mode context from rational weights summing to one; more than
    ``MAX_LEVELS`` of them are a DomainError."""
    w = [Fraction(v) for v in weights]
    if not w:
        raise DomainError("at least one weight is required")
    _check_level_count(len(w))
    if any(v <= 0 for v in w):
        raise DomainError("weights must be positive")
    if sum(w) != 1:
        raise DomainError("weights must sum to one exactly")
    D = math.lcm(*(v.denominator for v in w))
    if D > MAX_WEIGHT_DENOMINATOR:
        raise DomainError(
            f"common denominator {D} exceeds configured width "
            f"{MAX_WEIGHT_DENOMINATOR}")
    d = tuple(int(v * D) for v in w)
    energies = tuple(-math.log(float(v)) for v in w)
    return GibbsContext(energies, tuple(w), d, D, exact=True)


@dataclass(frozen=True)
class Population:
    """Nonnegative level occupations; the normalisation may differ from one
    to support restrictions to subsystems."""

    x: tuple[Number, ...]

    def __post_init__(self):
        _require_finite(self.x, "populations")
        if any(v < 0 for v in self.x):
            raise DomainError("populations must be nonnegative")
        try:
            norm = sum(self.x)
        except OverflowError:  # a huge exact entry next to a float one
            raise DomainError("population norm overflows a float") from None
        if norm <= 0:
            raise DomainError("population norm must be positive")

    @property
    def norm(self) -> Number:
        return sum(self.x)

    def __iter__(self):
        return iter(self.x)

    def __len__(self):
        return len(self.x)

    def __getitem__(self, i):
        return self.x[i]


def _require_finite(values, what: str) -> None:
    """Reject a NaN or infinite float entry, which every comparison would
    read as no violation (``<`` is False for NaN)."""
    for v in values:  # a plain loop: this runs on every library call
        if isinstance(v, float) and not math.isfinite(v):
            raise DomainError(f"{what} must be finite")


def as_values(p) -> tuple[Number, ...]:
    """Accept a Population or any sequence of finite numbers; a NaN or
    infinite entry is a DomainError, as it is for a Population."""
    if isinstance(p, Population):
        return p.x
    x = tuple(p)
    _require_finite(x, "entries")
    return x


def as_levels(p, ctx: GibbsContext) -> tuple[Number, ...]:
    """``as_values`` of a population of the levels of ctx: any other
    length is a DomainError."""
    x = as_values(p)
    if len(x) != ctx.n:
        raise DomainError("population and context dimensions differ")
    return x


def has_float(*value_groups) -> bool:
    """Whether any of the numbers is a float, the one inexact type."""
    for group in value_groups:  # a plain loop: this runs on every library call
        for v in group:
            if isinstance(v, float):
                return True
    return False


def auto_tol(tol: Number | None, *value_groups) -> Number:
    """The tolerance rule of every comparison in the library.  An explicit
    ``tol`` wins and must be finite and nonnegative (a DomainError
    otherwise); ``None`` resolves to 0 when every compared number is exact,
    else to the float default ``FLOAT_TOL``."""
    if tol is not None:
        if not 0 <= tol < math.inf:  # negated, so that NaN fails too
            raise DomainError(
                f"tolerance must be finite and nonnegative, got {tol}")
        return tol
    return FLOAT_TOL if has_float(*value_groups) else 0


def norm_tol(t: Number, *value_groups) -> Number:
    """Slack of a normalisation check of the given numbers at the resolved
    tolerance ``t``: floored at ``FLOAT_TOL`` when one of them is a float,
    because float entries meant to sum alike can round apart; ``t`` as it
    is when all are exact."""
    return max(t, FLOAT_TOL) if has_float(*value_groups) else t


def coerce_exact(values, what: str) -> list[Fraction]:
    """Fractions of exact values, for the rational-mode-only operations
    (synthesis, the hull oracle); float entries are a DomainError."""
    out = []
    for v in values:
        if isinstance(v, float):
            raise DomainError(
                f"rational mode required; {what} has float entries")
        out.append(Fraction(v))
    return out


@dataclass(frozen=True)
class StochasticMatrix:
    """Column-stochastic matrix; ``cols[j][i]`` is T[i|j].  Ragged
    ``cols`` and a NaN or infinite entry are DomainErrors;
    ``validate_stochastic`` checks the signs and column sums."""

    cols: tuple[tuple[Number, ...], ...]

    def __post_init__(self):
        n = len(self.cols)
        for col in self.cols:
            if len(col) != n:
                raise DomainError("matrix must be square")
            _require_finite(col, "matrix entries")

    @property
    def n(self) -> int:
        return len(self.cols)

    def entry(self, i: int, j: int) -> Number:
        return self.cols[j][i]

    def apply(self, p) -> tuple[Number, ...]:
        x = as_values(p)
        if len(x) != self.n:
            raise DomainError("dimension mismatch in matrix application")
        return tuple(sum(self.cols[j][i] * x[j] for j in range(self.n))
                     for i in range(self.n))

    def compose(self, first: "StochasticMatrix") -> "StochasticMatrix":
        """Matrix of (self after first), i.e. self @ first."""
        if first.n != self.n:
            raise DomainError("dimension mismatch in composition")
        n = self.n
        cols = tuple(
            tuple(sum(self.cols[k][i] * first.cols[j][k] for k in range(n))
                  for i in range(n))
            for j in range(n))
        return StochasticMatrix(cols)

    @staticmethod
    def identity(n: int) -> "StochasticMatrix":
        one, zero = Fraction(1), Fraction(0)
        return StochasticMatrix(tuple(
            tuple(one if i == j else zero for i in range(n))
            for j in range(n)))


def validate_stochastic(T: StochasticMatrix,
                        tol: Number | None = None) -> bool:
    """Entries >= -tol and every column sums to one within tol."""
    t = auto_tol(tol, *T.cols)
    for col in T.cols:
        if any(v < -t for v in col) or abs(sum(col) - 1) > t:
            return False
    return True


def is_gibbs_preserving(T: StochasticMatrix, ctx: GibbsContext,
                        tol: Number | None = None) -> bool:
    if T.n != ctx.n:
        raise DomainError("matrix and context dimensions differ")
    t = auto_tol(tol, ctx.g, *T.cols)
    img = T.apply(ctx.g)
    return all(abs(img[i] - ctx.g[i]) <= t for i in range(ctx.n))


def is_detailed_balanced(T: StochasticMatrix, ctx: GibbsContext,
                         tol: Number | None = None) -> bool:
    # multiplicative form T[i|j] g_j == T[j|i] g_i avoids dividing by zero
    if T.n != ctx.n:
        raise DomainError("matrix and context dimensions differ")
    t = auto_tol(tol, ctx.g, *T.cols)
    g = ctx.g
    for j in range(ctx.n):
        for i in range(j):
            if abs(T.entry(i, j) * g[j] - T.entry(j, i) * g[i]) > t:
                return False
    return True


@dataclass(frozen=True)
class EdpStep:
    """Elementary detailed-balanced process on one level pair.

    ``p_down`` is the de-exciting probability E[lo|hi], a DomainError unless
    it lies in [0, 1]; detailed balance fixes E[hi|lo] = (g_hi/g_lo) * p_down
    and stochasticity fixes the diagonal.
    """

    lo: int
    hi: int
    p_down: Number

    def __post_init__(self):
        if not 0 <= self.p_down <= 1:  # negated, so that NaN fails too
            raise DomainError("p_down must lie in [0, 1]")

    def up_factor(self, ctx: GibbsContext) -> Number:
        """Boltzmann factor for the reverse jump, g_hi/g_lo; every use of
        the step in ctx reads it, so it refuses a bad level pair
        (``check_level_pair``)."""
        check_level_pair(ctx, self.lo, self.hi)
        if ctx.rational:
            return Fraction(ctx.g[self.hi], ctx.g[self.lo])
        return math.exp(-(ctx.energies[self.hi] - ctx.energies[self.lo]))

    def p_up(self, ctx: GibbsContext) -> Number:
        return self.up_factor(ctx) * self.p_down

    def as_matrix(self, ctx: GibbsContext) -> StochasticMatrix:
        n = ctx.n
        one, zero = Fraction(1), Fraction(0)
        cols = [[one if i == j else zero for i in range(n)] for j in range(n)]
        up = self.p_up(ctx)
        cols[self.hi][self.lo] = self.p_down
        cols[self.hi][self.hi] = 1 - self.p_down
        cols[self.lo][self.hi] = up
        cols[self.lo][self.lo] = 1 - up
        return StochasticMatrix(tuple(tuple(c) for c in cols))


def check_level_pair(ctx: GibbsContext, lo: int, hi: int) -> None:
    """The level-pair checks of every two-level step constructor: two
    distinct levels in range, not degenerate, ``hi`` the higher-energy one."""
    n = ctx.n
    if not (0 <= lo < n and 0 <= hi < n) or lo == hi:
        raise DomainError("step needs two distinct levels in range")
    if ctx.degenerate_pair(lo, hi):
        raise DomainError(f"levels {lo} and {hi} are degenerate")
    if ctx.rational:
        if ctx.g[hi] > ctx.g[lo]:
            raise DomainError("hi must be the higher-energy level")
    elif ctx.energies[hi] < ctx.energies[lo]:
        raise DomainError("hi must be the higher-energy level")


def make_edp_step(ctx: GibbsContext, lo: int, hi: int,
                  p_down: Number) -> EdpStep:
    """``EdpStep`` plus the one rule that needs ctx, ``check_level_pair``."""
    check_level_pair(ctx, lo, hi)
    return EdpStep(lo, hi, p_down)


def thermo_transposition(ctx: GibbsContext, lo: int, hi: int) -> EdpStep:
    """Extreme step with de-exciting probability one."""
    return make_edp_step(ctx, lo, hi, Fraction(1) if ctx.rational else 1.0)


@dataclass(frozen=True)
class ThermoPermutation:
    """Pullback through the embedding of a permutation acting on D slots,
    fully described by its block-count table over the slot counts ``d``:
    ``counts[j][i]`` slots of block j go into block i (column-major, like
    ``StochasticMatrix.cols``).  Exactly the nonnegative integer tables
    with row and column sums d come from slot permutations."""

    counts: tuple[tuple[int, ...], ...]
    d: tuple[int, ...]

    def __post_init__(self):
        n = len(self.d)
        if any(type(v) is not int or v <= 0 for v in self.d):
            raise DomainError("slot counts d must be positive integers")
        if len(self.counts) != n or any(len(c) != n for c in self.counts):
            raise DomainError(f"block-count table must be {n} x {n}")
        if any(type(v) is not int or v < 0 for c in self.counts for v in c):
            raise DomainError("block counts must be nonnegative integers")
        if (list(map(sum, self.counts)) != list(self.d)
                or list(map(sum, zip(*self.counts))) != list(self.d)):
            raise DomainError("every row and column of a block-count table "
                              "must sum to d")

    @property
    def pulled_back(self) -> StochasticMatrix:
        """P[i|j] = counts[j][i] / d_j."""
        return StochasticMatrix(tuple(
            tuple(Fraction(v, dj) for v in col)
            for col, dj in zip(self.counts, self.d)))

    def apply(self, p) -> tuple[Number, ...]:
        return self.pulled_back.apply(p)


@dataclass(frozen=True)
class ConvexDecomposition:
    """Weights and thermo-permutation factors of a Gibbs-preserving matrix."""

    terms: tuple[tuple[Number, ThermoPermutation], ...]

    def __post_init__(self):
        weights = [w for w, _ in self.terms]
        if any(not w >= 0 for w in weights):  # NaN fails too
            raise DomainError("decomposition weights must be nonnegative")
        if abs(sum(weights) - 1) > auto_tol(None, weights):
            raise DomainError("decomposition weights must sum to one")
        if len({tuple(perm.d) for _, perm in self.terms}) > 1:
            raise DomainError("decomposition terms must all share one d")

    @property
    def n(self) -> int:
        return len(self.terms[0][1].d)

    def reconstruct(self) -> StochasticMatrix:
        n = self.n
        cols = [[Fraction(0)] * n for _ in range(n)]
        for w, perm in self.terms:
            m = perm.pulled_back
            for j in range(n):
                for i in range(n):
                    cols[j][i] += w * m.cols[j][i]
        return StochasticMatrix(tuple(tuple(c) for c in cols))
