"""Transition probabilities of the resonant two-level exchange with a
single-mode thermal bosonic bath, with certified truncation, the closed-form
achievability bounds, and the comparison against partial level thermalisation.

Everything here is float arithmetic; the series are sums of nonnegative terms
so truncation always yields certified lower bounds, and dropping the tail of
the de-exciting sum costs at most ``exp(-beta_bar * m)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import DomainError

#: truncation order of the certified lower bound (all dropped terms >= 0)
LOWER_BOUND_TERMS = 12
#: reference control time known to sit near the achievable maximum
LOWER_BOUND_S_REF = 98.92
_S_MAX = 200.0
_S_STEP = 0.01
_M_CAP = 10**6
#: most series terms ``find_s_for_target`` sums; its 4001-point grid costs
#: about 1e-4 s per term, so an unreachable target at this cap takes about
#: 10 s (a reachable one stops at its first bracketing grid point)
MAX_SOLVE_TERMS = 10**5
#: default accuracy of ``find_s_for_target`` on the de-exciting probability
SOLVE_TOL = 1e-9

#: 2019 SI exact constants
HBAR = 1.054571817e-34
PLANCK_H = 6.62607015e-34
BOLTZMANN_K = 1.380649e-23


@dataclass(frozen=True)
class JcParams:
    """Dimensionless model point: inverse-temperature gap ``beta_bar``,
    rescaled interaction time ``s`` and truncation order ``m`` whose tail
    error is certified by ``tail_bound``."""

    beta_bar: float
    s: float
    m: int
    tail_bound: float
    capped: bool = False


def jc_params(beta_bar: float, s: float, tol: float = 1e-10) -> JcParams:
    """Pick the truncation order from the tail rule ceil(ln(1/tol)/beta_bar),
    capped at 10^6 with the residual error surfaced in ``tail_bound``."""
    # negated tests, so that NaN fails too
    if not 0 < beta_bar < math.inf:
        raise DomainError("beta_bar must be positive (the series diverges) "
                          "and finite")
    if not 0 <= s < math.inf:
        raise DomainError("the rescaled time s must be nonnegative and "
                          "finite")
    if not 0 < tol < math.inf:
        raise DomainError(f"tol must be positive and finite, got {tol}")
    order = math.log(1.0 / tol) / beta_bar  # inf when 1/tol overflows
    capped = not order <= _M_CAP
    m = _M_CAP if capped else max(math.ceil(order), 1)
    return JcParams(beta_bar, s, m, math.exp(-beta_bar * m), capped)


def j_probabilities(params: JcParams) -> tuple[float, float]:
    """(exciting, de-exciting) transition probabilities, truncated at m with
    error at most ``tail_bound``; their ratio is the Boltzmann factor."""
    bb, s, m = params.beta_bar, params.s, params.m
    n = np.arange(1, m + 1, dtype=np.float64)
    sin2 = np.sin(s * np.sqrt(n)) ** 2
    scale = 1.0 - math.exp(-bb)
    j_up = scale * float(np.dot(sin2, np.exp(-bb * n)))
    j_down = scale * float(np.dot(sin2, np.exp(-bb * (n - 1))))
    return j_up, j_down


_LOG4_3 = math.log(4.0) / 3.0


def j_upper_bound(beta_bar: float) -> float:
    """Time-independent cap on the de-exciting probability; the two closed
    forms meet continuously at beta_bar = log(4)/3."""
    if not 0 <= beta_bar < math.inf:
        raise DomainError("beta_bar must be nonnegative and finite")
    if beta_bar <= _LOG4_3:
        e = math.exp(beta_bar)
        return (8.0 * math.exp(-beta_bar) - e**2 + e**3 + 8.0) / 16.0
    return math.exp(-4.0 * beta_bar) - math.exp(-3.0 * beta_bar) + 1.0


@lru_cache(maxsize=1)
def _lower_grid() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    s = np.arange(0.0, _S_MAX + _S_STEP / 2, _S_STEP)
    roots = np.sqrt(np.arange(1, LOWER_BOUND_TERMS + 1, dtype=np.float64))
    sin2 = np.sin(np.outer(s, roots)) ** 2
    return s, roots, sin2


def _lower_bounds(beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Certified floors on the achievable de-exciting probability, and the
    control times realising them, for a 1-d array of gaps.

    Maximises the truncated sum over a coarse grid augmented with the
    reference time and pi/2, then refines by golden-section, on every gap at
    once; any truncated value is a valid lower bound since every dropped
    term is nonnegative.
    """
    if not np.all((beta > 0) & (beta < math.inf)):
        raise DomainError("beta_bar must be positive and finite")
    grid, roots, sin2 = _lower_grid()
    w = np.exp(-np.outer(beta, np.arange(LOWER_BOUND_TERMS)))
    # math.exp, not np.exp, which can differ in the last bit
    scale = np.array([1.0 - math.exp(-bb) for bb in beta.tolist()])

    def down(s: np.ndarray) -> np.ndarray:
        return scale * np.vecdot(np.sin(np.outer(s, roots)) ** 2, w)

    # one grid product per gap: a block of k gaps would hold a 20001 x k
    # value table, k * 160 KB more peak memory per call
    best = grid[[np.argmax(sin2 @ row) for row in w]]
    f_best = down(best)
    for cand in (LOWER_BOUND_S_REF, math.pi / 2):
        f_cand = down(np.full(len(beta), cand))
        better = f_cand > f_best
        best = np.where(better, cand, best)
        f_best = np.where(better, f_cand, f_best)
    a = np.maximum(0.0, best - _S_STEP)
    b = np.minimum(_S_MAX, best + _S_STEP)
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = down(c), down(d)
    for _ in range(80):
        left = fc > fd
        a, b = np.where(left, a, c), np.where(left, d, b)
        x = np.where(left, b - phi * (b - a), a + phi * (b - a))
        fx = down(x)
        c, d, fc, fd = (np.where(left, x, d), np.where(left, c, x),
                        np.where(left, fx, fd), np.where(left, fc, fx))
    s_star = (a + b) / 2
    val = down(s_star)
    worse = val < f_best
    return np.where(worse, f_best, val), np.where(worse, best, s_star)


def j_lower_bound_with_argmax(beta_bar: float) -> tuple[float, float]:
    """Certified floor on the achievable de-exciting probability and the
    control time realising it (the search of ``region_sweep`` on one gap)."""
    val, s = _lower_bounds(np.array([beta_bar], dtype=np.float64))
    return float(val[0]), float(s[0])


def j_lower_bound(beta_bar: float) -> float:
    return j_lower_bound_with_argmax(beta_bar)[0]


def plt_max(beta_bar: float) -> float:
    """Largest de-exciting probability a partial level thermalisation can
    reach: 1 / (1 + exp(-beta_bar))."""
    if not 0 <= beta_bar < math.inf:
        raise DomainError("beta_bar must be nonnegative and finite")
    return 1.0 / (1.0 + math.exp(-beta_bar))


@dataclass(frozen=True)
class RegionRow:
    beta_bar: float
    lower: float
    upper: float
    plt_max: float
    jc_beats_plt: bool


def region_sweep(beta_grid) -> list[RegionRow]:
    """Achievable-region table over the given gap values."""
    beta = np.asarray(beta_grid, dtype=np.float64)
    lower, _ = _lower_bounds(beta)
    rows = []
    for bb, lo in zip(beta.tolist(), lower.tolist()):
        pm = plt_max(bb)
        rows.append(RegionRow(bb, lo, j_upper_bound(bb), pm, lo > pm))
    return rows


@dataclass(frozen=True)
class NotAchievable:
    """Signal value: the target de-exciting probability is above every value
    found; carries the best certified value and where it occurs."""

    best: float
    s_best: float


def find_s_for_target(target: float, beta_bar: float,
                      tol: float | None = None) -> float | NotAchievable:
    """Control time s with |J_down(s) - target| <= tol (``None`` means
    ``SOLVE_TOL``), if one is found.

    The de-exciting probability is continuous in s and zero at s = 0, so the
    first grid value at or above the target brackets a crossing for
    bisection, and the scan stops there; only an unreachable target scans
    the whole grid for its best value.  A solve whose truncation order
    exceeds ``MAX_SOLVE_TERMS`` is a DomainError before the grid runs.
    """
    if not 0 <= target <= 1:
        raise DomainError("target must lie in [0, 1]")
    if tol is None:
        tol = SOLVE_TOL
    if not tol > 0:
        raise DomainError(f"tol must be positive, got {tol}")
    m = jc_params(beta_bar, 0.0, tol=min(tol / 4, 1e-10)).m
    if m > MAX_SOLVE_TERMS:
        raise DomainError(
            f"the solve needs more than {MAX_SOLVE_TERMS} series terms (the "
            f"cap); beta_bar {beta_bar} is too small")
    if target == 0:
        return 0.0

    n = np.arange(1, m + 1, dtype=np.float64)
    w = np.exp(-beta_bar * (n - 1)) * (1.0 - math.exp(-beta_bar))
    roots = np.sqrt(n)

    def f(s: float) -> float:
        return float(np.dot(np.sin(s * roots) ** 2, w))

    grid = np.arange(0.0, _S_MAX + 0.05, 0.05)
    best = 0.0
    s_best = 0.0
    prev_s = 0.0
    for s in grid[1:]:
        v = f(float(s))
        if v >= target:
            a, b = prev_s, float(s)
            break
        if v > best:
            best, s_best = v, float(s)
        prev_s = float(s)
    else:
        return NotAchievable(best, s_best)
    for _ in range(200):
        mid = (a + b) / 2
        if f(mid) >= target:
            b = mid
        else:
            a = mid
        if abs(f(b) - target) <= tol / 2:
            break
    return b


def beta_bar_from_physical(temperature_k: float, frequency_hz: float,
                           angular: bool = False) -> float:
    """Dimensionless gap from lab units.

    ``angular=False`` reads the frequency as an ordinary frequency nu (gap
    h*nu); ``angular=True`` reads it as omega in rad/s (gap hbar*omega).
    A gap that overflows or underflows the float range is a DomainError.
    """
    if not (0 < temperature_k < math.inf and 0 < frequency_hz < math.inf):
        raise DomainError("temperature and frequency must be positive and "
                          "finite")
    energy = (HBAR if angular else PLANCK_H) * frequency_hz
    gap = energy / (BOLTZMANN_K * temperature_k)
    if not 0 < gap < math.inf:
        raise DomainError("the dimensionless gap of this temperature and "
                          "frequency is out of the float range")
    return gap
