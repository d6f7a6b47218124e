"""Thermo-majorisation via three independent routes (Lorenz curves, the
weighted absolute-deviation characterisation, and classical majorisation of
the embedded vectors), plus the beta-ordering, the embedding map and the
relative-entropy quantities used by the perpetuum-mobile rate bound.

Every route is decided in integer arithmetic, for float inputs as for exact
ones: every finite float is a dyadic rational and converts exactly.  p and q
go over one common denominator ``scale`` and the weights are counted in
slots (``g = d/D``), so a Lorenz curve has integer elbows: x in slots, y in
units of ``1/scale``.  ``scale`` is a multiple of the resolved tolerance's
denominator too, so the tolerance is an integer slack in those units (zero
for exact inputs), and every comparison is an integer cross-multiplication.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Literal, Sequence

from .core import (DomainError, GibbsContext, Number, as_levels, as_values,
                   auto_tol, has_float, norm_tol)

Route = Literal["curve", "abs", "embedded", "all"]


@dataclass(frozen=True)
class BetaOrder:
    """Permutation sorting ratios x_i/g_i in non-increasing order.

    Ties go first to the larger occupation and then to the smaller index,
    which keeps the ordering deterministic for the synthesis construction.
    """

    perm: tuple[int, ...]


def _scaled(*value_groups):
    """Integer numerators of the values over one common denominator, and
    that denominator; a float is a dyadic rational and converts exactly."""
    ratios = [[v.as_integer_ratio() for v in group] for group in value_groups]
    scale = math.lcm(*(b for group in ratios for _, b in group))
    return [[a * (scale // b) for a, b in group] for group in ratios], scale


def slot_counts(ctx: GibbsContext) -> tuple[tuple[int, ...], int]:
    """The weights as slot counts d over a denominator D, g = d/D: ``ctx.d``
    over ``ctx.D`` in a rational context, else the numerators of the float
    weights over their common power of two.  Those need not sum to D; no
    sweep reads D."""
    if ctx.rational:
        return ctx.d, ctx.D
    ratios = [gi.as_integer_ratio() for gi in ctx.g]
    D = max(b for _, b in ratios)
    return tuple(a * (D // b) for a, b in ratios), D


def as_number(num: int, den: int, inexact: bool) -> Number:
    """num/den as a Fraction, or as the correctly rounded float when
    ``inexact`` (some input number was a float)."""
    return num / den if inexact else Fraction(num, den)


def _ratio_keys(nums: Sequence[int], d: Sequence[int],
                lam: int) -> list[int]:
    """Integers proportional to the ratios x_i/g_i: with x_i = nums_i/scale,
    g_i = d_i/D and lam = lcm(d), x_i/g_i = nums_i (lam/d_i) D/(scale lam)."""
    return [x * (lam // di) for x, di in zip(nums, d)]


def beta_order(p, ctx: GibbsContext) -> BetaOrder:
    return BetaOrder(exact_lorenz(p, ctx).order)


class ExactLorenz:
    """Lorenz curve of a population in integer units.

    ``nums`` are the occupations in units of ``1/scale``, ``order`` is the
    beta-order, ``xs[k]`` the slot count of its first k levels and ``ys[k]``
    their occupation; the curve runs from (0, 0) to (sum of d,
    norm * scale).  ``d`` are the slot counts, ``lam`` is lcm(d), and
    ``blocks`` are the ``(key, d_i)`` pairs of the levels in beta-order, so
    with non-increasing ratio keys (``_ratio_keys``), which the abs and
    embedded routes read over ``scale * lam``.
    """

    __slots__ = ("nums", "order", "xs", "ys", "scale", "lam", "d", "blocks")

    def __init__(self, nums: Sequence[int], scale: int, d: Sequence[int]):
        self.nums = nums
        self.d = d
        self.lam = math.lcm(*d)
        keys = _ratio_keys(nums, d, self.lam)
        self.order = tuple(sorted(range(len(nums)),
                                  key=lambda i: (-keys[i], -nums[i], i)))
        self.scale = scale
        xs = [0]
        ys = [0]
        blocks = []
        for i in self.order:
            xs.append(xs[-1] + d[i])
            ys.append(ys[-1] + nums[i])
            blocks.append((keys[i], d[i]))
        self.xs = xs
        self.ys = ys
        self.blocks = blocks

    def at(self, x: int) -> int:
        """Value at slot x as a numerator over ``scale * lam``, a
        denominator shared by every slot (each segment width d_i divides
        lam)."""
        return self.values((x,))[0]

    def values(self, points: Sequence[int]) -> list[int]:
        """``at`` of each of the ascending slots ``points``, in one sweep."""
        xs, ys, lam = self.xs, self.ys, self.lam
        out = []
        k = 1
        for x in points:
            while xs[k] < x:
                k += 1
            w = xs[k] - xs[k - 1]
            out.append((ys[k - 1] * w + (ys[k] - ys[k - 1]) * (x - xs[k - 1]))
                       * (lam // w))
        return out


def exact_lorenz(p, ctx: GibbsContext) -> ExactLorenz:
    """Integer Lorenz curve of a population in the slot counts of ctx."""
    (nums,), scale = _scaled(as_levels(p, ctx))
    return ExactLorenz(nums, scale, slot_counts(ctx)[0])


def lorenz_violation(a: ExactLorenz, b: ExactLorenz, slack: int = 0):
    """One merged sweep over the elbows of both curves, in ascending slot
    order: the first elbow x where a lies more than ``slack`` below b, as
    ``(x, a_num, a_den, b_num, b_den)`` with values ``num / (den * scale)``,
    or None when a dominates b within the slack.  Both curves must share a
    context and a scale, the slack's unit being ``1/scale``.

    ``i`` and ``j`` index the next elbow of each curve; the value at x is
    interpolated on the segment ending there, whose width is the den.
    """
    axs, ays, bxs, bys = a.xs, a.ys, b.xs, b.ys
    last = len(axs)
    i = j = 1
    while i < last:
        x = min(axs[i], bxs[j])
        ad = axs[i] - axs[i - 1]
        an = ays[i - 1] * ad + (ays[i] - ays[i - 1]) * (x - axs[i - 1])
        bd = bxs[j] - bxs[j - 1]
        bn = bys[j - 1] * bd + (bys[j] - bys[j - 1]) * (x - bxs[j - 1])
        if (an + slack * ad) * bd < bn * ad:
            return x, an, ad, bn, bd
        if x == axs[i]:
            i += 1
        if x == bxs[j]:
            j += 1
    return None


def _curves(pv, qv, ctx: GibbsContext, tol):
    """The curves of p and q (``as_levels`` values) over one common
    denominator ``scale``, and the resolved tolerance as an integer slack
    in units of ``1/scale``.  A normalisation mismatch is a DomainError."""
    t = auto_tol(tol, pv, qv, ctx.g)
    (P, Q, (slack,)), scale = _scaled(pv, qv, (t,))
    gap = abs(sum(P) - sum(Q))
    if gap and gap > Fraction(norm_tol(t, pv, qv)) * scale:
        raise DomainError(f"normalisations differ: {sum(pv)} vs {sum(qv)}")
    d = slot_counts(ctx)[0]
    return ExactLorenz(P, scale, d), ExactLorenz(Q, scale, d), slack


def _agree(verdicts) -> bool:
    """The routes' common verdict; routes that disagree are a DomainError."""
    verdicts = set(verdicts)
    if len(verdicts) != 1:
        raise DomainError("majorisation routes disagree")
    return verdicts.pop()


def _dominates(a: ExactLorenz, b: ExactLorenz, slack: int,
               route: Route) -> bool:
    """Whether curve a thermo-majorizes curve b within ``slack`` (in units
    of ``1/scale``) by one route, or by all three, which must agree.  Both
    curves share their slot counts and their scale."""
    if route == "curve":
        return lorenz_violation(a, b, slack) is None
    lam = a.lam
    if route == "abs":
        if slack:
            # sum_j d_j key_j = lam * sum_j nums_j
            slack = 2 * slack * lam - lam * (b.ys[-1] - a.ys[-1])
        return _abs_majorize(a.blocks[::-1], b.blocks[::-1], slack)
    if route == "embedded":
        return _blocks_majorize(a.blocks, b.blocks, slack * lam)
    return _agree(_dominates(a, b, slack, r)
                  for r in ("curve", "abs", "embedded"))


@dataclass(frozen=True)
class LorenzCurve:
    """Piecewise-linear curve through the beta-ordered cumulative points.

    ``points[k] = (sum of g over the first k levels, sum of x over them)``;
    concavity holds because the segment slopes are the sorted ratios.  The
    routes read the integer curve; this one is the literal reference.
    """

    points: tuple[tuple[Number, Number], ...]

    @property
    def norm(self) -> Number:
        return self.points[-1][1]

    def evaluate(self, x: Number) -> Number:
        pts = self.points
        if x <= 0:
            return pts[0][1]
        for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
            if x <= x1:
                return y0 + (y1 - y0) * (x - x0) / (x1 - x0)
        return pts[-1][1]


def lorenz_curve(p, ctx: GibbsContext) -> LorenzCurve:
    x = as_values(p)
    order = beta_order(x, ctx).perm
    cx = cy = 0
    pts = [(cx, cy)]
    for i in order:
        cx = cx + ctx.g[i]
        cy = cy + x[i]
        pts.append((cx, cy))
    return LorenzCurve(tuple(pts))


def thermo_majorizes_curve(p, q, ctx: GibbsContext,
                           tol: Number | None = None) -> bool:
    """Lorenz-curve dominance checked at the elbows of either curve; the
    curves are piecewise linear, so elbow checks are sufficient."""
    return _dominates(
        *_curves(as_levels(p, ctx), as_levels(q, ctx), ctx, tol), "curve")


def majorization_witness(p, q, ctx: GibbsContext,
                         tol: Number | None = None):
    """First violated elbow as (x, L_p(x), L_q(x)), or None if p >=_T q.

    x is a Fraction in a rational context and a float in a float one; the
    curve values are floats when some input number is a float.  Each is the
    exact value, rounded once."""
    pv, qv = as_levels(p, ctx), as_levels(q, ctx)
    lp, lq, slack = _curves(pv, qv, ctx, tol)
    return _witness(lorenz_violation(lp, lq, slack), lp.scale, ctx,
                    has_float(pv, qv, ctx.g))


def _witness(hit, scale: int, ctx: GibbsContext, inexact: bool):
    """A ``lorenz_violation`` hit of two curves over ``scale`` as the
    witness (x, L_p(x), L_q(x)), or None for no hit."""
    if hit is None:
        return None
    x, pn, pd, qn, qd = hit
    return (as_number(x, slot_counts(ctx)[1], not ctx.rational),
            as_number(pn, pd * scale, inexact),
            as_number(qn, qd * scale, inexact))


def thermo_majorizes_abs(p, q, ctx: GibbsContext,
                         tol: Number | None = None) -> bool:
    """Weighted absolute-deviation route.

    The inequality holds at every threshold iff it holds at p's ratios
    p_j/g_j: between two consecutive ones p's sum is linear and q's is
    convex, so their difference is convex and largest at an end; beyond
    the extreme ones p's sum has slope -1 or +1, the steepest any such sum
    has (``_abs_majorize``), so the difference grows no further.
    The thresholds are counted in units of the ratio keys, so
    g_j |x_j/g_j - a| becomes d_j |key_j - k| over the common denominator
    ``scale * lam``, the unit of the slack too.  Each sum equals
    ``2 L*(a) - N + a`` for the curve's conjugate L*, so the curve route's
    slack t becomes ``2 t - (N_q - N_p)`` here.  Both sums are evaluated at
    p's kinks in one ascending sweep over the curves' blocks, already in
    key order (``O(n)`` once the curves are built).
    """
    return _dominates(
        *_curves(as_levels(p, ctx), as_levels(q, ctx), ctx, tol), "abs")


def _abs_majorize(r, s, slack: int) -> bool:
    """The absolute-deviation sums of the source's and the target's ratio
    keys, given as ``(key, slot count)`` blocks r and s in ascending key
    order (equal keys in any order), compared at every threshold within an
    integer slack.

    The source's keys decide.  With S_x(k) = sum_j d_j |x_j - k|, the
    difference S_s - S_r is convex between two consecutive keys of r, where
    S_r is linear, so its maximum there is at an end.  Below r's smallest
    key S_r has slope -W, W the total weight, and above its largest +W,
    while |S_s(k) - S_s(k')| <= W |k - k'| by the triangle inequality, so
    S_s - S_r does not grow beyond r's extreme keys.

    One ascending sweep over those keys: with M the weighted key sum and
    W_k, M_k the totals over the keys below k,
    ``S_x(k) = k (2 W_k - W) + M - 2 M_k``."""
    mass = sum(k * w for k, w in s) - sum(k * w for k, w in r)
    n = len(s)
    j = wr = mr = ws = ms = 0
    below = None
    for k, w in r:
        if k != below:
            while j < n and s[j][0] < k:
                ws += s[j][1]
                ms += s[j][0] * s[j][1]
                j += 1
            if k * 2 * (ws - wr) + mass - 2 * (ms - mr) > slack:
                return False
            below = k
        wr += w
        mr += k * w
    return True


def embed(p, ctx: GibbsContext) -> tuple[Number, ...]:
    """Split level i into d_i equal slots; maps the Gibbs state to the
    uniform distribution on D slots."""
    ctx.require_rational()
    x = as_levels(p, ctx)
    out = []
    for xi, di in zip(x, ctx.d):
        if isinstance(xi, float):
            out.extend([xi / di] * di)
        else:
            out.extend([Fraction(xi, di)] * di)
    return tuple(out)


def unembed(y: Sequence[Number], ctx: GibbsContext) -> tuple[Number, ...]:
    """Block sums; the left inverse of embed."""
    ctx.require_rational()
    y = as_values(y)
    if len(y) != ctx.D:
        raise DomainError(f"embedded vector must have length {ctx.D}")
    out = []
    pos = 0
    for di in ctx.d:
        out.append(sum(y[pos:pos + di]))
        pos += di
    return tuple(out)


def majorizes_classical(x: Sequence[Number], y: Sequence[Number],
                        tol: Number | None = None) -> bool:
    """Sorted-descending partial sums of x dominate those of y."""
    x, y = as_values(x), as_values(y)
    if len(x) != len(y):
        raise DomainError("vectors must have equal length")
    t = auto_tol(tol, x, y)
    if abs(sum(x) - sum(y)) > norm_tol(t, x, y):
        raise DomainError(f"normalisations differ: {sum(x)} vs {sum(y)}")
    xs = sorted(x, reverse=True)
    ys = sorted(y, reverse=True)
    cx = cy = 0
    for a, b in zip(xs, ys):
        cx += a
        cy += b
        if cx < cy - t:
            return False
    return True


def _blocks_majorize(xs, ys, slack: int) -> bool:
    """Classical majorisation of two run-length vectors of equal length,
    given as (slot value, run length) blocks of integers in non-increasing
    value order (equal values in any order).  Between block boundaries both
    sorted partial sums are linear, so the union of the boundaries of both
    vectors decides."""
    i = j = 0
    (vx, lx), (vy, ly) = xs[0], ys[0]
    cx = cy = 0
    while True:
        run = min(lx, ly)
        cx += vx * run
        cy += vy * run
        if cx < cy - slack:
            return False
        lx -= run
        ly -= run
        if not lx:
            i += 1
            if i == len(xs):
                return True
            vx, lx = xs[i]
        if not ly:
            j += 1
            vy, ly = ys[j]


def thermo_majorizes_embedded(p, q, ctx: GibbsContext,
                              tol: Number | None = None) -> bool:
    """Classical majorisation of the embedded vectors, evaluated on their
    blocks (value p_i/d_i repeated d_i times), so no D slots are built.
    The slot values are the ratio keys over the common denominator
    ``scale * lam``, so every partial sum is an integer."""
    return _dominates(
        *_curves(as_levels(p, ctx), as_levels(q, ctx), ctx, tol), "embedded")


def thermo_majorizes(p, q, ctx: GibbsContext, tol: Number | None = None,
                     route: Route = "curve") -> bool:
    # The route functions are called by their module names, not through
    # _dominates, so that a tracer rebinding those names times each route.
    if route == "curve":
        return thermo_majorizes_curve(p, q, ctx, tol)
    if route == "abs":
        return thermo_majorizes_abs(p, q, ctx, tol)
    if route == "embedded":
        return thermo_majorizes_embedded(p, q, ctx, tol)
    if route == "all":
        return _agree((thermo_majorizes_curve(p, q, ctx, tol),
                       thermo_majorizes_abs(p, q, ctx, tol),
                       thermo_majorizes_embedded(p, q, ctx, tol)))
    raise DomainError(f"unknown route {route!r}")


def relative_entropy(x, ctx: GibbsContext,
                     tol: Number | None = None) -> float:
    """S(x||g) in nats, with 0 log 0 = 0; zero exactly at the thermal state."""
    xv = as_levels(x, ctx)
    if abs(sum(xv) - 1) > norm_tol(auto_tol(tol, xv), xv):
        raise DomainError("relative entropy expects a normalised population")
    total = 0.0
    for xi, gi in zip(xv, ctx.g):
        if xi > 0:
            total += float(xi) * math.log(float(xi) / float(gi))
    return total


def perpetuum_rate(x, ctx: GibbsContext, w: float) -> float:
    """Work-extraction rate S(x||g)/w of a hypothetical cycle fed by x."""
    if not 0 < w < math.inf:  # negated, so that NaN fails too
        raise DomainError(f"work quantum must be positive and finite, got {w}")
    return relative_entropy(x, ctx) / w
