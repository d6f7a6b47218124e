"""Thermo-majorisation via three independent routes (Lorenz curves, the
weighted absolute-deviation characterisation, and classical majorisation of
the embedded vectors), plus the beta-ordering, the embedding map and the
relative-entropy quantities used by the perpetuum-mobile rate bound.

Exact mode (a rational context, exact populations and zero tolerance)
decides every route in integer arithmetic.  p and q go over one common
denominator ``scale`` and the weights are counted in slots (``g = d/D``), so
a Lorenz curve has integer elbows: x in slots, y in units of ``1/scale``.
Every comparison is then an integer cross-multiplication.  Float mode runs
the same sweeps on floats with a tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Literal, Sequence

from .core import (DomainError, GibbsContext, Number, as_values, auto_tol,
                   exact_mode, norm_tol)

Route = Literal["curve", "abs", "embedded", "all"]


@dataclass(frozen=True)
class BetaOrder:
    """Permutation sorting ratios x_i/g_i in non-increasing order.

    Ties go first to the larger occupation and then to the smaller index,
    which keeps the ordering deterministic for the synthesis construction.
    """

    perm: tuple[int, ...]


def _check_dims(ctx: GibbsContext, *value_groups) -> None:
    if any(len(group) != ctx.n for group in value_groups):
        raise DomainError("population and context dimensions differ")


def _scaled(*value_groups):
    """Integer numerators of exact values over one common denominator, and
    that denominator."""
    scale = math.lcm(*(v.denominator for group in value_groups
                       for v in group))
    return ([[v.numerator * (scale // v.denominator) for v in group]
             for group in value_groups], scale)


def _ratio_keys(nums: Sequence[int], d: Sequence[int],
                lam: int) -> list[int]:
    """Integers proportional to the ratios x_i/g_i: with x_i = nums_i/scale,
    g_i = d_i/D and lam = lcm(d), x_i/g_i = nums_i (lam/d_i) D/(scale lam)."""
    return [x * (lam // di) for x, di in zip(nums, d)]


def _exact_norms(top: int, bottom: int, pv, qv) -> None:
    if top != bottom:
        raise DomainError(f"normalisations differ: {sum(pv)} vs {sum(qv)}")


def beta_order(p, ctx: GibbsContext) -> BetaOrder:
    x = as_values(p)
    _check_dims(ctx, x)
    if exact_mode(ctx, None, x):
        return BetaOrder(exact_lorenz(x, ctx).order)
    g = ctx.g
    return BetaOrder(tuple(
        sorted(range(ctx.n), key=lambda i: (-(x[i] / g[i]), -x[i], i))))


class ExactLorenz:
    """Lorenz curve of an exact population in integer units.

    ``order`` is the beta-order, ``xs[k]`` the slot count of its first k
    levels and ``ys[k]`` their occupation in units of ``1/scale``; the
    curve runs from (0, 0) to (D, norm * scale).  ``lam`` is lcm(d).
    """

    __slots__ = ("order", "xs", "ys", "scale", "lam")

    def __init__(self, nums: Sequence[int], scale: int, ctx: GibbsContext):
        d = ctx.d
        self.lam = math.lcm(*d)
        keys = _ratio_keys(nums, d, self.lam)
        self.order = tuple(sorted(range(len(nums)),
                                  key=lambda i: (-keys[i], -nums[i], i)))
        self.scale = scale
        xs = [0]
        ys = [0]
        for i in self.order:
            xs.append(xs[-1] + d[i])
            ys.append(ys[-1] + nums[i])
        self.xs = xs
        self.ys = ys

    def at(self, x: int) -> int:
        """Value at slot x as a numerator over ``scale * lam``, a
        denominator shared by every slot (each segment width d_i divides
        lam)."""
        xs, ys = self.xs, self.ys
        k = 1
        while xs[k] < x:
            k += 1
        w = xs[k] - xs[k - 1]
        return ((ys[k - 1] * w + (ys[k] - ys[k - 1]) * (x - xs[k - 1]))
                * (self.lam // w))


def exact_lorenz(p, ctx: GibbsContext) -> ExactLorenz:
    """Integer Lorenz curve of exact populations in a rational context."""
    ctx.require_rational()
    x = as_values(p)
    _check_dims(ctx, x)
    (nums,), scale = _scaled(x)
    return ExactLorenz(nums, scale, ctx)


def lorenz_violation(a: ExactLorenz, b: ExactLorenz):
    """One merged sweep over the elbows of both curves, in ascending slot
    order: the first elbow x where a lies strictly below b, as
    ``(x, a_num, a_den, b_num, b_den)`` with values ``num / (den * scale)``,
    or None when a dominates b.  Both curves must share a context.

    ``i`` and ``j`` index the next elbow of each curve; the value at x is
    interpolated on the segment ending there, whose width is the den.
    """
    axs, ays, bxs, bys = a.xs, a.ys, b.xs, b.ys
    sa, sb = a.scale, b.scale
    last = len(axs)
    i = j = 1
    while i < last:
        x = min(axs[i], bxs[j])
        ad = axs[i] - axs[i - 1]
        an = ays[i - 1] * ad + (ays[i] - ays[i - 1]) * (x - axs[i - 1])
        bd = bxs[j] - bxs[j - 1]
        bn = bys[j - 1] * bd + (bys[j] - bys[j - 1]) * (x - bxs[j - 1])
        if an * bd * sb < bn * ad * sa:
            return x, an, ad, bn, bd
        if x == axs[i]:
            i += 1
        if x == bxs[j]:
            j += 1
    return None


def _exact_curves(pv, qv, ctx: GibbsContext):
    _check_dims(ctx, pv, qv)
    (P, Q), scale = _scaled(pv, qv)
    return ExactLorenz(P, scale, ctx), ExactLorenz(Q, scale, ctx)


@dataclass(frozen=True)
class LorenzCurve:
    """Piecewise-linear curve through the beta-ordered cumulative points.

    ``points[k] = (sum of g over the first k levels, sum of x over them)``;
    concavity holds because the segment slopes are the sorted ratios.
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


def _float_violation(lp: LorenzCurve, lq: LorenzCurve, t):
    """Float-mode merged sweep: the first elbow x of either curve with
    L_p(x) < L_q(x) - t, as (x, L_p(x), L_q(x))."""
    for x in sorted({x for x, _ in lp.points} | {x for x, _ in lq.points}):
        yp, yq = lp.evaluate(x), lq.evaluate(x)
        if yp < yq - t:
            return (x, yp, yq)
    return None


def _check_norms(p, q, tol):
    np_, nq = sum(p), sum(q)
    if abs(np_ - nq) > tol:
        raise DomainError(f"normalisations differ: {np_} vs {nq}")


def _float_tol(tol, pv, qv, ctx: GibbsContext) -> Number:
    """Comparison tolerance of the float sweeps; checks the norms too."""
    t = auto_tol(tol, pv, qv, ctx.g)
    _check_norms(pv, qv, norm_tol(t))
    return t


def thermo_majorizes_curve(p, q, ctx: GibbsContext,
                           tol: Number | None = None) -> bool:
    """Lorenz-curve dominance checked at the elbows of either curve; the
    curves are piecewise linear, so elbow checks are sufficient."""
    pv, qv = as_values(p), as_values(q)
    if exact_mode(ctx, tol, pv, qv):
        lp, lq = _exact_curves(pv, qv, ctx)
        _exact_norms(lp.ys[-1], lq.ys[-1], pv, qv)
        return lorenz_violation(lp, lq) is None
    t = _float_tol(tol, pv, qv, ctx)
    return _float_violation(lorenz_curve(pv, ctx), lorenz_curve(qv, ctx),
                            t) is None


def majorization_witness(p, q, ctx: GibbsContext,
                         tol: Number | None = None):
    """First violated elbow as (x, L_p(x), L_q(x)), or None if p >=_T q."""
    pv, qv = as_values(p), as_values(q)
    if exact_mode(ctx, tol, pv, qv):
        lp, lq = _exact_curves(pv, qv, ctx)
        hit = lorenz_violation(lp, lq)
        if hit is None:
            return None
        x, pn, pd, qn, qd = hit
        return (Fraction(x, ctx.D), Fraction(pn, pd * lp.scale),
                Fraction(qn, qd * lq.scale))
    t = auto_tol(tol, pv, qv, ctx.g)
    return _float_violation(lorenz_curve(pv, ctx), lorenz_curve(qv, ctx), t)


def thermo_majorizes_abs(p, q, ctx: GibbsContext,
                         tol: Number | None = None) -> bool:
    """Weighted absolute-deviation route.

    Both sides are piecewise linear in the threshold with equal values at zero
    and equal slope past the largest kink, so checking the kink set
    {0} u {p_j/g_j} u {q_j/g_j} decides the inequality for every threshold.
    In exact mode the thresholds are counted in units of the ratio keys, so
    g_j |x_j/g_j - a| becomes d_j |key_j - k| over one common denominator.
    """
    pv, qv = as_values(p), as_values(q)
    g = ctx.g
    if exact_mode(ctx, tol, pv, qv):
        _check_dims(ctx, pv, qv)
        (P, Q), _ = _scaled(pv, qv)
        _exact_norms(sum(P), sum(Q), pv, qv)
        d = ctx.d
        lam = math.lcm(*d)
        r, s = _ratio_keys(P, d, lam), _ratio_keys(Q, d, lam)
        for k in {0, *r, *s}:
            lhs = sum(dj * abs(sj - k) for dj, sj in zip(d, s))
            rhs = sum(dj * abs(rj - k) for dj, rj in zip(d, r))
            if lhs > rhs:
                return False
        return True
    t = _float_tol(tol, pv, qv, ctx)
    kinks = {0}
    kinks |= {pv[j] / g[j] for j in range(ctx.n)}
    kinks |= {qv[j] / g[j] for j in range(ctx.n)}
    for a in kinks:
        lhs = sum(g[j] * abs(qv[j] / g[j] - a) for j in range(ctx.n))
        rhs = sum(g[j] * abs(pv[j] / g[j] - a) for j in range(ctx.n))
        if lhs > rhs + t:
            return False
    return True


def embed(p, ctx: GibbsContext) -> tuple[Number, ...]:
    """Split level i into d_i equal slots; maps the Gibbs state to the
    uniform distribution on D slots."""
    ctx.require_rational()
    x = as_values(p)
    if len(x) != ctx.n:
        raise DomainError("population and context dimensions differ")
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
    _check_norms(x, y, norm_tol(t))
    xs = sorted(x, reverse=True)
    ys = sorted(y, reverse=True)
    cx = cy = 0
    for a, b in zip(xs, ys):
        cx += a
        cy += b
        if cx < cy - t:
            return False
    return True


def _blocks_majorize(x, y, tol) -> bool:
    """Classical majorisation of two run-length vectors of equal length,
    given as (slot value, run length) blocks.  Between block boundaries both
    sorted partial sums are linear, so the union of the boundaries of both
    vectors decides."""
    xs = sorted(x, key=lambda blk: blk[0], reverse=True)
    ys = sorted(y, key=lambda blk: blk[0], reverse=True)
    i = j = 0
    (vx, lx), (vy, ly) = xs[0], ys[0]
    cx = cy = 0
    while True:
        run = min(lx, ly)
        cx += vx * run
        cy += vy * run
        if cx < cy - tol:
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
    In exact mode the slot values are the ratio keys over one common
    denominator and every partial sum is an integer."""
    ctx.require_rational()
    pv, qv = as_values(p), as_values(q)
    _check_dims(ctx, pv, qv)
    d = ctx.d
    if exact_mode(ctx, tol, pv, qv):
        (P, Q), _ = _scaled(pv, qv)
        _exact_norms(sum(P), sum(Q), pv, qv)
        lam = math.lcm(*d)
        return _blocks_majorize(tuple(zip(_ratio_keys(P, d, lam), d)),
                                tuple(zip(_ratio_keys(Q, d, lam), d)), 0)
    t = _float_tol(tol, pv, qv, ctx)

    def blocks(x):
        return tuple((xi / di if isinstance(xi, float) else Fraction(xi, di),
                      di) for xi, di in zip(x, d))

    return _blocks_majorize(blocks(pv), blocks(qv), t)


def thermo_majorizes(p, q, ctx: GibbsContext, tol: Number | None = None,
                     route: Route = "curve") -> bool:
    if route == "curve":
        return thermo_majorizes_curve(p, q, ctx, tol)
    if route == "abs":
        return thermo_majorizes_abs(p, q, ctx, tol)
    if route == "embedded":
        return thermo_majorizes_embedded(p, q, ctx, tol)
    if route == "all":
        results = {thermo_majorizes_curve(p, q, ctx, tol),
                   thermo_majorizes_abs(p, q, ctx, tol),
                   thermo_majorizes_embedded(p, q, ctx, tol)}
        if len(results) != 1:
            raise DomainError("majorisation routes disagree")
        return results.pop()
    raise DomainError(f"unknown route {route!r}")


def relative_entropy(x, ctx: GibbsContext,
                     tol: Number | None = None) -> float:
    """S(x||g) in nats, with 0 log 0 = 0; zero exactly at the thermal state."""
    xv = as_values(x)
    if abs(sum(xv) - 1) > auto_tol(tol, xv):
        raise DomainError("relative entropy expects a normalised population")
    total = 0.0
    for xi, gi in zip(xv, ctx.g):
        if xi > 0:
            total += float(xi) * math.log(float(xi) / float(gi))
    return total


def perpetuum_rate(x, ctx: GibbsContext, w: float) -> float:
    """Work-extraction rate S(x||g)/w of a hypothetical cycle fed by x."""
    if w <= 0:
        raise DomainError("work quantum must be positive")
    return relative_entropy(x, ctx) / w
