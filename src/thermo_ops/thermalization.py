"""Collision-model relaxation, partial level thermalisations, repeated-step
convergence, the two-level embeddability test and the thermalisation
predicate (majorisation plus preserved beta-order).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import (DomainError, EdpStep, GibbsContext, Number, as_levels,
                   check_level_pair)
from .majorization import _curves, _dominates


def relax(p0, t: float, xi: float, ctx: GibbsContext) -> tuple[float, ...]:
    """Exponential relaxation toward the thermal distribution:
    ``exp(-t/xi) p0 + N (1 - exp(-t/xi)) g``."""
    if not 0 < xi < math.inf:  # negated tests, so that NaN fails too
        raise DomainError(f"the time constant xi must be positive and "
                          f"finite, got {xi}")
    if not t >= 0:
        raise DomainError(f"time must be nonnegative, got {t}")
    x = as_levels(p0, ctx)
    w = math.exp(-t / xi)
    norm = float(sum(x))
    return tuple(w * float(value) + norm * (1.0 - w) * float(gi)
                 for value, gi in zip(x, ctx.g))


@dataclass(frozen=True)
class PltStep:
    """Partial level thermalisation: mix a level pair toward its pairwise
    Gibbs state with weight epsilon, a DomainError unless it lies in [0, 1]."""

    lo: int
    hi: int
    epsilon: Number

    def __post_init__(self):
        if not 0 <= self.epsilon <= 1:  # negated, so that NaN fails too
            raise DomainError("epsilon must lie in [0, 1]")


def make_plt_step(ctx: GibbsContext, lo: int, hi: int,
                  epsilon: Number) -> PltStep:
    check_level_pair(ctx, lo, hi)
    return PltStep(lo, hi, epsilon)


def _pair_weights(ctx: GibbsContext, lo: int, hi: int):
    check_level_pair(ctx, lo, hi)
    # g holds Fractions in a rational context and floats in a float one
    glo, ghi = ctx.g[lo], ctx.g[hi]
    return glo / (glo + ghi), ghi / (glo + ghi)


def apply_plt(step: PltStep, x, ctx: GibbsContext) -> tuple[Number, ...]:
    """(x_lo, x_hi) -> (1 - eps)(x_lo, x_hi) + eps * N_pair * g_pair, other
    levels untouched."""
    xv = list(as_levels(x, ctx))
    wlo, whi = _pair_weights(ctx, step.lo, step.hi)
    npair = xv[step.lo] + xv[step.hi]
    eps = step.epsilon
    xv[step.lo] = (1 - eps) * xv[step.lo] + eps * npair * wlo
    xv[step.hi] = (1 - eps) * xv[step.hi] + eps * npair * whi
    return tuple(xv)


def markov_p_down_max(ctx: GibbsContext, lo: int, hi: int) -> Number:
    """Largest de-exciting probability of an embeddable step on the pair,
    1/(1 + exp(-beta_bar)); the full-thermalisation boundary."""
    wlo, _ = _pair_weights(ctx, lo, hi)
    return wlo


def plt_to_edp(step: PltStep, ctx: GibbsContext) -> EdpStep:
    """Every partial level thermalisation is an elementary step with
    p_down = eps / (1 + exp(-beta_bar))."""
    p_down = step.epsilon * markov_p_down_max(ctx, step.lo, step.hi)
    return EdpStep(step.lo, step.hi, p_down)


def edp_to_plt(step: EdpStep, ctx: GibbsContext) -> PltStep:
    """Inverse conversion; only embeddable steps qualify."""
    cap = markov_p_down_max(ctx, step.lo, step.hi)
    if step.p_down > cap:
        raise DomainError(
            f"p_down={step.p_down} exceeds the thermalisation bound {cap}; "
            "the step is not Markovian")
    return PltStep(step.lo, step.hi, step.p_down / cap)


def is_markovian_edp(step: EdpStep, ctx: GibbsContext) -> bool:
    """Embeddability of the 2x2 action as exp(L t) with a detailed-balanced
    generator; for this one-parameter family it reduces to a nonnegative
    determinant, i.e. p_down <= 1/(1 + exp(-beta_bar))."""
    return step.p_down <= markov_p_down_max(ctx, step.lo, step.hi)


def repeated_edp_limit(step: EdpStep, x, n: int,
                       ctx: GibbsContext) -> tuple[Number, ...]:
    """Closed form of the n-fold application on the pair:
    the lower occupation relaxes geometrically at rate (1 - p_down * Z) with
    Z = 1 + exp(-beta_bar), toward the pair thermal share."""
    if not isinstance(n, int) or n < 0:
        raise DomainError(f"n must be a nonnegative integer, got {n}")
    xv = list(as_levels(x, ctx))
    lam = step.p_down
    z = 1 + step.up_factor(ctx)
    npair = xv[step.lo] + xv[step.hi]
    shrink = (1 - lam * z) ** n
    xv[step.lo] = xv[step.lo] * shrink + (npair / z) * (1 - shrink)
    xv[step.hi] = npair - xv[step.lo]
    return tuple(xv)


def is_thermalisation_of(p, q, ctx: GibbsContext,
                         tol: Number | None = None) -> bool:
    """q is a thermalisation of p iff p >=_T q and both share a beta-order
    (under the deterministic tie rule).  Both orders are read off the pair
    of curves the majorisation check builds: over their common scale the
    numerators are the populations times one positive factor, which keeps
    every comparison the order makes."""
    lp, lq, slack = _curves(as_levels(p, ctx), as_levels(q, ctx), ctx, tol)
    return _dominates(lp, lq, slack, "curve") and lp.order == lq.order
