"""Closed-form stationary densities and long-time classification for two-regime
1-D switching systems with the extinction-type sign structure g0 < 0 < g1 on
(0, a), plus the Lie-bracket span checker used for kernel minorants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from .errors import (
    DerivativeDegenerate,
    DivergentIntegral,
    InvalidParam,
    QuadratureFailure,
)
from .flows import Flow
from .lazy import quad
from .models import SwitchingFields

Array = np.ndarray

R0_TIE_TOL = 1e-9       # |r0| below this: report Inconclusive
_RANK_TOL = 1e-7        # singular values above this times the largest count toward the rank
_EPS_LADDER = tuple(10.0 ** (-k) for k in range(3, 9))   # 1e-3 .. 1e-8


@dataclass(frozen=True)
class StationaryDensity:
    """Unnormalized pair (fbar0, fbar1), the mass alpha, and the normalized pair."""

    fields: SwitchingFields
    alpha: float                       # +inf when not integrable
    divergence_exponent: float         # tail integral over (eps, ~) scales like eps^(-exponent)
    fbar0: Callable[[float], float]
    fbar1: Callable[[float], float]
    f0: Optional[Callable[[float], float]]
    f1: Optional[Callable[[float], float]]

    @property
    def is_integrable(self) -> bool:
        return math.isfinite(self.alpha)


def _exp_neg_R(fields: SwitchingFields) -> Callable[[float], float]:
    g0, g1, q0, q1, a = fields.g0, fields.g1, fields.q0, fields.q1, fields.a
    x_mid, closed = 0.5 * a, fields.exp_neg_R

    def r(x: float) -> float:
        return q0(x) / g0(x) + q1(x) / g1(x)

    def e(x: float) -> float:
        if not 0.0 < x < a:
            raise InvalidParam("stationary density is defined on (0, a)")
        try:
            if closed is not None:
                return closed(x)
            val, err = quad(r, x_mid, x, limit=200, epsabs=1e-13, epsrel=1e-12)
            return math.exp(-val)
        except OverflowError as exc:
            raise DivergentIntegral(f"exp(-R) at x = {x} leaves the double range") from exc

    return e


def stationary_density(fields: SwitchingFields) -> StationaryDensity:
    """Solve the stationary transport system of a two-regime model on (0, a).

    The model must have g0 < 0 < g1 and positive switching intensities in the
    interior (:class:`InvalidParam` otherwise).  With r = q0/g0 + q1/g1 and R
    its antiderivative from a/2 (``fields.exp_neg_R`` where the model sets it,
    else a nested quadrature of r), the pair fbar0 = -exp(-R)/g0,
    fbar1 = exp(-R)/g1 solves the stationary system; the semigroup has an
    invariant density exactly when alpha = int (fbar0+fbar1) is finite.
    Integrability at 0 is decided on a shrinking-endpoint ladder whose piece
    growth also estimates the divergence exponent.
    """
    a, g0, g1 = fields.a, fields.g0, fields.g1
    if a is None:
        raise InvalidParam("the model has no invariant interval (0, a)")
    if not a > 0:
        raise InvalidParam("domain end a must be positive")
    xs = a * np.linspace(1e-4, 1.0 - 1e-4, 41)
    if any(g0(x) >= 0 for x in xs):
        raise InvalidParam("g0 must be negative on (0, a)")
    if any(g1(x) <= 0 for x in xs):
        raise InvalidParam("g1 must be positive on (0, a)")
    if any(fields.q0(x) <= 0 or fields.q1(x) <= 0 for x in xs):
        raise InvalidParam("switching intensities must be positive on (0, a)")
    e_neg_r = _exp_neg_R(fields)

    def fbar0(x: float) -> float:
        return -e_neg_r(x) / g0(x)

    def fbar1(x: float) -> float:
        return e_neg_r(x) / g1(x)

    def fsum(x: float) -> float:
        w = e_neg_r(x)
        return -w / g0(x) + w / g1(x)

    pieces = []
    for hi, lo in zip(_EPS_LADDER[:-1], _EPS_LADDER[1:]):
        val, err = quad(fsum, lo * a, hi * a, limit=200)
        if not math.isfinite(val):
            raise QuadratureFailure("stationary density quadrature produced non-finite pieces")
        pieces.append(max(val, 1e-300))
    # the deepest decade carries the smallest regular-part correction, so its
    # ratio is the sharpest exponent estimate; a slope fitted over the whole
    # ladder stands in only when that ratio is not finite
    exponent = float(np.log10(pieces[-1] / pieces[-2]))
    if not math.isfinite(exponent):
        eps_mid = np.sqrt(np.array(_EPS_LADDER[:-1]) * np.array(_EPS_LADDER[1:])) * a
        exponent = -float(np.polyfit(np.log10(eps_mid), np.log10(pieces), 1)[0])

    if exponent <= -1e-3:
        # integrable at 0: direct quadrature over the whole interval
        with np.errstate(all="ignore"):
            val, err, info, *msg = quad(fsum, 0.0, a, limit=400, full_output=True)
        if msg or not math.isfinite(val) or err > max(1e-8, 1e-6 * abs(val)):
            raise QuadratureFailure(
                f"quadrature of fbar over (0, a) failed (err {err:.2g})",
                divergence_exponent=exponent,
            )
        alpha = float(val)
        inv = 1.0 / alpha
        f0 = lambda x: inv * fbar0(x)
        f1 = lambda x: inv * fbar1(x)
    else:
        alpha = math.inf
        f0 = f1 = None

    return StationaryDensity(fields=fields, alpha=alpha, divergence_exponent=exponent,
                             fbar0=fbar0, fbar1=fbar1, f0=f0, f1=f1)


@dataclass(frozen=True)
class ClassificationReport:
    """Long-time verdict with the quantities it is based on."""

    r0: float
    lambda_mean: float
    alpha: float
    verdict: str                 # "Stable" | "Sweeping" | "Inconclusive"
    p0: float
    p1: float
    divergence_exponent: float

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "r0": self.r0,
            "lambda_mean": self.lambda_mean,
            "alpha": self.alpha,
            "verdict": self.verdict,
            "p0": self.p0,
            "p1": self.p1,
            "divergence_exponent": self.divergence_exponent,
        }


def _derivative(fn: Callable[[float], float], x: float) -> float:
    h = 1e-6 * (1.0 + abs(x))
    return (fn(x + h) - fn(x - h)) / (2.0 * h)


def _slope(fn, dfn, x: float) -> float:
    """fn'(x): the known derivative where the model has one, else a central difference."""
    return dfn(x) if dfn is not None else _derivative(fn, x)


def classify_density(dens: StationaryDensity) -> ClassificationReport:
    """Stable / Sweeping verdict from alpha-integrability, cross-checked by r0.

    When both fields vanish at 0 (extinction-type system), the constant
    r0 = q0(0)/g0'(0) + q1(0)/g1'(0) decides the same alternative; the sign
    premises g0'(0) < 0 < g1'(0) are asserted before the r0 route is used and
    |r0| below tolerance reports Inconclusive.  Systems whose active field
    does not vanish at 0 are classified from alpha alone (r0 reported NaN).
    """
    f = dens.fields
    q00, q10 = f.q0(0.0), f.q1(0.0)
    if q00 <= 0 or q10 <= 0:
        raise InvalidParam("switching intensities must stay positive at 0")
    p0 = q10 / (q00 + q10)
    p1 = q00 / (q00 + q10)
    verdict = "Stable" if dens.is_integrable else "Sweeping"
    r0 = math.nan
    lambda_mean = math.nan

    scale = 1e-12 * (1.0 + abs(f.g0(0.5 * f.a)) + abs(f.g1(0.5 * f.a)))
    vanishing = abs(f.g0(0.0)) <= scale and abs(f.g1(0.0)) <= scale
    if vanishing:
        dg0 = _slope(f.g0, f.dg0, 0.0)
        dg1 = _slope(f.g1, f.dg1, 0.0)
        dg1a = _slope(f.g1, f.dg1, f.a)
        for name, val in (("g0'(0)", dg0), ("g1'(0)", dg1), ("g1'(a)", dg1a)):
            if abs(val) < 1e-9:
                raise DerivativeDegenerate(f"{name} vanishes within tolerance")
        if not (dg0 < 0 < dg1):
            raise InvalidParam(
                "r0 classification requires g0'(0) < 0 < g1'(0); "
                f"got g0'(0)={dg0:.6g}, g1'(0)={dg1:.6g}"
            )
        r0 = q00 / dg0 + q10 / dg1
        lambda_mean = p0 * dg0 + p1 * dg1
        if abs(r0) <= R0_TIE_TOL:
            verdict = "Inconclusive"
        else:
            # sign(r0) is analytic and decides the alternative; the numeric
            # alpha route cross-checks it wherever its exponent is decisive
            verdict = "Stable" if r0 < 0 else "Sweeping"
            if abs(dens.divergence_exponent) > 5e-3 and \
                    (r0 < 0) != dens.is_integrable:
                verdict = "Inconclusive"  # the routes disagree; refuse to guess

    return ClassificationReport(r0=float(r0), lambda_mean=float(lambda_mean),
                                alpha=dens.alpha, verdict=verdict, p0=float(p0),
                                p1=float(p1),
                                divergence_exponent=dens.divergence_exponent)


def classify(fields: SwitchingFields) -> ClassificationReport:
    """Long-time verdict of a two-regime model; see :func:`classify_density`."""
    return classify_density(stationary_density(fields))


def gene_switching_system(params) -> SwitchingFields:
    """Gene-expression model as a switching system on (0, P/mu)."""
    return params.fields()


def birth_switch_system(params) -> SwitchingFields:
    """Birth-switch model as a switching system on (0, (b1-mu)/c)."""
    return params.fields()


# ---------------------------------------------------------------------------
# Hoermander span condition
# ---------------------------------------------------------------------------


class _Field:
    """Vector field with a Jacobian, analytic when given, else central differences."""

    __slots__ = ("fn", "_jac")

    def __init__(self, fn, jac=None):
        self.fn = fn
        self._jac = jac

    def __call__(self, x: Array) -> Array:
        return np.atleast_1d(np.asarray(self.fn(x), dtype=float))

    def jac(self, x: Array) -> Array:
        if self._jac is not None:
            return np.asarray(self._jac(x), dtype=float)
        d = x.size
        h = 1e-6 * (1.0 + float(np.linalg.norm(x)))
        cols = []
        for k in range(d):
            e = np.zeros(d)
            e[k] = h
            cols.append((self(x + e) - self(x - e)) / (2.0 * h))
        return np.column_stack(cols)


def _bracket(a: _Field, b: _Field) -> _Field:
    """Lie bracket [a, b](x) = Jb(x) a(x) - Ja(x) b(x)."""
    def fn(x):
        return b.jac(x) @ a(x) - a.jac(x) @ b(x)
    return _Field(fn)


@dataclass(frozen=True)
class HormanderResult:
    holds: bool
    rank: int
    directions: Array          # columns: evaluated spanning candidates
    singular_values: Array

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "holds": bool(self.holds),
            "rank": int(self.rank),
            "singular_values": [float(s) for s in self.singular_values],
        }


def _as_fields(fields: Sequence, jacobians: Optional[Sequence] = None) -> List[_Field]:
    out = []
    for i, f in enumerate(fields):
        if isinstance(f, Flow):
            out.append(_Field(lambda x, _f=f.tuple_rhs: _f(x.tolist()), f.jacobian))
        elif isinstance(f, _Field):
            out.append(f)
        else:
            jac = jacobians[i] if jacobians is not None else None
            out.append(_Field(f, jac))
    return out


def hormander_check(fields: Sequence, x, depth: int = 3,
                    jacobians: Optional[Sequence] = None) -> HormanderResult:
    """Do the flow differences and iterated Lie brackets span the state space at x?

    The candidate set is {g_i - g_1 : i > 1} together with brackets of the
    supplied fields nested up to ``depth`` levels, all evaluated at x.  Rank is
    the number of singular values above ``_RANK_TOL`` times the largest one.
    """
    if depth < 0:
        raise InvalidParam("bracket depth must be >= 0")
    fs = _as_fields(fields, jacobians)
    if len(fs) < 2:
        raise InvalidParam("need at least two vector fields")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    d = x.size

    vectors = [fs[i](x) - fs[0](x) for i in range(1, len(fs))]
    level = [_bracket(fs[i], fs[j]) for i in range(len(fs)) for j in range(i + 1, len(fs))]
    for _ in range(depth):
        vectors.extend(br(x) for br in level)
        level = [_bracket(f, br) for f in fs for br in level]
        if not level:
            break

    mat = np.column_stack(vectors) if vectors else np.zeros((d, 0))
    if mat.size == 0:
        return HormanderResult(False, 0, mat, np.array([]))
    svals = np.linalg.svd(mat, compute_uv=False)
    smax = float(svals[0]) if svals.size else 0.0
    rank = int(np.sum(svals > _RANK_TOL * smax)) if smax > 0 else 0
    return HormanderResult(rank == d, rank, mat, svals)

