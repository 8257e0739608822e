"""Steady states of a driven optical cavity filled with saturable two-level atoms.

Conventions used throughout the package
---------------------------------------
Intensities are in saturation units: the intracavity intensity X = |x|^2
enters the atomic saturation denominator as 1 + delta^2 + X, and the drive
intensity Y is normalized the same way, so an empty resonant cavity
transmits X = Y.  Detunings are in half-linewidth units: ``delta`` is the
probe offset from atomic resonance in units of the dipole half-linewidth
``gamma_hz``, ``theta`` the offset from cavity resonance in units of the
cavity half-linewidth ``kappa_hz``.  All rates are half-linewidths in Hz.

The steady state obeys

    Y = X * [(1 + 2*C*G(X))^2 + (theta - 2*C*delta*G(X))^2]

where G is the saturable susceptibility averaged over the transverse beam
profile.  The profile is represented by radial bins (u_j, w_j): u_j is the
relative mode amplitude seen by atoms in bin j and w_j the bin's relative
atom number, normalized so that sum_j w_j u_j^2 = 1.  A flat profile is the
single bin (u=1, w=1), giving G = 1/(1 + delta^2 + X).  A Gaussian profile
uses Gauss-Legendre nodes in s = u^2 on (0, 1) with w_j = weight_j / s_j,
which converges to the analytic transverse average

    G(X) -> log(1 + X/(1 + delta^2)) / X.

A ``SteadyState`` holds only scalars.  Bin j's inversion d_j = A/(A + u_j^2 X)
and dipole p_j = u_j d_j x/(1 + i delta), A = 1 + delta^2, follow from x, X
and the profile; the spectra derive them where they use them.
"""

from __future__ import annotations

import enum
import math
import numbers
import sys
import warnings
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Iterator, NamedTuple

import numpy as np

__all__ = [
    "PlaneWave",
    "GaussianBins",
    "ModelParams",
    "Branch",
    "SteadyState",
    "TurningPoints",
    "bin_layout",
    "gaussian_susceptibility_limit",
    "state_equation",
    "state_equation_slope",
    "turning_points",
    "solve_steady_states",
    "peak_transmission",
    "cooperativity_from_amplitudes",
    "critical_point",
]


@dataclass(frozen=True)
class PlaneWave:
    """Flat transverse profile: every atom sees the full mode amplitude."""


@dataclass(frozen=True)
class GaussianBins:
    """Gaussian transverse profile discretized into ``m`` radial bins."""

    m: int = 32

    def __post_init__(self):
        if (isinstance(self.m, bool) or not isinstance(self.m, numbers.Integral)
                or self.m < 1):
            raise ValueError(f"bin count m must be an integer >= 1, got {self.m!r}")


Transverse = PlaneWave | GaussianBins


@dataclass(frozen=True)
class ModelParams:
    """Dimensionless operating point plus the physical rates behind it.

    c            -- cooperativity (collective atom-cavity coupling), >= 0
    delta        -- probe-atom detuning in units of gamma_hz
    theta        -- probe-cavity detuning in units of kappa_hz
    kappa_hz     -- cavity half-linewidth (amplitude decay) in Hz
    gamma_hz     -- atomic dipole half-linewidth in Hz
    gamma_par_ratio -- population decay rate over gamma_hz (2 = radiative limit)
    n_atoms      -- effective atom number; enters only the noise normalization
    transverse   -- beam profile handling, PlaneWave() or GaussianBins(m)
    loss_fraction -- fraction of the cavity decay not through the input mirror
    """

    c: float = 220.0
    delta: float = -20.0
    theta: float = 0.0
    kappa_hz: float = 2.5e6
    gamma_hz: float = 2.6e6
    gamma_par_ratio: float = 2.0
    n_atoms: float = 1.0e6
    transverse: Transverse = field(default_factory=PlaneWave)
    loss_fraction: float = 0.0

    def __post_init__(self):
        for name in ("c", "delta", "theta", "kappa_hz", "gamma_hz", "gamma_par_ratio",
                     "n_atoms"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not self.c >= 0:
            raise ValueError(f"cooperativity must be >= 0, got {self.c}")
        if not self.kappa_hz > 0:
            raise ValueError(f"kappa_hz must be > 0, got {self.kappa_hz}")
        if not self.gamma_hz > 0:
            raise ValueError(f"gamma_hz must be > 0, got {self.gamma_hz}")
        if not self.gamma_par_ratio > 0:
            raise ValueError(
                f"gamma_par_ratio must be > 0, got {self.gamma_par_ratio}"
            )
        if not self.n_atoms >= 1:
            raise ValueError(f"n_atoms must be >= 1, got {self.n_atoms}")
        if not 0.0 <= self.loss_fraction < 1.0:
            raise ValueError(
                f"loss_fraction must lie in [0, 1), got {self.loss_fraction}"
            )

    @property
    def gamma_par_hz(self) -> float:
        return self.gamma_par_ratio * self.gamma_hz


class Branch(enum.Enum):
    LOWER = "lower"
    MIDDLE = "middle"
    UPPER = "upper"
    MONOSTABLE = "mono"


@dataclass(frozen=True)
class SteadyState:
    x: complex          # intracavity amplitude, gauge: drive amplitude real > 0
    intensity: float    # X = |x|^2
    drive: float        # Y
    branch: Branch
    stable: bool        # sign of dY/dX; folds (slope 0) count as unstable
    slope: float        # dY/dX at the root
    theta_eff: float    # theta - 2 C delta G(X), the effective cavity detuning


@dataclass(frozen=True)
class TurningPoints:
    points: tuple[float, ...]     # X values with dY/dX = 0, ascending
    ordinates: tuple[float, ...]  # Y at those points
    bistable: bool


def _gauss_legendre_01(m: int) -> tuple[np.ndarray, np.ndarray]:
    # nodes/weights for integrating over s = u^2 on (0, 1)
    xi, lam = np.polynomial.legendre.leggauss(m)
    return (xi + 1.0) / 2.0, lam / 2.0


@lru_cache(maxsize=None)
def _layout(transverse: Transverse) -> tuple[np.ndarray, ...]:
    """(u, w, s = u^2, ws = w s) of a profile's bins, read-only and shared."""
    if isinstance(transverse, PlaneWave):
        u, w = np.array([1.0]), np.array([1.0])
    elif isinstance(transverse, GaussianBins):
        nodes, v = _gauss_legendre_01(transverse.m)
        u, w = np.sqrt(nodes), v / nodes
    else:
        raise TypeError(f"unknown transverse profile: {transverse!r}")
    s = u * u
    out = (u, w, s, w * s)
    for a in out:
        a.flags.writeable = False
    return out


def bin_layout(transverse: Transverse) -> tuple[np.ndarray, np.ndarray]:
    """Return read-only (u, w) arrays for a transverse profile.

    The weights satisfy sum_j w_j u_j^2 = 1, so the weak-field susceptibility
    is profile-independent.
    """
    return _layout(transverse)[:2]


def gaussian_susceptibility_limit(x_int, a_sat):
    """Infinite-bin Gaussian-profile susceptibility log(1 + X/A)/X.

    ``a_sat`` is the off-resonance saturation scale 1 + delta^2.  Used as the
    analytic reference the binned profile must converge to.
    """
    x_int = np.asarray(x_int, dtype=float)
    out = np.empty_like(x_int)
    small = x_int == 0.0
    out[~small] = np.log1p(x_int[~small] / a_sat) / x_int[~small]
    out[small] = 1.0 / a_sat
    if out.ndim == 0:
        return float(out)
    return out


class _Response(NamedTuple):
    g: np.ndarray          # G, the profile-averaged susceptibility
    g1: np.ndarray         # dG/dX
    g2: np.ndarray | None  # d2G/dX2
    absorb: np.ndarray     # 1 + 2 C G
    disperse: np.ndarray   # theta - 2 C delta G, the effective cavity detuning
    y: np.ndarray          # Y(X)
    y1: np.ndarray         # dY/dX
    y2: np.ndarray | None  # d2Y/dX2


def _bin_sums(x, transverse: Transverse, a_sat: float, n: int = 3) -> list:
    """G and its first n - 1 derivatives (n <= 4) at X >= 0, shaped like X.

    With the bin reciprocals r_j = 1/(A + s_j X), formed once, the k-th
    derivative is (-1)^k k! sum_j w_j s_j^(k+1) r_j^(k+1) (``_reduce_bins``).
    A plane wave's one bin (s = w = 1) gives G = r = 1/(X + A) in closed
    form, with the reduction's products bit for bit.  A float X gives Python
    floats for every profile: a single state's response then pays no numpy
    call beyond the bin reduction.
    """
    if isinstance(transverse, PlaneWave):
        r = 1.0 / (x + a_sat)
        r2 = r * r
        r3 = r2 * r
        return [r, -r2, 2.0 * r3, -6.0 * (r3 * r)][:n]
    return _reduce_bins(x, transverse, a_sat, n)


def _reduce_bins(x, transverse: Transverse, a_sat: float, n: int) -> list:
    """``_bin_sums`` as sums over the bins of ``transverse``: numpy arrays
    shaped like X, Python floats for a float X.  Each sum is numpy's
    reduction along the bin axis, which rounds a single X and every row of a
    stack alike; a matrix product does not."""
    _, _, s, ws = _layout(transverse)
    r = np.multiply.outer(x, s)
    r += a_sat
    np.reciprocal(r, out=r)
    sr = s * r
    t = ws * r
    sums = [np.add.reduce(t, -1)]
    for factor in (-1.0, 2.0, -6.0)[:n - 1]:
        t *= sr
        sums.append(factor * np.add.reduce(t, -1))
    return [float(v) for v in sums] if isinstance(x, float) else sums


def _fold_tables(x, transverse: Transverse, a_sat: float):
    """G and the fold tables P, Q, R and S of ``_grid_sums`` at X, at A."""
    g, g1, g2 = _bin_sums(x, transverse, a_sat)
    xg1 = x * g1
    return np.array((g, 4.0 * (g + xg1), 4.0 * a_sat * g * (g + 2.0 * xg1),
                     4.0 * (2.0 * g1 + x * g2),
                     8.0 * a_sat * (2.0 * g * g1 + x * (g1 * g1 + g * g2))))


@lru_cache(maxsize=16)
def _grid_sums(transverse: Transverse, xi_lo: float, xi_max: float):
    """The 4096-point log grid in xi = X/A from ``xi_lo`` to ``xi_max``, and
    the (5, 4096) table of G and the unit fold tables P, Q, R and S on it.

    With u = C (1 - delta theta) and v = C^2, Y = X [1 + theta^2 + 4 u G
    + 4 v A G^2], so dY/dX = 1 + theta^2 + u P + v Q and d2Y/dX2 = u R + v S
    with P = 4 (G + X G'), Q = 4 A (G^2 + 2 X G G'), R = P' and S = Q'.
    Since sum_j w_j s_j/(A + s_j X) = A^-1 sum_j w_j s_j/(1 + s_j xi), G, P
    and Q at A are these tables times A^-1, R and S times A^-2: one table
    serves every delta, C and theta.  Read-only: shared.
    """
    xi = np.geomspace(xi_lo, xi_max, 4096)
    # summed over blocks of grid points, so that memory stays flat in the bin count
    out = xi, np.concatenate([_fold_tables(xi[b], transverse, 1.0)
                              for b in _trace_blocks(xi.size, transverse)], axis=1)
    for a in out:
        a.flags.writeable = False
    return out


def _response(x_int, c, theta, p: ModelParams, n: int = 3) -> _Response:
    """The state equation and its first n - 1 derivatives at X >= 0, at C
    and theta (scalars, or arrays shaped like X: every step of a trace at
    once) and the delta and profile of ``p``.  n is 2 or 3; at 2, G'' and
    d2Y/dX2 are None and none of their products is formed.  A float X
    gives floats (see ``_bin_sums``).
    """
    x = x_int if isinstance(x_int, float) else np.asarray(x_int, dtype=float)
    a_sat = 1.0 + p.delta * p.delta
    return _response_from_sums(x, _bin_sums(x, p.transverse, a_sat, n), a_sat, c, p.delta,
                               theta)


def _response_from_sums(x, sums, a_sat: float, c, delta: float, theta) -> _Response:
    """The response at X from G and its derivatives there (``_bin_sums``,
    two or more of them), for C, delta and theta.

    C and theta may be scalars or arrays shaped like X, as along a trace.
    Squares are written as products: Python's and numpy's powers of a
    scalar can round apart from numpy's square of an array.
    """
    g, g1, g2 = (*sums, None)[:3]
    absorb = 1.0 + 2.0 * c * g
    disperse = theta - 2.0 * c * delta * g
    proj = absorb - delta * disperse
    factor = absorb * absorb + disperse * disperse
    y1 = factor + 4.0 * c * x * g1 * proj
    y2 = None if g2 is None else (8.0 * c * g1 * proj + 4.0 * c * x * g2 * proj
                                  + 8.0 * c * c * x * g1 * g1 * a_sat)
    return _Response(g, g1, g2, absorb, disperse, x * factor, y1, y2)


def _root_fdf(p: ModelParams, slope: bool = False):
    """``_newton_many``'s maker of x -> (Y(X) - Y, dY/dX) on the response of
    ``p``'s delta and profile, for brackets that each carry (C, theta, Y);
    with ``slope``, of x -> (dY/dX, d2Y/dX2) for brackets that carry (C,
    theta): its roots are the folds."""
    def make(params):
        def fdf(x):
            at = _response(x, params[0], params[1], p, 3 if slope else 2)
            return (at.y1, at.y2) if slope else (at.y - params[2], at.y1)
        return fdf
    return make


def _curvature_fdf(p: ModelParams):
    """As ``_root_fdf``, x -> (d2Y/dX2, d3Y/dX3): its roots are the local
    minima of dY/dX.

    proj = absorb - delta disperse = 1 - delta theta + 2 C A G has the
    derivative 2 C A G', so differentiating d2Y/dX2 gives Y''' = 12 C G''
    proj + 24 C^2 A G'^2 + 4 C X G''' proj + 24 C^2 A X G' G''.
    """
    delta = p.delta
    a_sat = 1.0 + delta * delta

    def make(params):
        c, theta = params

        def fdf(x):
            sums = _bin_sums(x, p.transverse, a_sat, 4)
            at = _response_from_sums(x, sums, a_sat, c, delta, theta)
            _, g1, g2, g3 = sums
            proj = at.absorb - delta * at.disperse
            y3 = (12.0 * c * g2 * proj + 24.0 * c * c * a_sat * g1 * g1
                  + 4.0 * c * x * g3 * proj + 24.0 * c * c * a_sat * x * g1 * g2)
            return at.y2, y3
        return fdf
    return make


def _as_output(a: np.ndarray):
    return float(a) if np.ndim(a) == 0 else a


def state_equation(x_int, p: ModelParams):
    """Drive intensity Y required to sustain intracavity intensity X.

    Accepts a scalar or array X >= 0; the map is single-valued in this
    direction even when the response X(Y) is multivalued.
    """
    return _as_output(_response(_checked(x_int, "intracavity intensity X"), p.c, p.theta, p).y)


def state_equation_slope(x_int, p: ModelParams):
    """Analytic dY/dX; negative slope marks the unstable branch."""
    return _as_output(_response(_checked(x_int, "intracavity intensity X"), p.c, p.theta, p).y1)


def _checked(value, name: str, positive: bool = False) -> np.ndarray:
    """``value`` as a float array; ValueError naming ``name`` unless it is
    finite and >= 0 (> 0 if ``positive``)."""
    v = np.asarray(value, dtype=float)
    # scalars compare as floats: under a microsecond on every solve
    lo, hi = ((float(v),) * 2 if v.ndim == 0
              else (v.min(initial=math.inf), v.max(initial=0.0)))
    if not ((lo > 0.0 if positive else lo >= 0.0) and hi < math.inf):
        sign = ">" if positive else ">="
        raise ValueError(f"{name} must be finite and {sign} 0, got {value}")
    return v


# A fold pair whose fold-cubic discriminant is below 2^-46 (64 ulps) of its
# largest terms is tangent to round-off, as at the onset of bistability.
_TANGENT_BITS = 46


def _plane_cubics(c: float, delta: float, theta: float, y_drive: float = 0.0):
    """Root cubic F and fold cubic H of the plane-wave state equation.

    With A = 1 + delta^2, multiplying the state equation by (X + A)^2 gives
    F(X) = N(X) - Y (X + A)^2 with N(X) = X Q(X + A) and
    Q(u) = (1 + theta^2) u^2 + 4C(1 - delta theta) u + 4 C^2 A.  Since
    F'(X) = H(X)/(X + A) with H(X) = N'(X)(X + A) - 2 N(X), the slope is
    dY/dX = H(X)/(X + A)^3 and the folds are the positive roots of H.

    Returns the float coefficients of F and H, highest power first, and
    whether H's discriminant is positive beyond round-off (three distinct
    real roots).  Everything is computed exactly in integers, with each
    input written as an integer over a common power of two 2^k, and each
    coefficient is rounded once: float-formed coefficients move the roots
    near the critical point by more than the fold pair is wide.  A
    coefficient beyond the float range raises ValueError naming the inputs.
    """
    inputs = c, delta, theta, y_drive
    (c, cd), (d, dd), (t, td), (y, yd) = (float(v).as_integer_ratio()
                                          for v in (c, delta, theta, y_drive))
    # each denominator is a power of two: bring all four to s = 2^k
    cb, db, tb, yb = cd.bit_length(), dd.bit_length(), td.bit_length(), yd.bit_length()
    k = max(cb, db, tb, yb) - 1
    s = 1 << k
    c, d, t, y = c << (k + 1 - cb), d << (k + 1 - db), t << (k + 1 - tb), y << (k + 1 - yb)
    s2 = s * s
    s3 = s2 * s
    s4 = s2 * s2
    s6 = s4 * s2
    # numerators over s^n, n in the trailing comments
    a = s2 + t * t                                    # 1 + theta^2, 2
    a_sat = s2 + d * d                                # A, 2
    bs = 4 * c * (s2 - d * t) * s                     # 4C(1 - delta theta) s, 4
    aa = a * a_sat                                    # 4
    n2 = 2 * aa + bs                                  # 4
    n1 = (aa + bs + 4 * c * c * s2) * a_sat           # 6
    h3, h2, h1, h0 = a, 3 * aa, 2 * n2 * a_sat - n1, n1 * a_sat  # 2, 4, 6, 8
    ys3 = y * s3
    f = (a * s4, n2 * s2 - ys3 * s2, n1 - 2 * ys3 * a_sat,
         -y * a_sat * a_sat * s)                      # all 6
    # H's discriminant: every term has weight 20 in s, so its sign is exact
    h22, h11, h30 = h2 * h2, h1 * h1, h3 * h0
    terms = (18 * h30 * h2 * h1, -4 * h22 * h2 * h0, h22 * h11, -4 * h3 * h11 * h1,
             -27 * h30 * h30)
    distinct = (sum(terms) << _TANGENT_BITS) > max(map(abs, terms))
    try:
        return ((f[0] / s6, f[1] / s6, f[2] / s6, f[3] / s6),
                (h3 / s2, h2 / s4, h1 / s6, h0 / (s4 * s4)), distinct)
    except OverflowError:
        raise _beyond_float_range(PlaneWave(), *inputs) from None


def _beyond_float_range(transverse: Transverse, c, delta, theta, y) -> ValueError:
    """The input error of a state equation whose terms overflow floats."""
    name = "plane-wave" if isinstance(transverse, PlaneWave) else f"{transverse!r}"
    return ValueError(f"the {name} state equation at C={c!r}, delta={delta!r}, "
                      f"theta={theta!r}, Y={y!r} has coefficients beyond the float range")


def _cubic(coeffs, x):
    """The cubic at x; coefficients and x are scalars or arrays alike."""
    c3, c2, c1, c0 = coeffs
    return ((c3 * x + c2) * x + c1) * x + c0


def _cubic_fdf(coeffs):
    """x -> (the cubic, its derivative) at x, scalars or arrays alike."""
    c3, c2, c1, _ = coeffs
    t3, t2 = 3.0 * c3, 2.0 * c2
    return lambda x: (_cubic(coeffs, x), (t3 * x + t2) * x + c1)


def _newton(fdf, lo: float, hi: float, x: float, rising: bool,
            dx: float | None = None) -> float:
    """Root of f on [lo, hi], over which it changes sign once, from x.

    ``fdf(x)`` returns (f(x), f'(x)); ``rising`` says f(lo) < 0.  Falls back
    to bisection whenever a Newton step leaves the bracket or fails to halve
    the step before it, ``dx`` at the first step (default hi - lo).  Stops
    at round-off; RuntimeError naming the bracket if 200 steps do not reach it.
    """
    if dx is None:
        dx = hi - lo
    bracket = lo, hi
    for _ in range(200):
        fx, dfx = fdf(x)
        if fx == 0.0:
            return x
        if (fx < 0.0) == rising:
            lo = x
        else:
            hi = x
        dx_old, dx = dx, (fx / dfx if dfx != 0.0 else math.inf)
        if abs(dx) <= 2.0 * sys.float_info.epsilon * abs(x):
            return x - dx
        x_new = x - dx
        if not (lo < x_new < hi and abs(dx) < 0.5 * abs(dx_old)):
            x_new = 0.5 * (lo + hi)
            dx = x - x_new
            if hi - lo <= 2.0 * sys.float_info.epsilon * abs(x_new):
                return x_new
        x = x_new
    raise RuntimeError("Newton's method found no root to round-off in [{!r}, {!r}] in "
                       "200 steps; the last bracket is [{!r}, {!r}]".format(*bracket, lo, hi))


# Below this many brackets a lockstep iteration, numpy's fixed cost per call
# times some forty calls, costs more than scalar iterations of every bracket.
_LOCKSTEP_MIN = 16


def _newton_many(make_fdf, params, lo: np.ndarray, hi: np.ndarray, x: np.ndarray,
                 rising: np.ndarray) -> np.ndarray:
    """``_newton`` in each of many brackets, in lockstep.

    ``params`` holds arrays with one entry per bracket, and
    ``make_fdf(params)`` gives the fdf of those brackets: on arrays for the
    pass, on a tuple of floats for one bracket (C, theta and Y for
    ``_root_fdf``; C and theta for its ``slope`` form).  Every bracket goes
    through ``_newton``'s IEEE operations, bisection fallback and stopping
    rules, so where the fdf rounds an entry of an array as it rounds a
    float, its root equals the scalar one bit for bit.  Finished brackets
    leave the pass; once fewer than ``_LOCKSTEP_MIN`` are left, ``_newton``
    takes each of them on from where the pass left it, its cap of 200 steps
    counted afresh (no bracket comes near the cap).
    """
    eps2 = 2.0 * sys.float_info.epsilon
    fdf = make_fdf(params)
    out = np.empty_like(x)
    k = np.arange(x.size)
    dx = hi - lo
    for _ in range(200):
        if k.size < _LOCKSTEP_MIN:
            break
        fx, dfx = fdf(x)
        below = (fx < 0.0) == rising
        lo = np.where(below, x, lo)
        hi = np.where(below, hi, x)
        step_old = np.abs(dx)
        dx = np.divide(fx, dfx, out=np.full_like(fx, math.inf), where=dfx != 0.0)
        x_newton = x - dx
        step = np.abs(dx)
        mid = 0.5 * (lo + hi)
        bisect = ~((lo < x_newton) & (x_newton < hi) & (step < 0.5 * step_old))
        zero = fx == 0.0
        converged = step <= eps2 * np.abs(x)
        narrow = bisect & (hi - lo <= eps2 * np.abs(mid))
        dx = np.where(bisect, x - mid, dx)
        x_next = np.where(bisect, mid, x_newton)
        done = zero | converged | narrow
        if done.any():
            # the scalar tests run in this order: f = 0, round-off step, narrow bracket
            out[k[done]] = np.where(zero, x, np.where(converged, x_newton, mid))[done]
            run = ~done
            k, lo, hi, dx, rising = k[run], lo[run], hi[run], dx[run], rising[run]
            params = tuple(a[run] for a in params)
            fdf = make_fdf(params)
            x_next = x_next[run]
        x = x_next
    for state in zip(k.tolist(), lo.tolist(), hi.tolist(), x.tolist(), rising.tolist(),
                     dx.tolist(), *(a.tolist() for a in params)):
        out[state[0]] = _newton(make_fdf(state[6:]), *state[1:6])
    return out


def _cubic_segment_roots(coeffs, edges: list[float]) -> list[float]:
    """Roots of the cubic on the segments between ascending ``edges``, over
    each of which it is monotone: every edge where it is 0, then one
    ``_newton`` root in each segment over which it changes sign.  Newton
    starts from the end where f and f'' share a sign, so that it closes in
    from one side when no inflection lies between, else from the midpoint;
    from X = 0 when its Newton step -f(0)/f'(0) lands below 1e-8 of the
    segment's top, as a root far below it is out of reach from the top
    (x - f/f' cancels) and of 200 bisections.  Edge values stay Python
    floats: numpy scalars would double the cost.
    """
    c3, c2, c1, c0 = coeffs
    fdf, fvals = _cubic_fdf(coeffs), [_cubic(coeffs, x) for x in edges]
    curvs = [3.0 * c3 * x + c2 for x in edges]
    roots = [x for x, fx in zip(edges, fvals) if fx == 0.0]
    for lo, hi, flo, fhi, clo, chi in zip(edges, edges[1:], fvals, fvals[1:],
                                          curvs, curvs[1:]):
        if (flo < 0.0 < fhi) or (fhi < 0.0 < flo):
            if lo == 0.0 and c1 != 0.0 and 0.0 < -c0 / c1 < 1e-8 * hi:
                x = 0.0
            else:
                x = hi if fhi * chi > 0.0 else lo if flo * clo > 0.0 else 0.5 * (lo + hi)
            roots.append(_newton(fdf, lo, hi, x, flo < 0.0))
    return roots


def _plane_folds(h, distinct: bool) -> tuple[float, ...]:
    """Positive roots of the fold cubic H: none, or a fold pair.

    H(0) > 0 and H has positive leading coefficient, so its positive roots
    come in pairs around its local minimum.  ``distinct`` is False when H
    has no two distinct real roots beyond the one at negative X.
    """
    h3, h2, h1, h0 = h
    if not (distinct and h1 < 0.0):
        return ()
    # larger root of H' = 3 h3 X^2 + 2 h2 X + h1, free of cancellation
    x_min = -h1 / (h2 + math.sqrt(h2 * h2 - 3.0 * h3 * h1))
    h_min = _cubic(h, x_min)
    if not h_min < 0.0:
        return ()
    # Fujiwara's bound on the magnitude of every root
    x_top = 2.0 * max(h2 / h3, math.sqrt(-h1 / h3), (0.5 * h0 / h3) ** (1.0 / 3.0))
    return tuple(_cubic_segment_roots(h, [0.0, x_min, x_top]))


def turning_points(p: ModelParams, x_max: float | None = None) -> TurningPoints:
    """Locate the folds of the steady-state response below ``x_max``.

    ``x_max`` defaults to 100 (1 + delta^2).  For a plane wave the folds are
    the positive roots of the fold cubic H (see ``_plane_cubics``), whose
    coefficients are formed exactly; a fold pair tangent to round-off, as at
    the onset of bistability, counts as no fold.  A binned profile's folds
    are where its C crosses the fold locus C_fold(X) and its partner root
    (``_level_crossings``, in sigma = -1/C) on the cached grid, each refined by Newton on
    dY/dX; a narrow pair's knot is ``critical_point``'s cusp, so the fold
    count flips exactly at its C.  Where that Newton's products could pass
    the float range up to the top of its fold cells (``_float_range``), a
    binned profile raises the input error, as a plane wave does where its
    fold cubic would.  Returns 0, 1 or 2 points; exactly 2 means the
    response is bistable within the window (``x_max`` finite and > 0).
    """
    a_sat = 1.0 + p.delta * p.delta
    if x_max is None:
        xi_max, x_max = 100.0, 100.0 * a_sat
    else:
        _checked(x_max, "x_max", positive=True)
        xi_max = x_max / a_sat
    if isinstance(p.transverse, PlaneWave):
        _, h, distinct = _plane_cubics(p.c, p.delta, p.theta)
        folds = _plane_folds(h, distinct)
    else:
        # dY/dX >= |z| (|z| - 4 C xi sum w s^2 / sqrt(A)) with |z|^2 = Y/X > 1: no fold below
        _, _, s, ws = _layout(p.transverse)
        bottom = 0.5 * a_sat * math.sqrt(a_sat) / (4.0 * p.c * (ws @ s)) if p.c else math.inf
        c, theta = float(p.c), float(p.theta)
        (_, lo, hi, start, rising), _ = _level_crossings(_Locus(p, True, None, p.theta),
                                                         *_locus_grid(p, xi_max, None, bottom),
                                                         np.array([c]))
        if lo.size > 2:
            raise RuntimeError(f"found {lo.size} folds at {p!r}, more than two")
        top = float(hi.max()) if hi.size else 1.0
        _float_range(p, c, theta, 0.0, _root_bound(c, theta, p), top, "fold")
        params = (np.full(lo.size, c), np.full(lo.size, theta))
        folds = sorted(_newton_many(_root_fdf(p, True), params, lo, hi, start, rising).tolist())
    points = tuple(x for x in folds if x < x_max)
    ys = tuple(float(_response(x, p.c, p.theta, p).y) for x in points)
    return TurningPoints(points, ys, len(points) == 2)


class _Locus(NamedTuple):
    """Where X is a steady state at drive ``y`` (a fold, with ``fold``) as a
    level of C or theta, the other of ``c``, ``theta`` fixed (the swept is None)."""
    p: ModelParams
    fold: bool
    c: float | None
    theta: float | None
    y: float = 0.0

    def sums(self, x):
        return _fold_tables(x, self.p.transverse, 1.0 + self.p.delta * self.p.delta)


def _locus_grid(p: ModelParams, xi_max: float, top: float | None = None,
                bottom: float = 0.0):
    """The vertices X = A xi in (``bottom``, A ``xi_max``] of ``_grid_sums``'
    grid and G, P, Q, R and S there, at A.  With ``top`` (a drive Y): X = 0
    (sums copied), then up to the first vertex >= Y, or Y: the roots' range."""
    a_sat = 1.0 + p.delta * p.delta
    xi, table = _grid_sums(p.transverse, min(1e-9, 1e-6 * xi_max), xi_max)
    x = a_sat * xi
    i = min(int(x.searchsorted(bottom, "right")), x.size - 2)
    j = x.size if top is None else min(int(x.searchsorted(top)) + 1, x.size)
    # with ``top``: X = 0 first and, if the window's top rounded below Y, Y last
    first, last = int(top is not None), int(top is not None and x[j - 1] < top)
    out = np.empty((6, first + j - i + last))  # X, then G, P, Q, R and S
    grid = out[:, first:first + j - i]
    grid[0] = x[i:j]
    np.divide(table[:3, i:j], a_sat, out=grid[1:4])
    np.divide(table[3:, i:j], a_sat * a_sat, out=grid[4:])
    if last:
        out[0, -1], out[1:, -1] = top, _fold_tables(top, p.transverse, a_sat)
    if first:
        out[0, 0], out[1:, 0] = 0.0, out[1:, 1]
    return out[0], out[1:]


def _locus_terms(loc: _Locus, x, g, tp, tq, tr, ts):
    """The two branches of ``loc`` at X from G, P, Q, R and S there.

    The state equation is u0 (1 + theta^2) + C (1 - delta theta) u1 + C^2 u2
    = u3 with u = (X, 4 G X, 4 A G^2 X, Y), the fold dY/dX = 0 has u = (1, P,
    Q, 0), and their X-derivatives v = (1, P, Q), (0, R, S): a p^2 + b p + c0
    = 0 in the swept p.  The fold locus in C, whose a = Q changes sign, is
    formed in sigma = -1/C instead: a and c0 swap and b changes sign, so a =
    1 + theta^2 never vanishes and no branch passes infinity.  Returns the
    branches (plus, minus) = (-b +- sqrt(disc))/(2a) free of cancellation,
    stacked on a leading axis of two, the slope at each, stacked alike, and
    sqrt(disc) (a closed form but for the fold locus in theta; NaN where
    disc < 0).  The p-derivative of the left side is +sqrt(disc) on plus,
    -sqrt(disc) on minus.
    """
    delta = loc.p.delta
    a_sat = 1.0 + delta * delta
    if loc.fold:
        u0, u1, u2, u3, v0, v1, v2 = 1.0, tp, tq, 0.0, 0.0, tr, ts
    else:
        g4 = 4.0 * g
        gx = g4 * x
        u0, u1, u2, u3, v0, v1, v2 = x, gx, a_sat * g * gx, loc.y, 1.0, tp, tq
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        if loc.c is None:
            theta, k = loc.theta, 1.0 - delta * loc.theta
            a, b, c0 = u2, k * u1, u0 * (1.0 + theta * theta) - u3
            offset, lin, quad, falling = v0 * (1.0 + theta * theta), k * v1, v2, k < 0.0
            if loc.fold:  # the left side times sigma^2, in sigma = -1/C
                a, b, c0, offset, lin, quad = c0, -b, a, quad, -lin, offset
                falling = not falling
            # b^2 - 4 a c0, as k^2 + (delta + theta)^2 = A (1 + theta^2) has it
            s = (delta + theta) * (delta + theta)
            disc = (k * k * (tp - 4.0 * g) ** 2 - 4.0 * s * tq / a_sat if loc.fold
                    else g4 * gx * (a_sat * loc.y - x * s))
        else:
            c = loc.c
            a, b, c0 = u0 + 0.0 * u1, -c * delta * u1, u0 + c * u1 + c * c * u2 - u3
            offset, lin, quad = v0 + c * v1 + c * c * v2, -c * delta * v1, v0
            falling = c * delta > 0.0
            disc = (b * b - 4.0 * a * c0 if loc.fold
                    else 4.0 * x * (loc.y - x * (1.0 + 2.0 * c * g) ** 2))
        root = np.sqrt(disc)
        q = 0.5 * (root - b) if falling else -0.5 * (b + root)
        w = np.empty((2, *np.shape(q)))
        np.divide(q, a, out=w[1 - falling, ...])
        np.divide(c0, q, out=w[int(falling), ...])
        slopes = offset + w * (lin + w * quad)
    return w, slopes, root


def _knot(loc: _Locus, sign: float, lo: float, hi: float, rising: bool,
          x: float | None = None) -> tuple[float, float]:
    """The extremum (X, p) of branch ``sign`` of ``loc`` in [lo, hi]: Newton on
    its slope from ``x`` (default mid-cell), exact where dp/dX = 0; without
    ``x``, ``critical_point``'s cusp if it lies there.  p is sigma = -1/C on
    the fold locus in C (see ``_locus_terms``)."""
    in_sigma = loc.fold and loc.c is None
    if x is None and in_sigma:
        try:
            c, x_crit, _ = critical_point(replace(loc.p, theta=loc.theta))
        except RuntimeError:
            c, x_crit = None, math.nan
        if lo <= x_crit <= hi:
            return x_crit, -1.0 / c
    make = _curvature_fdf(loc.p) if loc.fold else _root_fdf(loc.p, True)

    def at(t):
        return float(_locus_terms(loc, t, *loc.sums(t))[0][0 if sign > 0.0 else 1])

    def fdf(t):
        v = at(t)
        return make((-1.0 / v if in_sigma else v, loc.theta) if loc.c is None else (loc.c, v))(t)

    x = _newton(fdf, lo, hi, 0.5 * (lo + hi) if x is None else float(x), rising)
    return float(x), at(x)


def _level_crossings(loc: _Locus, x: np.ndarray, sums, levels: np.ndarray):
    """Where each of ``levels`` crosses the locus ``loc`` on the vertices X.

    Between knots, cells over which its slope changes sign, a branch is
    monotone, and ``searchsorted`` finds each level on each such run.  The
    branches meet in tip cells, where disc changes sign.  A root locus starts
    at X = 0 (F = -Y < 0) at p = +inf and -inf; the fold locus in C runs in
    sigma = -1/C (``_locus_terms``), where its levels C cross as -1/C, and
    the level ranges of its knots return in C.  For the levels in its range
    (its ends' padded by its width times the larger |dp/dX|) a knot cell is
    split at its polished knot (``_knot``).  Two knots of one cell bracket a
    cusp, where |slope| has a small local minimum that keeps its sign; that
    cell takes the cusp, a fold locus knot, as a vertex too.  A crossing is
    a sign change of p - level >= 0, so what a level finds depends on it
    alone.  Work on the vertices is whole-array; per cell, run and knot it
    is skipped unless a level lies in that piece's range, so a single level
    pays for the few cells it can reach.  Returns (i, lo, hi, start,
    rising): index of the level, cell, start, and whether the left side
    minus the right is negative at lo; and the knots.
    """
    in_sigma = loc.fold and loc.c is None
    if in_sigma:
        with np.errstate(divide="ignore"):  # C = 0 is sigma = -inf
            levels = -1.0 / levels
    branches, slopes, root = _locus_terms(loc, x, *sums)
    if x[0] == 0.0 and not loc.fold:
        branches[:, 0], slopes[:, 0] = (math.inf, -math.inf), 1.0
    plus, minus = branches
    n = x.size
    real = root >= 0.0
    tips = (real[:-1] != real[1:]).nonzero()[0].tolist()
    runs = list(zip([0] * bool(real[0]) + [j + 1 for j in tips if not real[j]],
                    [j for j in tips if real[j]] + [n - 1] * bool(real[-1])))
    l_min, l_max = float(levels.min()), float(levels.max())
    # crossings as (level, cell lo, cell hi, p there, p at hi, branch): the hits
    # on the vertices, then the refined ones (tips, knots and cusps)
    cusps, knots, hits, refined = [], [], [], []
    if not loc.fold:
        # cusp candidates on either branch: |slope| X < Y/10 first, the rest on those alone
        b, v = (np.abs(slopes[:, 2:-1]) * x[2:-1] < 0.1 * loc.y).nonzero()
        if v.size:
            m, s, v = np.abs(slopes), slopes, v + 2
            for v in v[(m[b, v] < m[b, v - 1]) & (m[b, v] <= m[b, v + 1]) & real[v - 1]
                       & real[v + 1] & ((s[b, v - 1] < 0.0) == (s[b, v + 1] < 0.0))].tolist():
                cusps += _level_crossings(loc._replace(fold=True), x[v - 1:v + 3],
                                          sums[:, v - 1:v + 3], levels)[1]
    for j in tips + [n - 1] * (not loc.fold and bool(real[-1])):
        # a tip: branch 0 (1) if the locus is real at its lower (upper) end
        v = j + (j + 1 < n and bool(real[j + 1]))
        i = ((plus[v] >= levels) != (minus[v] >= levels)).nonzero()[0]
        if i.size:
            refined.append((i, *np.full((4, i.size), [[x[j]], [x[min(j + 1, n - 1)]],
                                                    [plus[v]], [math.nan]]), v - j))
    neg = slopes < 0.0
    flips = neg[:, :-1] != neg[:, 1:]
    for b, (w, s) in enumerate(zip(branches, slopes)):
        special = {}  # knot and cusp cells: the range of levels they refine
        for j in flips[b].nonzero()[0].tolist():
            if (real[j] and real[j + 1] and root[j] > 0.0 and root[j + 1] > 0.0
                    and (j > 0 or x[0] > 0.0 or loc.fold)):
                pad = max(abs(s[j] / root[j]), abs(s[j + 1] / root[j + 1])) * (x[j + 1] - x[j])
                special[j] = [min(w[j], w[j + 1]) - pad, max(w[j], w[j + 1]) + pad]
        for xc, c_lo, c_hi in cusps:
            j = int(np.searchsorted(x, xc)) - 1
            if 0 <= j < n - 1 and x[j] < xc and real[j] and real[j + 1]:
                r = special.setdefault(j, [min(w[j], w[j + 1]), max(w[j], w[j + 1])])
                r[:] = min(r[0], c_lo), max(r[1], c_hi)
        cut = sorted(special)
        for first, last in runs:
            for j in [j for j in cut if first <= j < last] + [last]:
                ends = sorted((float(w[first]), float(w[j])))
                if not (j == first or ends[1] < l_min or ends[0] > l_max):
                    v = w[first:j + 1]  # a monotone piece that some level reaches
                    k = (v.searchsorted(levels, "left") if v[-1] >= v[0]
                         else v.size - v[::-1].searchsorted(levels, "left"))
                    i = ((k > 0) & (k < v.size)).nonzero()[0]
                    if i.size:
                        c = first + k[i] - 1
                        hits.append((i, x[c], x[c + 1], w[c], w[c + 1], b))
                first = j + 1
        for j, (lo, hi) in special.items():
            if hi < l_min or lo > l_max or not (
                    mine := ((levels >= lo) & (levels <= hi)).nonzero()[0]).size:
                continue
            xs, vs, ss = [x[j], x[j + 1]], [w[j], w[j + 1]], [s[j], s[j + 1]]
            for xc in sorted(cp[0] for cp in cusps if x[j] < cp[0] < x[j + 1]):
                terms = _locus_terms(loc, xc, *loc.sums(xc))
                xs[-1:-1], vs[-1:-1], ss[-1:-1] = [xc], [float(terms[0][b])], [float(terms[1][b])]
            for m in reversed(range(len(xs) - 1)):
                if (ss[m] < 0.0) != (ss[m + 1] < 0.0):
                    xk, vk = _knot(loc, 1.0 - 2.0 * b, xs[m], xs[m + 1], ss[m] < 0.0)
                    xs[m + 1:m + 1], vs[m + 1:m + 1] = [xk], [vk]
                    knots.append((xk, -1.0 / lo, -1.0 / hi if hi < 0.0 else math.inf)
                                 if in_sigma else (xk, lo, hi))
            xs, vs = np.array(xs), np.array(vs)
            row, m = np.nonzero(np.diff(vs >= levels[mine, None], axis=1))
            if row.size:
                refined.append((mine[row], xs[m], xs[m + 1], vs[m], vs[m + 1], b))
    cells = hits + refined
    if not cells:
        return (np.empty(0, dtype=int), *np.empty((3, 0)), np.empty(0, dtype=bool)), knots
    if len(cells) == 1:
        i, lo, hi, w_lo, w_hi, b = cells[0]
    else:
        i, lo, hi, w_lo, w_hi = (np.concatenate(col) for col in list(zip(*cells))[:5])
        b = np.repeat([c[5] for c in cells], [c[0].size for c in cells])
    # Newton starts where the chord crosses the level, or mid-cell; in a root
    # locus' first cell at X = 0, since a root far below the first vertex is out
    # of reach from the chord point (x - f/f' cancels) and of 200 bisections
    level = levels[i]
    with np.errstate(invalid="ignore", divide="ignore"):
        t = (level - w_lo) / (w_hi - w_lo)
    start = np.where((t > 0.0) & (t < 1.0), lo + t * (hi - lo), 0.5 * (lo + hi))
    start[lo == 0.0] = 0.0
    # a level equal to a vertex's value (a cusp's C, say) has its root there,
    # where Y(X) - Y need not change sign across the cell: an empty cell
    at_lo, at_hi = t == 0.0, t == 1.0
    start = np.where(at_lo, lo, np.where(at_hi, hi, start))
    lo, hi = np.where(at_hi, hi, lo), np.where(at_lo, lo, hi)
    rising = np.where(b == 0, level < w_lo, level > w_lo)
    return (i, lo, hi, start, rising), knots


def _fold_window(xi: float) -> float:
    """The smallest power of ten >= max(xi, 100) (``xi`` above 1e308): a root
    solve at drive Y forms its loci up to X/A = this window of Y/A, so that a
    few cached grids serve every drive and the smallest is ``turning_points``'."""
    if xi <= 100.0:
        return 100.0
    k = math.ceil(math.log10(xi))
    # log10 can round across an integer: take the least candidate >= xi
    return next((10.0 ** e for e in (k - 1, k, k + 1) if e <= 308 and 10.0 ** e >= xi), xi)


def _state_terms(x_int, y_drive, c, theta, p: ModelParams):
    """The complex amplitude x and the response at roots X of drive Y.

    X, Y, C and theta are scalars or arrays of one shape (see
    ``_response``).  x = (X / sqrt(Y)) (absorb - i disperse) in the gauge
    of a real, positive drive amplitude, and x = 0 at Y = 0.
    """
    at = _response(x_int, c, theta, p, 2)
    if isinstance(y_drive, np.ndarray):
        scale = np.divide(x_int, np.sqrt(y_drive), out=np.zeros_like(x_int),
                          where=y_drive > 0.0)
    else:
        scale = x_int / math.sqrt(y_drive) if y_drive > 0.0 else 0.0 * x_int
    return scale * (at.absorb - 1j * at.disperse), at


def _assemble_state(x_root: float, y_drive: float, p: ModelParams,
                    branch: Branch) -> SteadyState:
    amp, at = _state_terms(x_root, y_drive, p.c, p.theta, p)
    slope, theta_eff = float(at.y1), float(at.disperse)
    if not (math.isfinite(slope) and math.isfinite(theta_eff)):
        # a plane wave's response is in Python floats, which overflow silently
        warnings.warn(f"the response at X={x_root!r}, Y={y_drive!r} overflows the "
                      f"float range: dY/dX = {slope!r}, theta_eff = {theta_eff!r}",
                      RuntimeWarning, stacklevel=3)
    return SteadyState(
        x=complex(amp),
        intensity=float(x_root),
        drive=float(y_drive),
        branch=branch,
        stable=slope > 0.0,
        slope=slope,
        theta_eff=theta_eff,
    )


def _distinct(roots) -> list[float]:
    """``roots`` ascending, less each one within 1e-9 (relative) of the last
    one kept: adjacent brackets can polish a double root twice."""
    deduped: list[float] = []
    for x in sorted(roots):
        if not deduped or x - deduped[-1] > 1e-9 * max(x, 1e-300):
            deduped.append(x)
    return deduped


def _branch_labels(n_roots: int) -> list[Branch]:
    """Branch of each of ``n_roots`` distinct roots, ascending in X."""
    if n_roots == 3:
        return [Branch.LOWER, Branch.MIDDLE, Branch.UPPER]
    if n_roots == 2:
        # drive sits exactly on a fold ordinate: middle and one outer root merged
        return [Branch.LOWER, Branch.UPPER]
    return [Branch.MONOSTABLE] * n_roots


def solve_steady_states(y_drive: float, p: ModelParams) -> list[SteadyState]:
    """All steady states at drive intensity Y, sorted by increasing X.

    For a plane wave the roots are those of the exact root cubic F (see
    ``_plane_cubics``), bracketed between the folds below Y and polished by
    safeguarded Newton on F.  A binned profile's C crosses the root locus
    C(X) at Y, as a trace's steps do (``_binned_roots``).  Within about
    2e-10 (relative) of ``critical_point``'s C, where a root triple spans
    about 1e-5 of X and F is at round-off there, round-off decides whether
    it finds one root or three.  Three roots are labeled lower/middle/upper
    and the middle one is always unstable; one root is labeled monostable.
    """
    _checked(y_drive, "drive intensity Y")
    if y_drive == 0.0:
        return [_assemble_state(0.0, 0.0, p, Branch.MONOSTABLE)]

    roots = (_distinct(_plane_roots(y_drive, p)) if isinstance(p.transverse, PlaneWave)
             else _binned_roots(float(y_drive), p))
    return [_assemble_state(x, y_drive, p, lab)
            for x, lab in zip(roots, _branch_labels(len(roots)))]


# bins times states per block of a pass over a trace: the (6, states, M) bin
# weights of a block of ``spectra._trace_noise`` then take about 3 MB
_BLOCK_BINS = 1 << 16


def _trace_blocks(n: int, transverse: Transverse) -> Iterator[slice]:
    """Slices that cover n states of a trace in blocks of about
    ``_BLOCK_BINS`` (state, bin) pairs, so that a pass over the blocks needs
    memory flat in the trace length whatever the bin count."""
    step = max(1, _BLOCK_BINS // _layout(transverse)[0].size)
    return (slice(i, i + step) for i in range(0, n, step))


def _trace_states(x_int: np.ndarray, y_drive: float, c: np.ndarray, theta: np.ndarray,
                  p: ModelParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Amplitude x, slope dY/dX and effective detuning at many roots X.

    ``x_int``, ``c`` and ``theta`` are (k,) arrays, one entry per root, and
    every root has drive Y.  ``_state_terms`` runs on blocks of roots
    (``_trace_blocks``) and fills the three (k,) outputs.
    """
    amp = np.empty(x_int.size, dtype=complex)
    slope, theta_eff = np.empty(x_int.size), np.empty(x_int.size)
    for b in _trace_blocks(x_int.size, p.transverse):
        amp[b], at = _state_terms(x_int[b], y_drive, c[b], theta[b], p)
        slope[b], theta_eff[b] = at.y1, at.disperse
    return amp, slope, theta_eff


def _plane_roots(y_drive: float, p: ModelParams) -> list[float]:
    # A single solve stays scalar, as do _plane_folds and _cubic_segment_roots:
    # through the root locus it would pay numpy's fixed cost per call on the
    # locus' whole-grid passes.
    # F(0) = -Y A^2 < 0 and F(Y) >= 0, so every root lies in (0, Y]; F is
    # monotone between the folds.  F(Y) can round below zero only when the
    # root sits at X = Y (no atoms), hence the widened top edge.
    f, h, distinct = _plane_cubics(p.c, p.delta, p.theta, y_drive)
    top = y_drive if _cubic(f, y_drive) >= 0.0 else 2.0 * y_drive
    edges = [0.0, *(x for x in _plane_folds(h, distinct) if x < top), top]
    return _cubic_segment_roots(f, edges)


def _root_bound(c, theta, p: ModelParams):
    """The largest Y(X)/X at C and theta, floats or arrays alike: its terms at
    G(0) >= G(X), so that no root at drive Y lies below Y/bound.  Squares are
    products (see ``_response_from_sums``); a float overflows to inf."""
    g0 = float(_layout(p.transverse)[3].sum()) / (1.0 + p.delta * p.delta)
    absorb = 1.0 + 2.0 * c * g0
    disperse = abs(theta) + 2.0 * c * abs(p.delta) * g0
    return absorb * absorb + disperse * disperse


def _float_range(p: ModelParams, c, theta, y: float, bound, top: float, locus: str) -> None:
    """Raise the input error ``_beyond_float_range`` unless every product
    that a locus ("c" or "theta", the one a root locus at Y sweeps, or
    "fold") and Newton on the response form at X up to ``top``, the top of
    its cells, is finite, each formed as they form it (Y(X) as X ``bound``,
    the ``_root_bound``).  C, theta and ``bound`` are floats or arrays over
    steps that share Y: the error names the first step at fault."""
    delta = p.delta
    with np.errstate(over="ignore", invalid="ignore"):
        y_top = top * bound
        terms = [y_top, 4.0 * c * top]  # Y(X) and the 4 C X of dY/dX
        if locus == "fold":  # Newton on dY/dX: the 8 C^2 X of d2Y/dX2
            terms.append(top * (bound + 8.0 * c * c))
        elif locus == "c":  # the discriminant's A Y and X (delta + theta)^2
            terms += [(1.0 + delta * delta) * y, top * ((delta + theta) * (delta + theta))]
        else:  # the discriminant 4 X (Y - X (1 + 2 C G)^2)
            terms.append(4.0 * top * (y + y_top))
        finite = np.isfinite(sum(0.0 * t for t in terms))  # 0 t is NaN where t is not finite
    if not finite.all():
        i = int(np.argmin(finite)) if np.ndim(finite) else 0
        c, theta = (float(v[i]) if np.ndim(v) else v for v in (c, theta))
        raise _beyond_float_range(p.transverse, c, delta, theta, y)


def _root_locus(p: ModelParams, y: float, c, theta, sweep_theta: bool = False):
    """The root locus at drive Y > 0 of steps at C and theta (floats, or
    arrays over steps that share the one not swept: theta with
    ``sweep_theta``, else C), and its vertices from X = 0 to Y in the
    smallest fold window at or above Y (``_fold_window``), none below Y/(2
    bound) for the steps' largest ``_root_bound``; ``_float_range`` guards."""
    with np.errstate(over="ignore", invalid="ignore"):
        bound = _root_bound(c, theta, p)
    most = bound.max() if isinstance(bound, np.ndarray) else bound  # not finite: the guard raises
    x, sums = _locus_grid(p, _fold_window(y / (1.0 + p.delta * p.delta)), y,
                          0.5 * y / most if most < math.inf else 0.0)
    _float_range(p, c, theta, y, bound, float(x[-1]), "theta" if sweep_theta else "c")
    fixed = float(np.ravel(c if sweep_theta else theta)[0])
    return _Locus(p, False, *((fixed, None) if sweep_theta else (None, fixed)), y), x, sums


def _too_many_crossings(count: int, y: float, c: float, theta: float,
                        p: ModelParams) -> RuntimeError:
    return RuntimeError(f"found {count} crossings of the root locus, more than three, "
                        f"at Y={y!r}, {replace(p, c=c, theta=theta)!r}")


def _binned_roots(y: float, p: ModelParams) -> list[float]:
    """The distinct roots at drive Y > 0 of a binned profile, ascending: a
    one-step ``_trace_roots``, where C crosses the root locus C(X) at Y,
    with none of a trace's grouping or padding."""
    c, theta = float(p.c), float(p.theta)
    (_, lo, hi, start, rising), _ = _level_crossings(*_root_locus(p, y, c, theta),
                                                     np.array([c]))
    if lo.size > 3:
        raise _too_many_crossings(lo.size, y, c, theta, p)
    params = (np.full(lo.size, c), np.full(lo.size, theta), np.full(lo.size, y))
    return _distinct(_newton_many(_root_fdf(p), params, lo, hi, start, rising).tolist())


def _trace_roots(y, c, theta, p: ModelParams) -> np.ndarray:
    """The distinct roots at every step of a trace, drives Y >= 0, C and
    theta ((n,) arrays or lists), as (n, 3), rows ascending, padded with NaN.
    A trace that shares Y and C crosses one root locus theta(X), else the
    driven steps that share Y and theta one root locus C(X), as a binned
    single solve does (``_root_locus``, which raises the input error naming
    a step).  Lockstep Newton polishes every cell, a row of more than one
    root goes through ``_distinct``, and more than three raise RuntimeError.
    """
    y, c, theta = (np.asarray(a, dtype=float) for a in (y, c, theta))
    rows = np.full((y.size, 3), np.nan)
    rows[y == 0.0, 0] = 0.0
    driven = np.flatnonzero(y != 0.0)
    if not driven.size:
        return rows
    y, c, theta = y[driven], c[driven], theta[driven]
    sweep_theta = (c == c[0]).all() and (y == y[0]).all() and not (theta == theta[0]).all()
    groups, cells = [np.arange(y.size)], []
    if y.size > 1 and not sweep_theta:
        o = np.lexsort((theta, y))
        groups = np.split(o, np.flatnonzero(np.diff(np.stack((y, theta))[:, o]).any(0)) + 1)
    for k in groups:
        j, *cell = _level_crossings(*_root_locus(p, float(y[k[0]]), c[k], theta[k], sweep_theta),
                                    theta[k] if sweep_theta else c[k])[0]
        cells.append((k[j], *cell))
    step, lo, hi, start, rising = (np.concatenate(col) for col in zip(*cells))
    count = np.bincount(step, minlength=y.size)
    if count.max() > 3:
        i = int(np.argmax(count))
        raise _too_many_crossings(int(count[i]), float(y[i]), float(c[i]), float(theta[i]), p)
    roots = np.empty(step.size)
    for b in _trace_blocks(step.size, p.transverse):
        s = step[b]
        roots[b] = _newton_many(_root_fdf(p), (c[s], theta[s], y[s]), lo[b], hi[b],
                                start[b], rising[b])
    order = np.lexsort((roots, step))  # each row ascending, NaN last
    step = step[order]
    rows[driven[step], np.arange(step.size) - np.searchsorted(step, step)] = roots[order]
    many = np.flatnonzero(rows[:, 1] == rows[:, 1])
    for i, row in zip(many.tolist(), rows[many].tolist()):
        xs = _distinct([x for x in row if x == x])
        rows[i] = xs + [math.nan] * (len(row) - len(xs))
    return rows


def peak_transmission(y_drive: float, p: ModelParams) -> float:
    """Largest intracavity intensity with the dispersive shift compensated.

    This is the peak of a cavity-length scan at fixed drive: the root of
    h(X) = X*(1 + 2*C*G(X))^2 = Y with the highest X.  Every bin term of G
    is w_j s_j/(A + s_j X), A = 1 + delta^2, so G(X) = G_1(X/A)/A with G_1
    the susceptibility at delta = 0, and h(X) = A Y_1(X/A), where Y_1 is the
    state equation at C/A and delta = theta = 0.  The peak is therefore
    A times the largest root of ``solve_steady_states`` at drive Y/A there:
    the exact cubic for a plane wave, the root locus in C otherwise.
    """
    _checked(y_drive, "drive intensity Y", positive=True)
    a_sat = 1.0 + p.delta * p.delta
    resonant = replace(p, c=p.c / a_sat, delta=0.0, theta=0.0)
    return a_sat * solve_steady_states(y_drive / a_sat, resonant)[-1].intensity


def cooperativity_from_amplitudes(bistable_peak: float, empty_peak: float,
                                  p: ModelParams,
                                  drive_y: float | None = None) -> float:
    """Infer the cooperativity from peak transmissions with and without atoms.

    Both peaks must be in the same (arbitrary) units; when ``drive_y`` is not
    given the peaks are assumed to be in saturation units, so the drive is
    read off the empty-cavity peak.  The peak X = r Y at peak ratio r solves
    Y = X (1 + 2 C G(X))^2 (see ``peak_transmission``), and G does not
    depend on C, so C = (r^-1/2 - 1)/(2 G(r Y)) in closed form.  That C is
    accepted only if ``peak_transmission`` reproduces r to 1e-6: a ratio
    inside a branch-jump gap is the peak of no cavity scan.
    """
    if not (bistable_peak > 0 and empty_peak > 0):
        raise ValueError("transmission peaks must be > 0")
    if bistable_peak > empty_peak * (1.0 + 1e-12):
        raise ValueError(
            f"peak ratio {bistable_peak / empty_peak:.6g} exceeds 1: "
            "atoms cannot increase the resonant transmission"
        )
    ratio = min(bistable_peak / empty_peak, 1.0)
    if ratio == 1.0:
        return 0.0
    y = empty_peak if drive_y is None else drive_y
    _checked(y, "drive intensity Y", positive=True)
    g = float(_response(ratio * y, p.c, p.theta, p).g)
    # a ratio or G that underflows to 0 would raise ZeroDivisionError: C = inf
    c = (1.0 / math.sqrt(ratio) - 1.0) / (2.0 * g) if ratio > 0.0 and g > 0.0 else math.inf
    if not math.isfinite(c):
        raise ValueError(
            f"peak ratio {ratio:.6g} gives no finite cooperativity at drive {y:.6g}"
        )
    if abs(peak_transmission(y, replace(p, c=c)) / y - ratio) > 1e-6:
        raise ValueError(
            f"no cooperativity reproduces peak ratio {ratio:.6g} to 1e-6; "
            "the ratio may fall inside a branch-jump gap"
        )
    return c


def critical_point(p: ModelParams, x_max: float | None = None) -> tuple[float, float, float]:
    """Onset of bistability for the detunings/profile in ``p``.

    Returns (c_crit, x_crit, y_crit): the cooperativity at which the two
    folds of the response merge into a cusp with dY/dX = 0 and d2Y/dX2 = 0,
    together with that point's coordinates, as floats.  ``p.c`` is ignored.

    The cusp is the minimum over X of the fold curve C_fold(X), the least
    positive C at which X is a fold, below ``x_max`` (default 1e4 (1 +
    delta^2)): one pass over the cached grid takes the argmin of -1/C_fold
    (branch ``minus`` of the fold locus in sigma = -1/C), and d2Y/dX2 at
    C_fold must change sign from - to + across its neighbours.  One
    safeguarded Newton (``_knot``) solves d2Y/dX2(X, C_fold(X)) = 0 between
    them, with d3Y/dX3 as the derivative, exact where dC_fold/dX = 0: an
    error e in X moves C by O(e^2).  Both profiles take this path.  The
    returned C is the largest float with its -1/C, as -1/C can round
    neighbouring floats to one value.  A window with no cusp raises
    RuntimeError naming ``x_max`` and ``p``.  A binned ``turning_points`` takes this cusp
    as its knot, so its fold count flips exactly at the returned C.
    """
    a_sat = 1.0 + p.delta * p.delta
    if x_max is None:
        xi_max, x_max = 1e4, 1e4 * a_sat
    else:
        _checked(x_max, "x_max", positive=True)
        xi_max = x_max / a_sat
    loc = _Locus(p, True, None, p.theta)
    x, sums = _locus_grid(p, xi_max)
    w, s, _ = _locus_terms(loc, x, *sums)
    sigma, curv = w[1], s[1]
    j = int(np.argmin(np.where(sigma < 0.0, sigma, math.inf)))
    # d2Y/dX2 at the argmin's neighbours; at the grid's ends, twice at it
    k = [j - 1, j + 1] if 0 < j < x.size - 1 else [j, j]
    curv_lo, curv_hi = curv[k].tolist()
    if not (sigma[j] < 0.0 and -math.inf < curv_lo < 0.0 < curv_hi < math.inf):
        raise RuntimeError(f"no cusp of the fold curve below x_max={x_max!r} at {p!r}")
    x_crit, sigma_crit = _knot(loc, -1.0, x[j - 1], x[j + 1], True, x[j])
    c_crit = -1.0 / sigma_crit
    # the next float up must have a larger -1/C, or turning_points could not tell them apart
    while -1.0 / math.nextafter(c_crit, math.inf) == -1.0 / c_crit:
        c_crit = math.nextafter(c_crit, math.inf)
    return c_crit, x_crit, float(_response(x_crit, c_crit, p.theta, p).y)
