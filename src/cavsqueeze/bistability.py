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
    g: np.ndarray         # G, the profile-averaged susceptibility
    g1: np.ndarray        # dG/dX
    g2: np.ndarray        # d2G/dX2
    absorb: np.ndarray    # 1 + 2 C G
    disperse: np.ndarray  # theta - 2 C delta G, the effective cavity detuning
    y: np.ndarray         # Y(X)
    y1: np.ndarray        # dY/dX
    y2: np.ndarray        # d2Y/dX2


def _bin_sums(x, transverse: Transverse, a_sat: float, n: int = 3) -> list:
    """G and its first n - 1 derivatives (n <= 4) at X >= 0, shaped like X.

    With the bin reciprocals r_j = 1/(A + s_j X), formed once, the k-th
    derivative is (-1)^k k! sum_j w_j s_j^(k+1) r_j^(k+1).  Each sum is
    numpy's reduction along the bin axis, which rounds a single X and every
    row of a stack alike; a matrix product does not.
    """
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
    return sums


@lru_cache(maxsize=16)
def _grid_sums(transverse: Transverse, xi_lo: float, xi_max: float):
    """The 4096-point log grid in xi = X/A from ``xi_lo`` to ``xi_max`` and
    the unit fold tables P, Q, R and S on it, those at A = 1.

    With u = C (1 - delta theta) and v = C^2, Y = X [1 + theta^2 + 4 u G
    + 4 v A G^2], so dY/dX = 1 + theta^2 + u P + v Q and d2Y/dX2 = u R + v S
    with P = 4 (G + X G'), Q = 4 A (G^2 + 2 X G G'), R = P' and S = Q'.
    Since sum_j w_j s_j/(A + s_j X) = A^-1 sum_j w_j s_j/(1 + s_j xi), P and
    Q at A are these tables times A^-1, R and S times A^-2: one table serves
    every delta, C and theta (see ``_fold_grid``), so a trace, a search over
    C, or queries at any delta share it.  Read-only, since every caller
    shares them.
    """
    xi = np.geomspace(xi_lo, xi_max, 4096)
    # summed over blocks of grid points, so that memory stays flat in the bin count
    g, g1, g2 = (np.concatenate(col) for col in zip(
        *(_bin_sums(xi[b], transverse, 1.0) for b in _trace_blocks(xi.size, transverse))))
    xg1 = xi * g1
    out = (xi, 4.0 * (g + xg1), 4.0 * g * (g + 2.0 * xg1), 4.0 * (2.0 * g1 + xi * g2),
           8.0 * (2.0 * g * g1 + xi * (g1 * g1 + g * g2)))
    for a in out:
        a.flags.writeable = False
    return out


def _response(x_int, p: ModelParams) -> _Response:
    """The state equation and its first two derivatives at X >= 0.

    Entries are arrays shaped like X.
    """
    return _response_at(x_int, p.c, p.theta, p)


def _response_at(x_int, c, theta, p: ModelParams) -> _Response:
    """``_response`` at C and theta given apart from ``p``, as scalars or as
    arrays shaped like X: the cooperativity and detuning of every step of a
    trace at once."""
    return _sums_and_response(np.asarray(x_int, dtype=float), c, theta, p)[1]


def _sums_and_response(x, c, theta, p: ModelParams, n: int = 3):
    """G and its first n - 1 derivatives at X (``_bin_sums``) and the
    response there, for X a float or an array (``_response_at``)."""
    a_sat = 1.0 + p.delta * p.delta
    sums = _bin_sums(x, p.transverse, a_sat, n)
    return sums, _response_from_sums(x, *sums[:3], a_sat, c, p.delta, theta)


def _response_from_sums(x: np.ndarray, g, g1, g2, a_sat: float, c, delta: float,
                        theta) -> _Response:
    """The response at X from the bin sums there, for C, delta and theta.

    C and theta may be scalars or arrays shaped like X, as along a trace.
    Squares are written as products: Python's and numpy's powers of a
    scalar can round apart from numpy's square of an array.
    """
    absorb = 1.0 + 2.0 * c * g
    disperse = theta - 2.0 * c * delta * g
    proj = absorb - delta * disperse
    factor = absorb * absorb + disperse * disperse
    y1 = factor + 4.0 * c * x * g1 * proj
    y2 = (8.0 * c * g1 * proj + 4.0 * c * x * g2 * proj
          + 8.0 * c * c * x * g1 * g1 * a_sat)
    return _Response(g, g1, g2, absorb, disperse, x * factor, y1, y2)


def _root_fdf(p: ModelParams):
    """``_newton_many``'s maker of x -> (Y(X) - Y, dY/dX) on the response of
    ``p``'s delta and profile, for brackets that each carry (C, theta, Y)."""
    def make(params):
        c, theta, y = params

        def fdf(x):
            at = _sums_and_response(x, c, theta, p)[1]
            return at.y - y, at.y1
        return fdf
    return make


def _slope_fdf(p: ModelParams):
    """As ``_root_fdf``, x -> (dY/dX, d2Y/dX2) for brackets that each carry
    (C, theta): its roots are the folds."""
    def make(params):
        c, theta = params

        def fdf(x):
            at = _sums_and_response(x, c, theta, p)[1]
            return at.y1, at.y2
        return fdf
    return make


def _curvature_fdf(p: ModelParams):
    """As ``_slope_fdf``, x -> (d2Y/dX2, d3Y/dX3): its roots are the local
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
            (_, g1, g2, g3), at = _sums_and_response(x, c, theta, p, 4)
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
    return _as_output(_response(_checked(x_int, "intracavity intensity X"), p).y)


def state_equation_slope(x_int, p: ModelParams):
    """Analytic dY/dX; negative slope marks the unstable branch."""
    return _as_output(_response(_checked(x_int, "intracavity intensity X"), p).y1)


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


def _bisect(f, lo: float, hi: float, flo: float, rel_tol: float) -> float:
    """Sign change of f on [lo, hi], where f(lo) is ``flo``, by bisection.

    Used only where no derivative of f is at hand: the search over C of
    ``critical_point``.  Stops once the bracket is narrower than ``rel_tol``
    times its midpoint.
    """
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= rel_tol * max(abs(mid), 1e-300):
            return mid
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm < 0) == (flo < 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


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
    near the critical point by more than the fold pair is wide.
    """
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
    return ((f[0] / s6, f[1] / s6, f[2] / s6, f[3] / s6),
            (h3 / s2, h2 / s4, h1 / s6, h0 / (s4 * s4)), distinct)


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
    at round-off.
    """
    if dx is None:
        dx = hi - lo
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
    return x


# Below this many brackets a lockstep iteration, numpy's fixed cost per call
# times some forty calls, costs more than scalar iterations of every bracket.
_LOCKSTEP_MIN = 16


def _newton_many(make_fdf, params, lo: np.ndarray, hi: np.ndarray, x: np.ndarray,
                 rising: np.ndarray) -> np.ndarray:
    """``_newton`` in each of many brackets, in lockstep.

    ``params`` holds arrays with one entry per bracket, and
    ``make_fdf(params)`` gives the fdf of those brackets: on arrays for the
    pass, on a tuple of floats for one bracket (the cubic's coefficients for
    ``_cubic_fdf``, C and theta for ``_slope_fdf``).  Every bracket goes
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


def _segment_roots(fdf, edges, fvals, curvs) -> list[float]:
    """Roots of f on the segments between ascending ``edges``.

    ``fvals`` and ``curvs`` hold f and (the sign of) f'' at the edges, and
    f is monotone on each segment.  Returns every edge where f is 0, then
    one ``_newton`` root in each segment over which f changes sign.  Newton
    starts from the end where f and f'' share a sign, so that it closes in
    from one side when no inflection lies between, else from the midpoint.
    """
    roots = [x for x, fx in zip(edges, fvals) if fx == 0.0]
    for lo, hi, flo, fhi, clo, chi in zip(edges, edges[1:], fvals, fvals[1:],
                                          curvs, curvs[1:]):
        if (flo < 0.0 < fhi) or (fhi < 0.0 < flo):
            x = hi if fhi * chi > 0.0 else lo if flo * clo > 0.0 else 0.5 * (lo + hi)
            roots.append(_newton(fdf, lo, hi, x, flo < 0.0))
    return roots


def _cubic_segment_roots(coeffs, edges: list[float]) -> list[float]:
    # edge values stay Python floats: numpy scalars would double the cost
    c3, c2, _, _ = coeffs
    return _segment_roots(_cubic_fdf(coeffs), edges,
                          [_cubic(coeffs, x) for x in edges],
                          [3.0 * c3 * x + c2 for x in edges])


def _segment_roots_many(make_fdf, params, edges: np.ndarray, fvals: np.ndarray,
                        curvs: np.ndarray, valid: np.ndarray | None = None) -> np.ndarray:
    """``_segment_roots`` for many functions at once.

    ``params`` holds (k,) arrays, the function of each row for
    ``_newton_many``'s ``make_fdf``; ``edges`` is (k, E) and ascending along
    each row, and ``fvals`` and ``curvs`` hold f and f'' there.  An edge that
    is not ``valid`` repeats the next one, so its segments are empty.
    Returns (k, 2E - 1): the edges where f is 0, then one Newton root per
    segment (``_segment_roots``'s start points), NaN where there is none.
    """
    zero = fvals == 0.0 if valid is None else valid & (fvals == 0.0)
    f_lo, f_hi = fvals[:, :-1], fvals[:, 1:]
    row, col = np.divmod(np.flatnonzero(((f_lo < 0.0) & (0.0 < f_hi))
                                        | ((f_hi < 0.0) & (0.0 < f_lo))),
                         edges.shape[1] - 1)
    lo, hi = edges[row, col], edges[row, col + 1]
    flo, fhi = fvals[row, col], fvals[row, col + 1]
    start = np.where(fhi * curvs[row, col + 1] > 0.0, hi,
                     np.where(flo * curvs[row, col] > 0.0, lo, 0.5 * (lo + hi)))
    roots = np.full(f_lo.shape, np.nan)
    roots[row, col] = _newton_many(make_fdf, tuple(a[row] for a in params), lo, hi,
                                   start, flo < 0.0)
    return np.concatenate((np.where(zero, edges, np.nan), roots), axis=1)


def _cubic_segment_roots_many(coeffs, edges: np.ndarray,
                              valid: np.ndarray | None = None) -> np.ndarray:
    """``_cubic_segment_roots`` for many cubics at once: ``coeffs`` holds
    four (k,) arrays, and the rest is as in ``_segment_roots_many``."""
    cols = tuple(a[:, None] for a in coeffs)
    return _segment_roots_many(_cubic_fdf, coeffs, edges, _cubic(cols, edges),
                               3.0 * cols[0] * edges + cols[1], valid)


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
    the onset of bistability, counts as no fold.  Gaussian profiles bracket
    the folds on a logarithmic grid in xi = X/(1 + delta^2), on which dY/dX
    and d2Y/dX2 are a few products of tables cached per profile and window,
    split each grid interval at the local minimum of dY/dX it holds (see
    ``_binned_folds``), and refine each fold by safeguarded Newton on dY/dX;
    the default window, xi in [1e-9, 100], is one table for every delta.
    Returns 0, 1 or 2 points; exactly 2 means the response is bistable
    within the window.  ``x_max`` must be finite and > 0.

    Binned profiles have no exact tangency test.  Within about 4e-14
    (relative) above ``critical_point``'s C, round-off in dY/dX on the fold
    grid decides whether a fold pair narrower than about 3e-7 (relative) is
    reported (measured for GaussianBins(64) in the README).
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
        folds = _binned_folds(p, xi_max, np.array([p.c]), np.array([p.theta]))[0].tolist()
    points = tuple(x for x in folds if x < x_max)
    ys = tuple(state_equation(x, p) for x in points)
    return TurningPoints(points, ys, len(points) == 2)


def _table_weights(p: ModelParams, c: np.ndarray, theta: np.ndarray):
    """The weights u/A and v/A of ``_grid_sums``' tables P and Q at every
    step of the (n,) arrays ``c`` and ``theta``, as (n, 1) columns; R and S
    take a further 1/A."""
    a_sat = 1.0 + p.delta * p.delta
    return (c * (1.0 - p.delta * theta) / a_sat)[:, None], (c * c / a_sat)[:, None]


def _minimum_brackets(p: ModelParams, xi_lo: float, xi_max: float, c: np.ndarray,
                      theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (step, j) pairs whose interval [X_j, X_j+1] of the fold grid X =
    A xi, xi from ``xi_lo`` to ``xi_max``, holds a - to + sign change of
    d2Y/dX2, a local minimum of dY/dX, at the steps of the (n,) arrays
    ``c`` and ``theta``.  d2Y/dX2 on the grid is u R + v S, from
    ``_grid_sums``' tables: an (n, 4096) pass, so callers pass few steps."""
    a_sat = 1.0 + p.delta * p.delta
    _, _, _, tr, ts = _grid_sums(p.transverse, xi_lo, xi_max)
    u, v = _table_weights(p, c, theta)
    curv = (u / a_sat) * tr
    curv += (v / a_sat) * ts
    neg = curv < 0.0
    return np.divmod(np.flatnonzero(neg[:, :-1] & ~neg[:, 1:]), tr.size - 1)


def _fold_grid(p: ModelParams, xi_lo: float, xi_max: float, c: np.ndarray,
               theta: np.ndarray):
    """The fold grid X = A xi, xi from ``xi_lo`` to ``xi_max``, and the
    brackets on it at every step of the (n,) arrays ``c`` and ``theta``.

    Returns the grid and the (step, j) pairs of ``_minimum_brackets``, with
    whether dY/dX < 0 at X_j and at X_j+1 of each, and the step and j of
    every other interval over which the sign of dY/dX changes (zero
    counting as positive), with whether dY/dX < 0 at X_j.  dY/dX on the
    grid is 1 + theta^2 + u P + v Q; both passes run over blocks of steps so
    that memory stays flat in the number of steps.
    """
    xi, tp, tq, _, _ = _grid_sums(p.transverse, xi_lo, xi_max)
    u, v = _table_weights(p, c, theta)
    # a quarter of ``_BLOCK_BINS`` (step, grid point) pairs per block: its
    # few float arrays then take about 128 kB each
    rows = max(1, _BLOCK_BINS // (4 * xi.size))
    found = []
    for b in range(0, c.size, rows):
        s = slice(b, b + rows)
        i, j = _minimum_brackets(p, xi_lo, xi_max, c[s], theta[s])
        # a rounded sum a + b is negative exactly when b < -a
        slope = u[s] * tp
        slope += v[s] * tq
        neg = slope < -(1.0 + theta[s, None] * theta[s, None])
        change = neg[:, :-1] != neg[:, 1:]
        change[i, j] = False
        fi, fj = np.divmod(np.flatnonzero(change), xi.size - 1)
        found.append((i + b, j, neg[i, j], neg[i, j + 1], fi + b, fj, neg[fi, fj]))
    if len(found) > 1:
        found[0] = tuple(np.concatenate(col) for col in zip(*found))
    return (1.0 + p.delta * p.delta) * xi, found[0]


def _slope_minima(grid: np.ndarray, p: ModelParams, c: np.ndarray, theta: np.ndarray,
                  step: np.ndarray, j: np.ndarray) -> np.ndarray:
    """The local minimum of dY/dX in each bracket [X_j, X_j+1] of
    ``_minimum_brackets``, at C and theta of its step: safeguarded Newton
    (``_newton_many``) on d2Y/dX2 from the midpoint, to round-off."""
    lo, hi = grid[j], grid[j + 1]
    return _newton_many(_curvature_fdf(p), (c[step], theta[step]), lo, hi,
                        0.5 * (lo + hi), np.ones(step.size, dtype=bool))


def _fold_window(xi: float) -> float:
    """The smallest power of ten >= max(xi, 100); ``xi`` itself above 1e308,
    where that power is not a float.

    A root solve at drive Y searches the folds up to X/A = this window of
    Y/A, so that a few cached grids serve every drive; the smallest window
    is the default one of ``turning_points``.
    """
    if xi <= 100.0:
        return 100.0
    k = math.ceil(math.log10(xi))
    # log10 can round across an integer: take the least candidate >= xi
    for e in (k - 1, k, k + 1):
        if e <= 308 and 10.0 ** e >= xi:
            return 10.0 ** e
    return xi


def _binned_folds(p: ModelParams, xi_max: float, c: np.ndarray,
                  theta: np.ndarray) -> np.ndarray:
    """The folds below X/A = ``xi_max`` at every step of the (n,) arrays
    ``c`` and ``theta``, in lockstep: (n, 2), ascending, inf where none.

    A fold pair narrower than the grid step leaves no sign change of dY/dX
    on the grid, but the slope minimum between the folds is negative: so
    each grid interval that holds a slope minimum is split there, and every
    interval over which dY/dX changes sign brackets a fold, refined by
    Newton on dY/dX from its midpoint.  A fold within 1e-8 (relative) of the
    last one kept at its step is dropped (only slope noise at a fold makes
    one); a step left with more than two raises RuntimeError naming it.
    """
    grid, (i, j, neg_lo, neg_hi, fi, fj, f_neg) = _fold_grid(
        p, min(1e-9, 1e-6 * xi_max), xi_max, c, theta)
    minima = _slope_minima(grid, p, c, theta, i, j)
    neg_min = _slope_fdf(p)((c[i], theta[i]))(minima)[0] < 0.0
    left, right = neg_lo != neg_min, neg_min != neg_hi
    step = np.concatenate((fi, i[left], i[right]))
    lo = np.concatenate((grid[fj], grid[j[left]], minima[right]))
    hi = np.concatenate((grid[fj + 1], minima[left], grid[j[right] + 1]))
    rising = np.concatenate((f_neg, neg_lo[left], neg_min[right]))
    x = _newton_many(_slope_fdf(p), (c[step], theta[step]), lo, hi,
                     0.5 * (lo + hi), rising)

    # each step's folds ascending, less each one within 1e-8 (relative) of
    # the last one kept: (step, column) and X of the folds kept
    rows, cols, kept = [], [], []
    order = np.lexsort((x, step))
    last_step, last, col = -1, -math.inf, 0
    for k, xk in zip(step[order].tolist(), x[order].tolist()):
        if k != last_step:
            last_step, last, col = k, -math.inf, 0
        if xk - last > 1e-8 * xk:
            rows.append(k)
            cols.append(col)
            kept.append(xk)
            last, col = xk, col + 1
    if 2 in cols:
        k = rows[cols.index(2)]
        raise RuntimeError(
            f"found {rows.count(k)} slope sign changes at "
            f"{replace(p, c=float(c[k]), theta=float(theta[k]))!r}; "
            "the saturable response should fold at most twice"
        )
    folds = np.full((c.size, 2), np.inf)
    folds[rows, cols] = kept
    return folds


def _state_terms(x_int, y_drive, c, theta, p: ModelParams):
    """The complex amplitude x and the response at roots X of drive Y.

    X, Y, C and theta are scalars or arrays of one shape (see
    ``_response_at``).  x = (X / sqrt(Y)) (absorb - i disperse) in the gauge
    of a real, positive drive amplitude, and x = 0 at Y = 0.
    """
    at = _response_at(x_int, c, theta, p)
    if isinstance(y_drive, np.ndarray):
        scale = np.divide(x_int, np.sqrt(y_drive), out=np.zeros_like(x_int),
                          where=y_drive > 0.0)
    else:
        scale = x_int / math.sqrt(y_drive) if y_drive > 0.0 else 0.0 * x_int
    return scale * (at.absorb - 1j * at.disperse), at


def _assemble_state(x_root: float, y_drive: float, p: ModelParams,
                    branch: Branch) -> SteadyState:
    amp, at = _state_terms(x_root, y_drive, p.c, p.theta, p)
    slope = float(at.y1)
    return SteadyState(
        x=complex(amp),
        intensity=float(x_root),
        drive=float(y_drive),
        branch=branch,
        stable=slope > 0.0,
        slope=slope,
        theta_eff=float(at.disperse),
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

    Roots are bracketed on the monotone segments of the response, split at
    the folds below Y.  For a plane wave they are the roots of the exact
    root cubic F (see ``_plane_cubics``), each polished by safeguarded
    Newton on F inside its bracket.  Gaussian profiles take the folds from
    ``_binned_folds``, searched up to X/(1 + delta^2) = the smallest power
    of ten at or above max(Y/(1 + delta^2), 100), so that drives share
    cached grids, and polish each root by the same safeguarded Newton on
    the binned state equation.  Three roots are labeled lower/middle/upper
    and the middle one is always unstable; a single root is labeled
    monostable.
    """
    _checked(y_drive, "drive intensity Y")
    if y_drive == 0.0:
        return [_assemble_state(0.0, 0.0, p, Branch.MONOSTABLE)]

    if isinstance(p.transverse, PlaneWave):
        roots = _distinct(_plane_roots(y_drive, p))
    else:
        row = _binned_roots(np.array([float(y_drive)]), np.array([p.c]),
                            np.array([p.theta]), p)[0]
        roots = _distinct([x for x in row.tolist() if x == x])
    return [_assemble_state(x, y_drive, p, lab)
            for x, lab in zip(roots, _branch_labels(len(roots)))]


def _trace_roots(y, c, theta, p: ModelParams) -> list[list[float]]:
    """The distinct roots at every step of a trace, each list ascending.

    ``y``, ``c`` and ``theta`` are lists with one value per step; the delta
    and the profile are those of ``p``.  Every step is solved in lockstep: a
    plane wave by ``_plane_roots_many``, a binned profile by
    ``_binned_roots`` over blocks of steps (``_trace_blocks``), so that
    memory stays flat in the trace length.  A binned ``solve_steady_states``
    runs ``_binned_roots`` on its one step.  The roots of the default
    12,500-step Gaussian-64 release take about 0.75 s, 60 us a step, where a
    solve per step took about 0.5 ms (one BLAS thread, shared 2-core box).
    """
    if isinstance(p.transverse, PlaneWave):
        rows = _plane_roots_many(y, c, p.delta, theta)
    else:
        y, c, theta = (np.asarray(a, dtype=float) for a in (y, c, theta))
        rows = np.full((y.size, 7), np.nan)
        rows[y == 0.0, 0] = 0.0
        driven = np.flatnonzero(y != 0.0)
        for b in _trace_blocks(driven.size, p.transverse):
            k = driven[b]
            rows[k] = _binned_roots(y[k], c[k], theta[k], p)
    return [_distinct([x for x in row if x == x]) for row in rows.tolist()]


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
    # through _plane_roots_many one step costs about six times as much, numpy's
    # fixed cost per call on arrays of one.
    # F(0) = -Y A^2 < 0 and F(Y) >= 0, so every root lies in (0, Y]; F is
    # monotone between the folds.  F(Y) can round below zero only when the
    # root sits at X = Y (no atoms), hence the widened top edge.
    f, h, distinct = _plane_cubics(p.c, p.delta, p.theta, y_drive)
    top = y_drive if _cubic(f, y_drive) >= 0.0 else 2.0 * y_drive
    edges = [0.0, *(x for x in _plane_folds(h, distinct) if x < top), top]
    return _cubic_segment_roots(f, edges)


def _plane_roots_many(y, c, delta: float, theta) -> np.ndarray:
    """``_plane_roots`` at every step of a trace, in lockstep.

    ``y``, ``c`` and ``theta`` hold one value per step.  The exact cubics
    come from ``_plane_cubics`` step by step; the fold pair, the segment
    edges and the Newton polish then run over every (step, segment) bracket
    at once with the scalar path's IEEE operations, so row i holds exactly
    the roots ``_plane_roots`` finds at step i.  Returns (n, 7): the zero
    edges, then the segment roots, NaN where there is none.
    """
    cubics = [_plane_cubics(ci, delta, ti, yi) for yi, ci, ti in zip(y, c, theta)]
    f = tuple(np.array(col) for col in zip(*(cb[0] for cb in cubics)))
    h = tuple(np.array(col) for col in zip(*(cb[1] for cb in cubics)))
    distinct = np.array([cb[2] for cb in cubics], dtype=bool)
    y = np.asarray(y, dtype=float)
    n = y.size

    # the fold pair, as in _plane_folds; inf where there is none
    folds = np.full((n, 2), math.inf)
    k = np.flatnonzero(distinct & (h[2] < 0.0))
    h3, h2, h1, h0 = hk = tuple(a[k] for a in h)
    x_min = -h1 / (h2 + np.sqrt(h2 * h2 - 3.0 * h3 * h1))
    has = _cubic(hk, x_min) < 0.0
    k, x_min = k[has], x_min[has]
    h3, h2, h1, h0 = hk = tuple(a[has] for a in hk)
    # Python's float power, so that every bracket is the scalar one
    root3 = np.array([v ** (1.0 / 3.0) for v in (0.5 * h0 / h3).tolist()])
    x_top = 2.0 * np.maximum(np.maximum(h2 / h3, np.sqrt(-h1 / h3)), root3)
    edges = np.stack((np.zeros_like(x_min), x_min, x_top), axis=1)
    folds[k] = _cubic_segment_roots_many(hk, edges)[:, 3:]

    # F(0) < 0 <= F(top), as in _plane_roots; folds at or above top drop out
    top = np.where(_cubic(f, y) >= 0.0, y, 2.0 * y)
    inside = folds < top[:, None]
    edges = np.column_stack((np.zeros(n), np.where(inside, folds, top[:, None]), top))
    valid = np.column_stack((np.ones(n, dtype=bool), inside, np.ones(n, dtype=bool)))
    return _cubic_segment_roots_many(f, edges, valid)


def _binned_roots(y: np.ndarray, c: np.ndarray, theta: np.ndarray,
                  p: ModelParams) -> np.ndarray:
    """The roots at drives Y > 0, C and theta, (n,) arrays, in lockstep.

    Roots satisfy X <= Y, so only the folds below Y split the brackets, and
    the lower bracket edge sits below Y / max(state-equation factor).  The
    folds come from ``_binned_folds``, searched up to X/A =
    ``_fold_window(Y/A)`` so that drives share cached grids; the Newton
    polish on the state equation then runs over every (step, segment) at
    once (``_segment_roots_many``).  Returns (n, 7) as ``_plane_roots_many``.
    """
    a_sat = 1.0 + p.delta * p.delta
    g0 = float(np.sum(_layout(p.transverse)[3])) / a_sat
    absorb = 1.0 + 2.0 * c * g0
    disperse = np.abs(theta) + 2.0 * c * abs(p.delta) * g0
    x_lo = 0.25 * y / (absorb * absorb + disperse * disperse)
    xis = (y / a_sat).tolist()
    window_of = {xi: _fold_window(xi) for xi in set(xis)}
    windows = np.array([window_of[xi] for xi in xis])
    folds = np.empty((y.size, 2))
    for w in set(window_of.values()):
        k = np.flatnonzero(windows == w)
        folds[k] = _binned_folds(p, w, c[k], theta[k])

    # the folds in (x_lo, Y) first, so that the edges ascend even where
    # the lower fold lies at or below x_lo and the upper one above it
    top = y[:, None]
    inner = np.where((x_lo[:, None] < folds) & (folds < top), folds, np.inf)
    inner.sort(axis=1)
    edges = np.empty((y.size, 4))
    edges[:, 0], edges[:, 1:3], edges[:, 3] = x_lo, np.minimum(inner, top), y
    valid = np.ones(edges.shape, dtype=bool)
    valid[:, 1:3] = inner < np.inf
    at = _sums_and_response(edges, c[:, None], theta[:, None], p)[1]
    return _segment_roots_many(_root_fdf(p), (c, theta, y), edges, at.y - top,
                               at.y2, valid)


def peak_transmission(y_drive: float, p: ModelParams) -> float:
    """Largest intracavity intensity with the dispersive shift compensated.

    This is the peak of a cavity-length scan at fixed drive: the root of
    h(X) = X*(1 + 2*C*G(X))^2 = Y with the highest X.  Every bin term of G
    is w_j s_j/(A + s_j X), A = 1 + delta^2, so G(X) = G_1(X/A)/A with G_1
    the susceptibility at delta = 0, and h(X) = A Y_1(X/A), where Y_1 is the
    state equation at C/A and delta = theta = 0.  The peak is therefore
    A times the largest root of ``solve_steady_states`` at drive Y/A there:
    the exact cubic for a plane wave, the fold-bracketed solver otherwise.
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
    g = float(_response(ratio * y, p).g)
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


def critical_point(p: ModelParams, c_hint: float | None = None,
                   x_max: float | None = None) -> tuple[float, float, float]:
    """Onset of bistability for the detunings/profile in ``p``.

    Returns (c_crit, x_crit, y_crit): the cooperativity at which the two
    folds of the response merge into a degenerate point with dY/dX = 0 and
    d2Y/dX2 = 0, together with that point's coordinates.  ``p.c`` is ignored
    except as a search hint.  Solved by bisecting (``_bisect``, to 1e-12
    relative in C) the minimum slope over X, negative iff bistable, as a
    function of C; that minimum is the lowest of the local minima of dY/dX
    (``_slope_minima``) bracketed by the sign changes of d2Y/dX2 on a log
    grid up to ``x_max`` (default 1e4 (1 + delta^2)).  On the grid d2Y/dX2
    = u R + v S, from tables cached in X/(1 + delta^2) (see ``_grid_sums``),
    so every C of the search shares one table, and with the default
    ``x_max`` so does every delta.

    For binned profiles, round-off in dY/dX decides the fold count within
    about 4e-14 (relative) above the returned C (see ``turning_points``).
    """
    if x_max is None:
        xi_max = 1e4
    else:
        _checked(x_max, "x_max", positive=True)
        xi_max = x_max / (1.0 + p.delta * p.delta)

    theta = np.array([p.theta])
    grid = (1.0 + p.delta * p.delta) * _grid_sums(p.transverse, 1e-6, xi_max)[0]

    def min_slope(c: float) -> tuple[float, float]:
        # a response without a local slope minimum rises monotonically
        cs = np.array([c])
        step, j = _minimum_brackets(p, 1e-6, xi_max, cs, theta)
        if step.size == 0:
            return math.inf, math.nan
        minima = _slope_minima(grid, p, cs, theta, step, j)
        slopes = _slope_fdf(p)((cs[step], theta[step]))(minima)[0]
        i = int(np.argmin(slopes))
        return float(slopes[i]), float(minima[i])

    c_hi = c_hint if c_hint and c_hint > 0 else 1.0
    for _ in range(60):
        if min_slope(c_hi)[0] < 0.0:
            break
        c_hi *= 2.0
    else:
        raise RuntimeError(
            f"response never turns bistable below C={c_hi:.3g} at {p!r}"
        )
    # an empty cavity (C = 0) responds linearly: no slope minimum
    c_crit = _bisect(lambda c: min_slope(c)[0], 0.0, c_hi, math.inf, 1e-12)
    _, x_crit = min_slope(c_crit)
    y_crit = state_equation(x_crit, replace(p, c=c_crit))
    return c_crit, x_crit, y_crit
