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


def _bin_sums(x: np.ndarray, transverse: Transverse, a_sat: float):
    """G, G' and G'' at X >= 0, arrays shaped like X.

    With the bin reciprocals r_j = 1/(A + s_j X), formed once,
    G = sum_j w_j s_j r_j, G' = -sum_j w_j s_j^2 r_j^2 and
    G'' = 2 sum_j w_j s_j^3 r_j^3.
    """
    _, _, s, ws = _layout(transverse)
    r = 1.0 / (a_sat + np.multiply.outer(x, s))
    g = r @ ws
    rk = r * r
    g1 = -(rk @ (ws * s))
    rk *= r
    g2 = 2.0 * (rk @ (ws * s * s))
    return g, g1, g2


@lru_cache(maxsize=16)
def _grid_sums(transverse: Transverse, xi_lo: float, xi_max: float):
    """The 4096-point log grid in xi = X/A from ``xi_lo`` to ``xi_max`` and
    the unit sums G, G', G'' on it, those at A = 1.

    Since sum_j w_j s_j/(A + s_j X) = A^-1 sum_j w_j s_j/(1 + s_j xi), one
    table serves every A = 1 + delta^2, C and theta (see ``_grid_response``),
    so a trace, a search over C, or queries at any delta share it.
    Read-only, since every caller shares them.
    """
    grid = np.geomspace(xi_lo, xi_max, 4096)
    out = (grid, *_bin_sums(grid, transverse, 1.0))
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
    x = np.asarray(x_int, dtype=float)
    a_sat = 1.0 + p.delta * p.delta
    return _response_from_sums(x, *_bin_sums(x, p.transverse, a_sat), a_sat,
                               c, p.delta, theta)


def _grid_response(p: ModelParams, xi_lo: float, xi_max: float):
    """The log grid X = A xi, xi from ``xi_lo`` to ``xi_max``, and the
    response on it.

    G, G' and G'' at A are the cached unit sums (``_grid_sums``) times
    A^-1, A^-2 and A^-3.
    """
    a_sat = 1.0 + p.delta * p.delta
    xi, g, g1, g2 = _grid_sums(p.transverse, xi_lo, xi_max)
    grid = a_sat * xi
    return grid, _response_from_sums(grid, g / a_sat, g1 / a_sat ** 2,
                                     g2 / a_sat ** 3, a_sat, p.c, p.delta, p.theta)


def _response_from_sums(x: np.ndarray, g, g1, g2, a_sat: float, c, delta: float,
                        theta) -> _Response:
    """The response at X from the bin sums there, for C, delta and theta.

    C and theta may be scalars or arrays shaped like X, as along a trace.
    """
    absorb = 1.0 + 2.0 * c * g
    disperse = theta - 2.0 * c * delta * g
    proj = absorb - delta * disperse
    factor = absorb ** 2 + disperse ** 2
    y1 = factor + 4.0 * c * x * g1 * proj
    y2 = (8.0 * c * g1 * proj + 4.0 * c * x * g2 * proj
          + 8.0 * c ** 2 * x * g1 ** 2 * a_sat)
    return _Response(g, g1, g2, absorb, disperse, x * factor, y1, y2)


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

    Used only where no derivative of f is at hand: the two searches over C
    (``cooperativity_from_amplitudes`` and ``critical_point``).  Stops once
    the bracket is narrower than ``rel_tol`` times its midpoint.
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


def _cubic_newton_many(coeffs, lo: np.ndarray, hi: np.ndarray, x: np.ndarray,
                       rising: np.ndarray) -> np.ndarray:
    """``_newton`` on a cubic in each of many brackets, in lockstep.

    ``coeffs`` holds four arrays, the cubic of each bracket.  Every bracket
    goes through ``_newton``'s IEEE operations, bisection fallback and
    stopping rules, so its root equals the scalar one bit for bit.  Finished
    brackets leave the pass; once fewer than ``_LOCKSTEP_MIN`` are left,
    ``_newton`` takes each of them on from where the pass left it, its cap
    of 200 steps counted afresh (no bracket comes near the cap).
    """
    eps2 = 2.0 * sys.float_info.epsilon
    fdf = _cubic_fdf(coeffs)
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
            coeffs = tuple(a[run] for a in coeffs)
            fdf = _cubic_fdf(coeffs)
            x_next = x_next[run]
        x = x_next
    for state in zip(k.tolist(), lo.tolist(), hi.tolist(), x.tolist(), rising.tolist(),
                     dx.tolist(), *(a.tolist() for a in coeffs)):
        out[state[0]] = _newton(_cubic_fdf(state[6:]), *state[1:6])
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


def _cubic_segment_roots_many(coeffs, edges: np.ndarray,
                              valid: np.ndarray | None = None) -> np.ndarray:
    """``_cubic_segment_roots`` for many cubics at once.

    ``coeffs`` holds four (k,) arrays, ``edges`` is (k, E) and ascending
    along each row.  An edge that is not ``valid`` repeats the next one, so
    its segments are empty.  Returns (k, 2E - 1): the edges where the cubic
    is 0, then one Newton root per segment (``_segment_roots``'s start
    points, ``_cubic_newton_many``), NaN where there is none.
    """
    cols = tuple(a[:, None] for a in coeffs)
    fvals = _cubic(cols, edges)
    curvs = 3.0 * cols[0] * edges + cols[1]
    zero = fvals == 0.0 if valid is None else valid & (fvals == 0.0)
    lo, hi = edges[:, :-1].ravel(), edges[:, 1:].ravel()
    flo, fhi = fvals[:, :-1].ravel(), fvals[:, 1:].ravel()
    clo, chi = curvs[:, :-1].ravel(), curvs[:, 1:].ravel()
    roots = np.full(lo.shape, np.nan)
    k = np.flatnonzero(((flo < 0.0) & (0.0 < fhi)) | ((fhi < 0.0) & (0.0 < flo)))
    lo, hi, flo, fhi, clo, chi = lo[k], hi[k], flo[k], fhi[k], clo[k], chi[k]
    start = np.where(fhi * chi > 0.0, hi,
                     np.where(flo * clo > 0.0, lo, 0.5 * (lo + hi)))
    per_segment = tuple(np.repeat(a, edges.shape[1] - 1)[k] for a in coeffs)
    roots[k] = _cubic_newton_many(per_segment, lo, hi, start, flo < 0.0)
    return np.concatenate((np.where(zero, edges, np.nan),
                           roots.reshape(len(edges), edges.shape[1] - 1)), axis=1)


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
    the folds on a logarithmic grid in xi = X/(1 + delta^2), cached per
    profile and window, to which the local minima of dY/dX are added (see
    ``_binned_folds``), and refine each by safeguarded Newton on dY/dX; the
    default window, xi in [1e-9, 100], is one table for every delta.
    Returns 0, 1 or 2 points; exactly 2 means the response is bistable
    within the window.  ``x_max`` must be finite and > 0.

    Binned profiles have no exact tangency test.  Within about 4e-14
    (relative) above ``critical_point``'s C, round-off in dY/dX decides
    whether a fold pair narrower than about 4e-7 is reported, and may
    misplace it (measured for GaussianBins(64) in the README).
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
        folds = _binned_folds(p, xi_max)
    points = tuple(x for x in folds if x < x_max)
    ys = tuple(state_equation(x, p) for x in points)
    return TurningPoints(points, ys, len(points) == 2)


def _curvature_fdf(x: float, p: ModelParams) -> tuple[float, float]:
    """d2Y/dX2 and d3Y/dX3 at a scalar X >= 0.

    proj = absorb - delta disperse = 1 - delta theta + 2 C A G has the
    derivative 2 C A G', so differentiating d2Y/dX2 gives
    Y''' = 12 C G'' proj + 24 C^2 A G'^2 + 4 C X G''' proj
    + 24 C^2 A X G' G'', with G''' = -6 sum_j w_j s_j^4 r_j^4.
    """
    _, _, s, ws = _layout(p.transverse)
    a_sat = 1.0 + p.delta * p.delta
    r = 1.0 / (a_sat + s * x)
    sr = s * r
    t = ws * r  # w_j s_j r_j, then times (s_j r_j)^k for the k-th derivative
    g = float(t.sum())
    t *= sr
    g1 = -float(t.sum())
    t *= sr
    g2 = 2.0 * float(t.sum())
    t *= sr
    g3 = -6.0 * float(t.sum())
    at = _response_from_sums(x, g, g1, g2, a_sat, p.c, p.delta, p.theta)
    c = p.c
    proj = at.absorb - p.delta * at.disperse
    y3 = (12.0 * c * g2 * proj + 24.0 * c * c * a_sat * g1 * g1
          + 4.0 * c * x * g3 * proj + 24.0 * c * c * a_sat * x * g1 * g2)
    return at.y2, y3


def _slope_minima(grid: np.ndarray, curv: np.ndarray,
                  p: ModelParams) -> np.ndarray:
    """Local minima of dY/dX over ``grid``, where d2Y/dX2 is ``curv``.

    Each - to + sign change of the curvature between grid points is refined
    to round-off by safeguarded Newton (``_newton``) on the curvature, with
    d3Y/dX3 from ``_curvature_fdf``.
    """
    fdf = lambda x: _curvature_fdf(x, p)
    steps = np.flatnonzero((curv[:-1] < 0.0) & (curv[1:] >= 0.0))
    return np.array([_newton(fdf, lo, hi, 0.5 * (lo + hi), True)
                     for lo, hi in zip(grid[steps].tolist(),
                                       grid[steps + 1].tolist())])


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


def _binned_folds(p: ModelParams, xi_max: float) -> tuple[float, ...]:
    # Folds for X/A below xi_max.  A fold pair narrower than the grid step
    # leaves no sign change of dY/dX on the grid, but the slope minimum
    # between the folds is negative: adding the minima to the grid brackets
    # every fold.
    grid, on_grid = _grid_response(p, min(1e-9, 1e-6 * xi_max), xi_max)
    minima = _slope_minima(grid, on_grid.y2, p)
    xs = np.concatenate((grid, minima))
    slopes = np.concatenate((on_grid.y1, _response(minima, p).y1))
    order = np.argsort(xs)
    xs, slopes = xs[order], slopes[order]

    def fdf(x):
        at = _response(x, p)
        return at.y1, at.y2

    points = [
        _newton(fdf, xs[i], xs[i + 1], 0.5 * (xs[i] + xs[i + 1]), slopes[i] < 0.0)
        for i in np.flatnonzero(np.sign(slopes[:-1]) != np.sign(slopes[1:]))
    ]
    # collapse duplicates (can only come from slope noise at a fold)
    deduped: list[float] = []
    for x in sorted(points):
        if not deduped or x - deduped[-1] > 1e-8 * x:
            deduped.append(x)
    if len(deduped) > 2:
        raise RuntimeError(
            f"found {len(deduped)} slope sign changes at {p!r}; "
            "the saturable response should fold at most twice"
        )
    return tuple(deduped)


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
        roots = _distinct(_binned_roots(y_drive, p))
    return [_assemble_state(x, y_drive, p, lab)
            for x, lab in zip(roots, _branch_labels(len(roots)))]


def _trace_roots(y, c, theta, p: ModelParams) -> list[list[float]]:
    """The distinct roots at every step of a trace, each list ascending.

    ``y``, ``c`` and ``theta`` are lists with one value per step; the delta
    and the profile are those of ``p``.  A plane wave solves every step in
    lockstep (``_plane_roots_many``).  A binned profile solves step by step
    through ``_binned_roots``, with the ``ModelParams`` of each step.
    """
    if isinstance(p.transverse, PlaneWave):
        rows = _plane_roots_many(y, c, p.delta, theta).tolist()
        return [_distinct([x for x in row if x == x]) for row in rows]
    return [_distinct([0.0] if yi == 0.0 else
                      _binned_roots(yi, replace(p, c=ci, theta=ti)))
            for yi, ci, ti in zip(y, c, theta)]


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


def _binned_roots(y_drive: float, p: ModelParams) -> list[float]:
    # roots satisfy X <= Y, so only the folds below Y split the brackets;
    # the lower bracket edge sits below Y / max(state-equation factor)
    a_sat = 1.0 + p.delta * p.delta
    g0 = float(np.sum(_layout(p.transverse)[3])) / a_sat
    factor_max = (1.0 + 2.0 * p.c * g0) ** 2 + (
        abs(p.theta) + 2.0 * p.c * abs(p.delta) * g0) ** 2
    x_lo = 0.25 * y_drive / factor_max
    folds = _binned_folds(p, _fold_window(y_drive / a_sat))
    edges = np.array([x_lo, *(x for x in folds if x_lo < x < y_drive), y_drive])
    at_edges = _response(edges, p)

    def fdf(x):
        at = _response(x, p)
        return at.y - y_drive, at.y1

    return _segment_roots(fdf, edges, at_edges.y - y_drive, at_edges.y2)


def peak_transmission(y_drive: float, p: ModelParams) -> float:
    """Largest intracavity intensity with the dispersive shift compensated.

    This is the peak of a cavity-length scan at fixed drive: the root of
    h(X) = X*(1 + 2*C*G(X))^2 = Y with the highest X.  Since
    h' = (1 + 2CG) k with k = (1 + 2CG) + 4CXG', h is monotone between the
    sign changes of k.  Those are bracketed on a 2048-point log grid over
    (0, Y] and refined by safeguarded Newton on k; the roots of h - Y on
    the segments between them are polished by Newton on h (see
    ``_segment_roots``), and the largest is returned.
    """
    _checked(y_drive, "drive intensity Y", positive=True)

    def parts(x):
        # 1 + 2CG and its derivative 2CG', then k and k'
        at, c = _response(x, p), p.c
        return (at.absorb, 2.0 * c * at.g1, at.absorb + 4.0 * c * x * at.g1,
                6.0 * c * at.g1 + 4.0 * c * x * at.g2)

    grid = np.geomspace(1e-12 * y_drive, y_drive, 2048)
    k = parts(grid)[2]
    turns = [_newton(lambda x: parts(x)[2:], grid[i], grid[i + 1],
                     0.5 * (grid[i] + grid[i + 1]), k[i] < 0.0)
             for i in np.flatnonzero(np.sign(k[:-1]) != np.sign(k[1:]))]
    edges = np.array([grid[0], *turns, y_drive])

    def hdh(x):
        absorb, _, kx, _ = parts(x)
        return x * absorb ** 2 - y_drive, absorb * kx

    absorb, absorb1, k, k1 = parts(edges)
    roots = _segment_roots(hdh, edges, edges * absorb ** 2 - y_drive,
                           absorb1 * k + absorb * k1)
    if not roots:
        raise RuntimeError(f"no transmission peak found for Y={y_drive} at {p!r}")
    return float(max(roots))


def cooperativity_from_amplitudes(bistable_peak: float, empty_peak: float,
                                  p: ModelParams,
                                  drive_y: float | None = None) -> float:
    """Infer the cooperativity from peak transmissions with and without atoms.

    Both peaks must be in the same (arbitrary) units; when ``drive_y`` is not
    given the peaks are assumed to be in saturation units, so the drive is
    read off the empty-cavity peak.  The peak-transmission ratio is inverted
    by bisection (``_bisect``) against the simulated ratio from
    ``peak_transmission``, which decreases monotonically with the
    cooperativity; the bisection stops at 1e-12 relative in C.
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

    def r_of_c(c):
        return peak_transmission(y, replace(p, c=c)) / y

    c_hi = 1.0
    while r_of_c(c_hi) > ratio:
        c_hi *= 4.0
        if c_hi > 1e8:
            raise ValueError(
                f"peak ratio {ratio:.6g} not reachable below C=1e8 at drive {y:.6g}"
            )
    # an empty cavity (C = 0) transmits the full peak, ratio 1
    c_star = _bisect(lambda c: r_of_c(c) - ratio, 0.0, c_hi, 1.0 - ratio, 1e-12)
    if abs(r_of_c(c_star) - ratio) > 1e-6:
        raise ValueError(
            f"no cooperativity reproduces peak ratio {ratio:.6g} to 1e-6; "
            "the ratio may fall inside a branch-jump gap"
        )
    return c_star


def critical_point(p: ModelParams, c_hint: float | None = None,
                   x_max: float | None = None) -> tuple[float, float, float]:
    """Onset of bistability for the detunings/profile in ``p``.

    Returns (c_crit, x_crit, y_crit): the cooperativity at which the two
    folds of the response merge into a degenerate point with dY/dX = 0 and
    d2Y/dX2 = 0, together with that point's coordinates.  ``p.c`` is ignored
    except as a search hint.  Solved by bisecting (``_bisect``, to 1e-12
    relative in C) the minimum slope over X, negative iff bistable, as a
    function of C; that minimum is the lowest of the local minima of dY/dX
    (``_slope_minima``) on a log grid up to ``x_max`` (default
    1e4 (1 + delta^2)).  The grid is cached in X/(1 + delta^2) (see
    ``_grid_sums``), so every C of the search shares one table, and with
    the default ``x_max`` so does every delta.

    For binned profiles, round-off in dY/dX decides the fold count within
    about 4e-14 (relative) above the returned C (see ``turning_points``).
    """
    if x_max is None:
        xi_max = 1e4
    else:
        _checked(x_max, "x_max", positive=True)
        xi_max = x_max / (1.0 + p.delta * p.delta)

    def min_slope(c: float) -> tuple[float, float]:
        # a response without a local slope minimum rises monotonically
        pc = replace(p, c=c)
        grid, on_grid = _grid_response(pc, 1e-6, xi_max)
        minima = _slope_minima(grid, on_grid.y2, pc)
        if minima.size == 0:
            return math.inf, math.nan
        slopes = _response(minima, pc).y1
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
