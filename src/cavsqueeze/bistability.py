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
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import NamedTuple

import numpy as np

__all__ = [
    "PlaneWave",
    "GaussianBins",
    "ModelParams",
    "Branch",
    "BinSteady",
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
        if self.m < 1:
            raise ValueError(f"bin count must be >= 1, got {self.m}")


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
class BinSteady:
    """Per-bin steady state: mode amplitude, atom weight, dipole, inversion."""

    u: float
    w: float
    p: complex
    d: float


@dataclass(frozen=True)
class SteadyState:
    x: complex          # intracavity amplitude, gauge: drive amplitude real > 0
    intensity: float    # X = |x|^2
    drive: float        # Y
    bins: tuple[BinSteady, ...]
    branch: Branch
    stable: bool        # sign of dY/dX; folds (slope 0) count as unstable
    slope: float        # dY/dX at the root


@dataclass(frozen=True)
class TurningPoints:
    points: tuple[float, ...]     # X values with dY/dX = 0, ascending
    ordinates: tuple[float, ...]  # Y at those points
    bistable: bool


@lru_cache(maxsize=None)
def _gauss_legendre_01(m: int) -> tuple[np.ndarray, np.ndarray]:
    # nodes/weights for integrating over s = u^2 on (0, 1)
    xi, lam = np.polynomial.legendre.leggauss(m)
    return (xi + 1.0) / 2.0, lam / 2.0


def bin_layout(transverse: Transverse) -> tuple[np.ndarray, np.ndarray]:
    """Return (u, w) arrays for a transverse profile.

    The weights satisfy sum_j w_j u_j^2 = 1, so the weak-field susceptibility
    is profile-independent.
    """
    if isinstance(transverse, PlaneWave):
        return np.array([1.0]), np.array([1.0])
    if isinstance(transverse, GaussianBins):
        s, v = _gauss_legendre_01(transverse.m)
        return np.sqrt(s), v / s
    raise TypeError(f"unknown transverse profile: {transverse!r}")


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


def _geometry(p: ModelParams) -> tuple[np.ndarray, np.ndarray, float]:
    u, w = bin_layout(p.transverse)
    s = u * u
    return s, w * s, 1.0 + p.delta * p.delta


class _Response(NamedTuple):
    g: np.ndarray         # G, the profile-averaged susceptibility
    g1: np.ndarray        # dG/dX
    g2: np.ndarray        # d2G/dX2
    absorb: np.ndarray    # 1 + 2 C G
    disperse: np.ndarray  # theta - 2 C delta G, the effective cavity detuning
    y: np.ndarray         # Y(X)
    y1: np.ndarray        # dY/dX
    y2: np.ndarray        # d2Y/dX2


def _response(x_int, p: ModelParams) -> _Response:
    """The state equation and its first two derivatives at X >= 0.

    With the bin reciprocals r_j = 1/(A + s_j X), formed once,
    G = sum_j w_j s_j r_j, G' = -sum_j w_j s_j^2 r_j^2 and
    G'' = 2 sum_j w_j s_j^3 r_j^3.  Entries are arrays shaped like X.
    """
    s, ws, a_sat = _geometry(p)
    x = np.asarray(x_int, dtype=float)
    r = 1.0 / (a_sat + np.multiply.outer(x, s))
    g = r @ ws
    rk = r * r
    g1 = -(rk @ (ws * s))
    rk *= r
    g2 = 2.0 * (rk @ (ws * s * s))
    c = p.c
    absorb = 1.0 + 2.0 * c * g
    disperse = p.theta - 2.0 * c * p.delta * g
    proj = absorb - p.delta * disperse
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

    Used only where no derivative of f is at hand: the slope minima (on
    d2Y/dX2) and the two searches over C.  Stops once the bracket is
    narrower than ``rel_tol`` times its midpoint.
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


def _plane_cubics(p: ModelParams, y_drive: float = 0.0):
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
    ratios = [float(v).as_integer_ratio() for v in (p.c, p.delta, p.theta, y_drive)]
    k = max(den.bit_length() for _, den in ratios) - 1
    s = 1 << k
    c, d, t, y = (num << (k - den.bit_length() + 1) for num, den in ratios)
    # numerators over s^n, n in the trailing comments
    a = s * s + t * t                                    # 1 + theta^2, 2
    a_sat = s * s + d * d                                # A, 2
    b = 4 * c * (s * s - d * t)                          # 4C(1 - delta theta), 3
    n2 = 2 * a * a_sat + b * s                           # 4
    n1 = (a * a_sat + b * s + 4 * c * c * s * s) * a_sat  # 6
    h = (a, 3 * a * a_sat, 2 * n2 * a_sat - n1, n1 * a_sat)  # 2, 4, 6, 8
    f = (a * s ** 4, n2 * s * s - y * s ** 5, n1 - 2 * y * a_sat * s ** 3,
         -y * a_sat * a_sat * s)                          # all 6
    h3, h2, h1, h0 = h
    # H's discriminant: every term has weight 20 in s, so its sign is exact
    terms = (18 * h3 * h2 * h1 * h0, -4 * h2 ** 3 * h0, h2 * h2 * h1 * h1,
             -4 * h3 * h1 ** 3, -27 * h3 * h3 * h0 * h0)
    distinct = (sum(terms) << _TANGENT_BITS) > max(abs(v) for v in terms)
    f_out = tuple(v / s ** 6 for v in f)
    h_out = tuple(v / s ** n for v, n in zip(h, (2, 4, 6, 8)))
    return f_out, h_out, distinct


def _cubic(coeffs, x: float) -> float:
    c3, c2, c1, c0 = coeffs
    return ((c3 * x + c2) * x + c1) * x + c0


def _newton(fdf, lo: float, hi: float, x: float, rising: bool) -> float:
    """Root of f on [lo, hi], over which it changes sign once, from x.

    ``fdf(x)`` returns (f(x), f'(x)); ``rising`` says f(lo) < 0.  Falls back
    to bisection whenever a Newton step leaves the bracket or fails to halve
    the step before it.  Stops at round-off.
    """
    dx_old = dx = hi - lo
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
    c3, c2, c1, _ = coeffs
    fdf = lambda x: (_cubic(coeffs, x), (3.0 * c3 * x + 2.0 * c2) * x + c1)
    return _segment_roots(fdf, edges, [_cubic(coeffs, x) for x in edges],
                          [3.0 * c3 * x + c2 for x in edges])


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
    the folds on a logarithmic grid to which the local minima of dY/dX are
    added (see ``_binned_folds``), and refine each by safeguarded Newton on
    dY/dX.  Returns 0, 1 or 2 points; exactly 2 means the response is
    bistable within the window.  ``x_max`` must be finite and > 0.

    Binned profiles have no exact tangency test.  Within about 4e-14
    (relative) above ``critical_point``'s C, round-off in dY/dX decides
    whether a fold pair narrower than about 4e-7 is reported, and may
    misplace it (measured for GaussianBins(64) in the README).
    """
    a_sat = 1.0 + p.delta * p.delta
    if x_max is None:
        x_max = 100.0 * a_sat
    _checked(x_max, "x_max", positive=True)
    if isinstance(p.transverse, PlaneWave):
        _, h, distinct = _plane_cubics(p)
        points = tuple(x for x in _plane_folds(h, distinct) if x < x_max)
    else:
        points = _binned_folds(p, x_max)
    ys = tuple(state_equation(x, p) for x in points)
    return TurningPoints(points, ys, len(points) == 2)


def _slope_minima(grid: np.ndarray, curv: np.ndarray,
                  p: ModelParams) -> np.ndarray:
    """Local minima of dY/dX over ``grid``, where d2Y/dX2 is ``curv``.

    Each - to + sign change of the curvature between grid points is refined
    by bisection of the curvature; no derivative of it is at hand.
    """
    f = lambda x: _response(x, p).y2
    steps = np.flatnonzero((curv[:-1] < 0.0) & (curv[1:] >= 0.0))
    return np.array([_bisect(f, grid[i], grid[i + 1], curv[i], 1e-12)
                     for i in steps])


def _binned_folds(p: ModelParams, x_max: float) -> tuple[float, ...]:
    # A fold pair narrower than the grid step leaves no sign change of dY/dX
    # on the grid, but the slope minimum between the folds is negative:
    # adding the minima to the grid brackets every fold.
    a_sat = 1.0 + p.delta * p.delta
    x_lo = min(1e-9 * a_sat, 1e-6 * x_max)
    grid = np.geomspace(x_lo, x_max, 4096)
    on_grid = _response(grid, p)
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


def _assemble_state(x_root: float, y_drive: float, p: ModelParams,
                    branch: Branch) -> SteadyState:
    s, _, a_sat = _geometry(p)
    u, w = bin_layout(p.transverse)
    at = _response(x_root, p)
    if y_drive > 0:
        x_amp = (x_root / math.sqrt(y_drive)) * complex(at.absorb, -at.disperse)
    else:
        x_amp = 0.0 + 0.0j
    dsat = a_sat / (a_sat + s * x_root)
    pol = u * x_amp * dsat / complex(1.0, p.delta)
    bins = tuple(
        BinSteady(float(u[j]), float(w[j]), complex(pol[j]), float(dsat[j]))
        for j in range(len(u))
    )
    slope = float(at.y1)
    return SteadyState(
        x=complex(x_amp),
        intensity=float(x_root),
        drive=float(y_drive),
        bins=bins,
        branch=branch,
        stable=slope > 0.0,
        slope=slope,
    )


def solve_steady_states(y_drive: float, p: ModelParams) -> list[SteadyState]:
    """All steady states at drive intensity Y, sorted by increasing X.

    Roots are bracketed on the monotone segments of the response, split at
    the folds below Y.  For a plane wave they are the roots of the exact
    root cubic F (see ``_plane_cubics``), each polished by safeguarded
    Newton on F inside its bracket.  Gaussian profiles take the folds from
    ``_binned_folds`` and polish each root by the same safeguarded Newton on
    the binned state equation.  Three roots are labeled lower/middle/upper
    and the middle one is always unstable; a single root is labeled
    monostable.
    """
    _checked(y_drive, "drive intensity Y")
    if y_drive == 0.0:
        return [_assemble_state(0.0, 0.0, p, Branch.MONOSTABLE)]

    if isinstance(p.transverse, PlaneWave):
        roots = _plane_roots(y_drive, p)
    else:
        roots = _binned_roots(y_drive, p)
    deduped: list[float] = []
    for x in sorted(roots):
        if not deduped or x - deduped[-1] > 1e-9 * max(x, 1e-300):
            deduped.append(x)

    if len(deduped) == 3:
        labels = [Branch.LOWER, Branch.MIDDLE, Branch.UPPER]
    elif len(deduped) == 2:
        # drive sits exactly on a fold ordinate: middle and one outer root merged
        labels = [Branch.LOWER, Branch.UPPER]
    else:
        labels = [Branch.MONOSTABLE] * len(deduped)
    return [
        _assemble_state(x, y_drive, p, lab) for x, lab in zip(deduped, labels)
    ]


def _plane_roots(y_drive: float, p: ModelParams) -> list[float]:
    # F(0) = -Y A^2 < 0 and F(Y) >= 0, so every root lies in (0, Y]; F is
    # monotone between the folds.  F(Y) can round below zero only when the
    # root sits at X = Y (no atoms), hence the widened top edge.
    f, h, distinct = _plane_cubics(p, y_drive)
    top = y_drive if _cubic(f, y_drive) >= 0.0 else 2.0 * y_drive
    edges = [0.0, *(x for x in _plane_folds(h, distinct) if x < top), top]
    return _cubic_segment_roots(f, edges)


def _binned_roots(y_drive: float, p: ModelParams) -> list[float]:
    # roots satisfy X <= Y, so the fold scan never needs to look beyond Y;
    # the lower bracket edge sits below Y / max(state-equation factor)
    s, ws, a_sat = _geometry(p)
    g0 = float(np.sum(ws)) / a_sat
    factor_max = (1.0 + 2.0 * p.c * g0) ** 2 + (
        abs(p.theta) + 2.0 * p.c * abs(p.delta) * g0) ** 2
    x_lo = 0.25 * y_drive / factor_max
    edges = np.array([x_lo, *(x for x in _binned_folds(p, y_drive)
                              if x_lo < x < y_drive), y_drive])
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
    on a log grid up to ``x_max`` (default 1e4 (1 + delta^2)), found as in
    ``_binned_folds``.

    For binned profiles, round-off in dY/dX decides the fold count within
    about 4e-14 (relative) above the returned C (see ``turning_points``).
    """
    a_sat = 1.0 + p.delta * p.delta
    if x_max is None:
        x_max = 1e4 * a_sat
    _checked(x_max, "x_max", positive=True)
    grid = np.geomspace(1e-6 * a_sat, x_max, 4096)

    def min_slope(c: float) -> tuple[float, float]:
        # a response without a local slope minimum rises monotonically
        pc = replace(p, c=c)
        minima = _slope_minima(grid, _response(grid, pc).y2, pc)
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
