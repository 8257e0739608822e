"""Reference computations the benchmark checks the program's outputs against.

Nothing here imports cavsqueeze: every reference is rebuilt from the model
equations with numpy and Python's ``fractions`` only, so a rejected output
points at the program, not at shared code.

Plane wave.  With A = 1 + delta^2 the state equation

    Y = X [(1 + 2C/(A+X))^2 + (theta - 2C delta/(A+X))^2]

multiplied by (A + X)^2 is the cubic F(X) = N(X) - Y (X + A)^2 with
N(X) = X Q(X + A) and Q(u) = (1+theta^2) u^2 + 4C(1 - delta theta) u + 4 C^2 A.
Every real root has X > 0.  The number of real roots follows from the sign of
the cubic's discriminant, computed in exact rationals from the float inputs.
At a root F'(X) = (X + A)^2 dY/dX, so the sign of F' gives stability.  The
folds (dY/dX = 0) are the roots of H(X) = N'(X)(X + A) - 2 N(X), a cubic too.

Gaussian profile.  The binned susceptibility G(X) = sum_j v_j / (A + s_j X)
uses Gauss-Legendre nodes s_j in (0, 1) and weights v_j, computed here with
``numpy.polynomial.legendre.leggauss``.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

K_BOLTZMANN = 1.380649e-23
CS_MASS_KG = 2.20695e-25
STANDARD_GRAVITY = 9.80665

# roots closer than this (relative) cannot be told apart from float inputs
MERGE_REL = 1e-6


class CheckError(AssertionError):
    """An output of the program disagrees with the reference."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


# === plane wave: the exact cubic ===

def cubic_coefficients(c, delta, theta, y):
    """(F, H) coefficient tuples, highest power first, in exact rationals."""
    c, delta, theta, y = (Fraction(float(v)) for v in (c, delta, theta, y))
    a_sat = 1 + delta * delta
    a = 1 + theta * theta
    b = 4 * c * (1 - delta * theta)
    q0 = 4 * c * c * a_sat
    n2 = 2 * a * a_sat + b
    n1 = a * a_sat * a_sat + b * a_sat + q0
    f = (a, n2 - y, n1 - 2 * y * a_sat, -y * a_sat * a_sat)
    h = (a, 3 * a * a_sat, 2 * n2 * a_sat - n1, n1 * a_sat)
    return f, h


def discriminant(coeffs) -> Fraction:
    a, b, c, d = coeffs
    return (18 * a * b * c * d - 4 * b ** 3 * d + b * b * c * c
            - 4 * a * c ** 3 - 27 * a * a * d * d)


def _poly(coeffs, x):
    a, b, c, d = coeffs
    return ((a * x + b) * x + c) * x + d


def _dpoly(coeffs, x):
    a, b, c, _ = coeffs
    return (3 * a * x + 2 * b) * x + c


def real_roots(coeffs) -> list[float]:
    """Real roots of an exact cubic, counted by the sign of the discriminant.

    Located with numpy's companion-matrix roots, then polished by Newton on
    the float cubic.  A zero discriminant returns the double root once.
    """
    disc = discriminant(coeffs)
    fl = tuple(float(v) for v in coeffs)
    found = np.roots(fl)
    if disc > 0:
        xs = sorted(float(r.real) for r in found)
    else:
        by_imag = sorted(found, key=lambda r: abs(r.imag))
        xs = sorted(float(r.real) for r in by_imag[: 1 if disc < 0 else 3])
    polished = []
    for x in xs:
        for _ in range(4):
            d = _dpoly(fl, x)
            if d == 0.0:
                break
            step = _poly(fl, x) / d
            if not math.isfinite(step) or abs(step) > 0.5 * abs(x) + 1e-300:
                break
            x -= step
        polished.append(x)
    if disc == 0:
        merged: list[float] = []
        for x in polished:
            if not merged or abs(x - merged[-1]) > MERGE_REL * max(abs(x), 1e-12):
                merged.append(x)
        polished = merged
    return polished


class PlaneWaveReference:
    """Roots, stability and folds of one plane-wave operating point."""

    def __init__(self, c, delta, theta, y):
        self.c, self.delta, self.theta, self.y = c, delta, theta, y
        self.a_sat = 1.0 + delta * delta
        f, h = cubic_coefficients(c, delta, theta, y)
        self.f = tuple(float(v) for v in f)
        disc = discriminant(f)
        self.n_real = 3 if disc > 0 else (1 if disc < 0 else 2)
        self.roots = [x for x in real_roots(f) if x > 0.0]
        self.folds = [x for x in real_roots(h) if x > 0.0]

    def slope(self, x: float) -> float:
        """dY/dX at a root, from F'(X) = (X + A)^2 dY/dX."""
        return _dpoly(self.f, x) / (x + self.a_sat) ** 2

    def stable_roots(self) -> list[float]:
        return [x for x in self.roots if self.slope(x) > 0.0]


def plane_state_equation(x, c, delta, theta):
    g = 1.0 / (1.0 + delta * delta + x)
    return x * ((1.0 + 2.0 * c * g) ** 2 + (theta - 2.0 * c * delta * g) ** 2)


def near(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def check_plane_roots(ref: PlaneWaveReference, xs, stable, rel=1e-8) -> None:
    """The program's roots (ascending X) against the exact cubic.

    Reference roots closer than MERGE_REL may come back as one.
    """
    ref_roots = ref.roots
    label = (f"C={ref.c!r} delta={ref.delta!r} theta={ref.theta!r} Y={ref.y!r}")
    require(list(xs) == sorted(xs), f"roots not sorted at {label}")
    used = set()
    for x, st in zip(xs, stable):
        match = [i for i, r in enumerate(ref_roots) if near(x, r, rel)]
        require(bool(match), f"root X={x!r} is not a root of the cubic at {label}")
        used.add(match[0])
        require(st == (ref.slope(ref_roots[match[0]]) > 0.0),
                f"stability of X={x!r} disagrees with sign(dY/dX) at {label}")
    for i, r in enumerate(ref_roots):
        if i in used:
            continue
        twin = any(near(r, ref_roots[j], MERGE_REL) for j in used)
        require(twin, f"missed root X={r!r}: the cubic has {len(ref_roots)} real "
                f"roots, the program returned {len(xs)} at {label}")


def check_plane_folds(ref: PlaneWaveReference, folds, x_max: float, rel=1e-6) -> None:
    expect = [x for x in ref.folds if x < x_max]
    label = f"C={ref.c!r} delta={ref.delta!r} theta={ref.theta!r}"
    require(len(folds) == len(expect),
            f"{len(folds)} turning points where the exact fold cubic has "
            f"{len(expect)} below X={x_max:g} at {label}")
    for x, r in zip(sorted(folds), expect):
        require(near(x, r, rel), f"turning point X={x!r}, exact {r!r} at {label}")


def fold_window(c, delta, theta) -> tuple[float, float]:
    """(Y_low, Y_high): drives with three roots lie strictly between them."""
    _, h = cubic_coefficients(c, delta, theta, 0.0)
    folds = [x for x in real_roots(h) if x > 0.0]
    if len(folds) != 2:
        raise ValueError(f"not bistable at C={c} delta={delta} theta={theta}")
    ys = sorted(plane_state_equation(x, c, delta, theta) for x in folds)
    return ys[0], ys[1]


# === Gaussian profile: the binned state equation ===

def gauss_bins(m: int) -> tuple[np.ndarray, np.ndarray]:
    """(s, v): nodes in s = u^2 on (0, 1) and weights with sum v = 1."""
    xi, lam = np.polynomial.legendre.leggauss(m)
    return (xi + 1.0) / 2.0, lam / 2.0


def binned_drive_and_slope(x, c, delta, theta, m):
    """Y(X) and dY/dX for the m-bin Gaussian profile (arrays allowed)."""
    s, v = gauss_bins(m)
    x = np.asarray(x, dtype=float)
    den = (1.0 + delta * delta) + np.multiply.outer(x, s)
    g = np.sum(v / den, axis=-1)
    gp = -np.sum(v * s / den ** 2, axis=-1)
    absorb = 1.0 + 2.0 * c * g
    disperse = theta - 2.0 * c * delta * g
    y = x * (absorb ** 2 + disperse ** 2)
    slope = absorb ** 2 + disperse ** 2 + 4.0 * c * x * gp * (absorb - delta * disperse)
    return y, slope


def binned_susceptibility(x, delta, m):
    s, v = gauss_bins(m)
    den = (1.0 + delta * delta) + np.multiply.outer(np.asarray(x, dtype=float), s)
    return np.sum(v / den, axis=-1)


def check_binned_roots(xs, stable, c, delta, theta, y, m, rel=1e-9) -> None:
    label = f"m={m} C={c!r} delta={delta!r} theta={theta!r} Y={y!r}"
    require(len(xs) >= 1, f"no steady state at {label}")
    require(list(xs) == sorted(xs), f"roots not sorted at {label}")
    ys, slopes = binned_drive_and_slope(np.array(xs), c, delta, theta, m)
    for x, yx, sl, st in zip(xs, ys, slopes, stable):
        require(abs(yx - y) <= rel * y,
                f"X={x!r} leaves residual {(yx - y) / y:.3e} in the binned state equation at {label}")
        require(st == (sl > 0.0), f"stability of X={x!r} disagrees with sign(dY/dX)={sl:.3e} at {label}")


# === spectra ===

def check_spectrum(v, s_min, s_max, eta, v_eff, s_eff, label) -> None:
    """Properties every shot-normalized output spectrum must have."""
    v = np.asarray(v, dtype=float)
    scale = max(1.0, float(np.max(np.abs(v))))
    require(abs(v[0, 1] - v[1, 0]) <= 1e-12 * scale, f"V not symmetric at {label}")
    lo, hi = np.linalg.eigvalsh(v)
    require(abs(lo - s_min) <= 1e-9 * scale and abs(hi - s_max) <= 1e-9 * scale,
            f"(s_min, s_max)=({s_min!r}, {s_max!r}) are not the eigenvalues {lo!r}, {hi!r} of V at {label}")
    require(s_min >= -1e-9, f"negative noise power s_min={s_min!r} at {label}")
    require(s_min * s_max >= 1.0 - 1e-9, f"uncertainty product {s_min * s_max!r} < 1 at {label}")
    expect = np.eye(2) * (1.0 - eta) + eta * v
    require(np.max(np.abs(np.asarray(v_eff) - expect)) <= 1e-12 * scale,
            f"efficiency map is not eta*V + (1-eta)*I at {label}")
    require(all(abs(a - (eta * b + 1.0 - eta)) <= 1e-9 * scale
                for a, b in zip(s_eff, (lo, hi))),
            f"mapped eigenvalues {s_eff!r} != eta*s + 1 - eta at {label}")


def check_vacuum(v, tol, label) -> None:
    dev = float(np.max(np.abs(np.asarray(v) - np.eye(2))))
    require(dev <= tol, f"|V - I| = {dev:.3e} > {tol:g} at {label}")


# === released cloud ===

def cloud_timescales(sigma_r_m, temp_k, mass_kg=CS_MASS_KG, g=STANDARD_GRAVITY):
    sigma_v = math.sqrt(K_BOLTZMANN * temp_k / mass_kg)
    return sigma_r_m / sigma_v, 2.0 * math.sqrt(2.0) * sigma_v / g


def decay(t, c0, sigma_r_m, temp_k):
    """Closed-form cooperativity decay C(t) after release."""
    tau_r, tau_g = cloud_timescales(sigma_r_m, temp_k)
    t = np.asarray(t, dtype=float)
    den = tau_r ** 2 + t * t
    return c0 * tau_r ** 2 / den * np.exp(-t ** 4 / (tau_g ** 2 * den))
