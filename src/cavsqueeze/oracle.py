"""Exact small-system cross-check for the linearized noise spectra.

Builds the full master equation for one two-level atom in the driven cavity
on a truncated photon basis, solves for the stationary density operator,
and evaluates the output quadrature spectra through the quantum regression
theorem and the input-output relation.  No linearization is involved, so
agreement with the fluctuation treatment at weak saturation validates the
drift/diffusion construction end to end.

Everything uses the same conventions as the rest of the package: rates are
half-linewidths in Hz, the frame rotates with the drive, and the reported
spectra are shot-normalized symmetric quadrature densities.  Raw cavity
units are connected to saturation units by the photon scale
|a|^2 per saturation unit = gamma*gamma_par/(4 g^2) with g^2 = 2*kappa*gamma*C.

Linear algebra.  The Hilbert space is ordered photon-outer, |n, s> at index
2n + s, so a and a+ move the photon number by one and sigma- leaves it.
With n_h = 2 (fock_cutoff + 1) states, the column-stacked Liouvillian
(N = n_h^2) acts on vec(rho), whose entries fall into fock_cutoff + 1
blocks of 2 n_h: the two columns of rho with photon number m.  In these
blocks L is block-tridiagonal along m, the photon ladder of Risken's matrix
continued fractions.  ``_photon_blocks`` assembles the diagonal blocks and
their neighbours, each 2 n_h x 2 n_h, straight from the operators' 2 x 2
photon sub-blocks, so the N x N matrix is never formed.  Steady state and
regression solves eliminate these blocks from the highest photon numbers
down, for every analysis frequency in one stacked sweep, at O(N n_h^2) per
frequency instead of the O(N^3) of a dense solve.  The steady state is the
null vector of the Schur complement left on the lowest block,
back-substituted.

Memory.  The spectra read only four trace functionals of the regression
solutions, so these are carried up the elimination and no step's Schur gain
outlives its step; the frequencies go in tiles of at most
``_OMEGA_TILE_BYTES`` per stacked elimination array.  A call then holds the
block triple, 3 (fock_cutoff + 1) (2 n_h)^2 complex numbers, plus a few
tile-sized arrays, whatever the number of frequencies.  Only the steady
state, at one frequency, back-substitutes and keeps its gains, about a
third of the triple again.  A 9-frequency call at fock_cutoff 40 peaks near
68 MiB (tracemalloc), 50 MiB of it the triple.
"""

from __future__ import annotations

import math

import numpy as np

from .bistability import ModelParams, PlaneWave
from .spectra import QuadratureSpectrum, _check_dephasing, quadrature_extrema

__all__ = [
    "steady_density",
    "homodyne_spectrum",
    "me_oracle_spectrum",
]


# === superoperator plumbing (column-stacking convention) ===

def _vec(rho: np.ndarray) -> np.ndarray:
    return rho.reshape(-1, order="F")


def _unvec(v: np.ndarray, n: int) -> np.ndarray:
    return v.reshape((n, n), order="F")


def _trace_vector(op: np.ndarray) -> np.ndarray:
    # row vector t with t @ vec(rho) = Tr(op @ rho)
    return op.reshape(-1, order="C")


def _effective_hamiltonian(h: np.ndarray, collapse_ops) -> np.ndarray:
    # K = -i h - sum_c c+c/2: the non-Hermitian part acting on each side of rho
    k = -1j * h
    for c in collapse_ops:
        k = k - 0.5 * (c.conj().T @ c)
    return k


def _photon_blocks(h: np.ndarray, collapse_ops):
    """Block triple of the Liouvillian of (h, collapse_ops), photon by photon.

    The Hilbert space is photon-outer, |n, s> at index 2n + s, and every
    operator couples photon numbers at most one apart.  Block (m, m') of the
    column-stacked L holds the columns j in J_m = {2m, 2m + 1} of rho against
    those in J_m', and from vec(A rho B) = (B^T (x) A) vec(rho) it is

        conj(K)[J_m, J_m'] (x) I + delta_mm' I_2 (x) K + sum_c conj(c)[J_m, J_m'] (x) c

    with K = -i h - sum_c c+c/2, so it is block-tridiagonal in m.  Quarter
    (s, s') of every block of the three diagonals comes out of one matrix
    product of the coefficients with the stacked operators (I, K, c...) and
    goes straight into its place, so neither the N x N matrix nor a second
    copy of the triple is formed.  Returns ``(lower, diag, upper)`` with
    diag[m] = block (m, m), lower[m] = (m+1, m) and upper[m] = (m, m+1),
    each a stack of 2n x 2n blocks.
    """
    n = h.shape[0]
    nb = n // 2
    k = _effective_hamiltonian(h, collapse_ops)
    m = np.arange(nb)
    rows = np.concatenate([m[1:], m, m[:-1]])  # lower, diagonal, upper
    cols = np.concatenate([m[:-1], m, m[1:]])

    def coefficients(op):
        return op.conj().reshape(nb, 2, nb, 2)[rows, :, cols, :]

    eye_on_diagonal = (rows == cols)[:, None, None] * np.eye(2)
    coef = np.stack([coefficients(k), eye_on_diagonal]
                    + [coefficients(c) for c in collapse_ops])
    ops = np.stack([np.eye(n), k] + list(collapse_ops))
    flat = ops.reshape(len(ops), -1)
    out = np.empty((rows.size, 2 * n, 2 * n), dtype=complex)
    # out[b, s, i, s', j] = sum_t coef[t, b, s, s'] ops[t, i, j]: a stacked
    # kron, one (s, s') quarter at a time, so the temporary is a quarter's size
    quarters = out.reshape(rows.size, 2, n, 2, n)
    for s in range(2):
        for s2 in range(2):
            quarters[:, s, :, s2, :] = (coef[:, :, s, s2].T @ flat).reshape(rows.size, n, n)
    return out[:nb - 1], out[nb - 1:2 * nb - 1], out[2 * nb - 1:]


# bytes of one stacked (n_Ω, b, b + 2) complex elimination array: the
# frequencies of a regression solve go in tiles of this size, 15 Ω at the
# default cutoff 15
_OMEGA_TILE_BYTES = 1 << 20


def _solve(s: np.ndarray, rhs: np.ndarray, omegas: np.ndarray) -> np.ndarray:
    """Stacked solve of s[i] x = rhs[i], one system per Ω."""
    try:
        return np.linalg.solve(s, rhs)
    except np.linalg.LinAlgError:
        sign, _ = np.linalg.slogdet(s)
        bad = omegas[np.argmin(np.abs(sign))]
        raise RuntimeError(
            f"master-equation block solve is singular at omega_hz={bad}"
        ) from None


def _block_solve(blocks, omegas: np.ndarray, rhs: np.ndarray, first_block,
                 functionals: np.ndarray | None = None) -> np.ndarray:
    """x[i] with (L + i omegas[i]) x[i] = rhs, for every Ω in one sweep.

    ``blocks`` is L's block triple ``(lower, diag, upper)`` (see
    ``_photon_blocks``), every block b x b.  Block elimination from the last
    block to the first: each step solves the trailing Schur complement S_k
    against the coupling to the block below and the carried right-hand side,
    all Ω stacked.  The first block's S_0 and right-hand side c_0 go to
    ``first_block(S_0, c_0, omegas)``, which returns x_0 with shape
    (n_Ω, b, r).  Cost O(N b^2) per Ω.

    Without ``functionals`` the other blocks follow by back-substitution,
    which keeps every step's gain, and x comes back whole, (n_Ω, N, r).  With
    functional rows T, a (q, N) array, only T x comes back, (n_Ω, q, r), and
    each gain is dropped once used: the blocks above k enter as an affine map
    f + W x_k of the unknowns x_k, and since each step leaves
    x_k+1 = part - gain x_k, it folds in f += (W + T_k+1) part and
    W <- -(W + T_k+1) gain.
    """
    lower, diag, upper = blocks
    n_om = omegas.size
    b = diag[0].shape[0]
    r = rhs.shape[1]
    shift = 1j * omegas[:, None]
    i = np.arange(b)
    last = len(diag) - 1

    def rows(k: int) -> slice:
        return slice(k * b, (k + 1) * b)

    s = np.empty((n_om, b, b), dtype=complex)
    s[...] = diag[last]
    s[:, i, i] += shift
    c = np.broadcast_to(rhs[rows(last)], (n_om, b, r))
    if functionals is not None:
        f = np.zeros((n_om, functionals.shape[0], r), dtype=complex)
        w = np.zeros((n_om, functionals.shape[0], b), dtype=complex)
    steps = []
    stack = np.empty((n_om, b, b + r), dtype=complex) if last else None
    for k in range(last - 1, -1, -1):
        stack[..., :b] = lower[k]
        stack[..., b:] = c
        m = _solve(s, stack, omegas)
        gain, part = m[..., :b], m[..., b:]
        # S_k = D_k + iΩ - U_k gain, written over S_k+1
        np.matmul(upper[k], gain, out=s)
        np.subtract(diag[k], s, out=s)
        s[:, i, i] += shift
        c = rhs[rows(k)] - upper[k] @ part
        if functionals is None:
            steps.append((gain, part))
        else:
            w += functionals[:, rows(k + 1)]
            f += w @ part
            w = -(w @ gain)
            stack = m  # the spent gain's storage holds the next step's stack
    del stack  # spent: not held through first_block
    x0 = first_block(s, c, omegas)
    if functionals is not None:
        w += functionals[:, rows(0)]
        return f + w @ x0
    x = [x0]
    for gain, part in reversed(steps):
        x.append(part - gain @ x[-1])
    return np.concatenate(x, axis=1)


def steady_density(lv, n: int) -> np.ndarray:
    """Stationary density matrix: null vector of L with unit trace.

    ``lv`` is L's block triple ``(lower, diag, upper)`` from
    ``_photon_blocks``; a dense L is the one-block triple ``([], [L], [])``.
    The null vector of the first block's Schur complement, back-substituted
    through the block elimination.
    """
    def null_vector(s, c, omegas):
        _, _, vh = np.linalg.svd(s[0])
        return vh[-1].conj()[None, :, None]

    v = _block_solve(lv, np.zeros(1), np.zeros((n * n, 1)), null_vector)
    rho = _unvec(v[0, :, 0], n)
    rho = rho / np.trace(rho)
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


def _regression_first_block(s, c, omegas):
    # L itself is singular at Ω = 0 (stationary mode); least squares there
    # is exact because every observable below has zero stationary mean
    still = omegas == 0.0
    x = np.empty(c.shape, dtype=complex)
    x[~still] = _solve(s[~still], c[~still], omegas[~still])
    for i in np.flatnonzero(still):
        x[i] = np.linalg.lstsq(s[i], c[i], rcond=None)[0]
    return x


def homodyne_spectrum(lv, a_op: np.ndarray, rho: np.ndarray,
                      kappa_hz: float, omega_hz) -> np.ndarray:
    """Shot-normalized 2x2 output quadrature spectral matrices at Ω.

    ``omega_hz`` is a scalar (one 2x2 matrix out) or an array (shape
    ``omega_hz.shape + (2, 2)``).  The output field is sqrt(2 kappa) a - a_in
    with vacuum input; two-time correlations of the intracavity fluctuation
    operator da = a - <a> are resolved in frequency through
    R(Ω) = -(L + iΩ)^(-1), the one-sided Laplace transform of the regression
    propagator.  ``lv`` is L's block triple (see ``steady_density``).  The
    frequencies are solved in tiles of at most ``_OMEGA_TILE_BYTES`` per
    stacked elimination array, so memory does not grow with their number.
    """
    omega = np.asarray(omega_hz, dtype=float)
    omegas = omega.ravel()
    n = a_op.shape[0]
    mean_a = np.trace(a_op @ rho)
    da = a_op - mean_a * np.eye(n)
    dad = da.conj().T

    # one-sided transforms of the time-and-normal-ordered correlations, as
    # functionals of the regression solutions sol = -R(Ω) rhs:
    # f[:, j, l] = Tr(op_j sol_l) with op = (da+, da)
    rhs = np.column_stack([_vec(da @ rho), _vec(rho @ dad)])
    functionals = np.stack([_trace_vector(dad), _trace_vector(da)])
    b = lv[1][0].shape[0]
    per_tile = max(1, _OMEGA_TILE_BYTES // (16 * b * (b + rhs.shape[1])))
    f = np.empty((omegas.size, 2, 2), dtype=complex)
    for lo in range(0, omegas.size, per_tile):
        tile = slice(lo, lo + per_tile)
        f[tile] = -_block_solve(lv, omegas[tile], rhs, _regression_first_block,
                                functionals)
    p1 = f[:, 0, 0]   # <da+(tau) da(0)>
    q2 = f[:, 1, 1]   # <da+(0) da(tau)>
    p3 = f[:, 1, 0]   # <da(tau) da(0)>
    q4 = f[:, 0, 1]   # <da+(0) da+(tau)>

    # the detected spectrum is S_phi = 1 + 4k*Re[p1 + q2 + e^{-2i phi}(p3 + q4*)],
    # the prefactor pinned by the analytic parametric-oscillator spectra
    four_k = 4.0 * kappa_hz
    m = 1.0 + four_k * (p1 + q2).real
    z = p3 + np.conj(q4)
    v = np.empty((omegas.size, 2, 2))
    v[:, 0, 0] = m + four_k * z.real
    v[:, 0, 1] = v[:, 1, 0] = four_k * z.imag
    v[:, 1, 1] = m - four_k * z.real
    return v.reshape(omega.shape + (2, 2))


# === the single-atom driven-cavity oracle ===

def _fock_destroy(dim: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, dim)), 1)


def _cavity_operators(p: ModelParams, drive_amp_hz: float, fock_cutoff: int):
    """Hamiltonian, collapse operators and cavity field of one atom in the cavity.

    The basis is photon-outer, |n, s> at index 2n + s, so every operator
    moves the photon number by at most one.
    """
    kappa, gamma, gpar = p.kappa_hz, p.gamma_hz, p.gamma_par_hz
    g = math.sqrt(2.0 * kappa * gamma * p.c)
    dim_c = fock_cutoff + 1
    a = np.kron(_fock_destroy(dim_c), np.eye(2))
    sm = np.kron(np.eye(dim_c), np.array([[0.0, 1.0], [0.0, 0.0]]))
    sz = np.kron(np.eye(dim_c), np.diag([1.0, -1.0]))

    # frame chosen so the mean-field cavity equation reads
    # d<a>/dt = -kappa(1+i theta)<a> + g <sigma-> + E
    h = (kappa * p.theta * (a.conj().T @ a)
         + gamma * p.delta * (sm.conj().T @ sm)
         + 1j * g * (a.conj().T @ sm - sm.conj().T @ a)
         + 1j * drive_amp_hz * (a.conj().T - a))
    collapse = [math.sqrt(2.0 * kappa) * a, math.sqrt(gpar) * sm]
    gamma_phi = gamma - 0.5 * gpar
    if gamma_phi > 1e-9 * gamma:
        collapse.append(math.sqrt(0.5 * gamma_phi) * sz)
    return h, collapse, a


def me_oracle_spectrum(p: ModelParams, omega_grid, drive_y: float | None = None,
                       drive_amp_hz: float | None = None,
                       fock_cutoff: int = 15) -> list[QuadratureSpectrum]:
    """Exact spectra for one atom (n_atoms must be 1, plane-wave profile).

    The drive is given either as the saturation-unit intensity ``drive_y``
    (converted through the photon scale) or directly as ``drive_amp_hz``.
    Raises if the truncated photon ladder holds visible population in its
    top level (tail mass >= 1e-8).
    """
    if not isinstance(p.transverse, PlaneWave):
        raise ValueError("the oracle handles the plane-wave profile only")
    if p.n_atoms != 1:
        raise ValueError(f"the oracle is a single-atom model, got n_atoms={p.n_atoms}")
    if (drive_y is None) == (drive_amp_hz is None):
        raise ValueError("specify exactly one of drive_y or drive_amp_hz")
    if isinstance(fock_cutoff, bool) or not isinstance(fock_cutoff, (int, np.integer)) \
            or fock_cutoff < 2:
        raise ValueError(f"fock_cutoff must be an int >= 2, got {fock_cutoff!r}")
    omegas = np.asarray(omega_grid, dtype=float).ravel()
    bad = omegas[~(np.isfinite(omegas) & (omegas >= 0))]
    if bad.size:
        raise ValueError(f"omega_hz must be finite and >= 0, got {bad[0]}")
    _check_dephasing(p)

    kappa, gamma, gpar = p.kappa_hz, p.gamma_hz, p.gamma_par_hz
    g = math.sqrt(2.0 * kappa * gamma * p.c)
    if drive_amp_hz is None:
        # saturation units need the photon scale, which vanishes with the coupling
        if p.c <= 0:
            raise ValueError("drive_y needs C > 0 to fix the photon scale; "
                             "use drive_amp_hz for an uncoupled cavity")
        if drive_y < 0:
            raise ValueError(f"drive_y must be >= 0, got {drive_y}")
        alpha = math.sqrt(gamma * gpar) / (2.0 * g)  # photons^(1/2) per sat unit
        drive_amp_hz = kappa * alpha * math.sqrt(drive_y)

    dim_c = fock_cutoff + 1
    h, collapse, a = _cavity_operators(p, drive_amp_hz, fock_cutoff)
    lv = _photon_blocks(h, collapse)
    rho = steady_density(lv, 2 * dim_c)

    pops = np.real(np.diag(rho))
    tail = pops[2 * (dim_c - 1)] + pops[2 * (dim_c - 1) + 1]
    if tail >= 1e-8:
        raise RuntimeError(
            f"photon ladder truncated too low: top-level population {tail:.3e} "
            f"at fock_cutoff={fock_cutoff}; raise the cutoff"
        )

    try:
        vs = homodyne_spectrum(lv, a, rho, kappa, omegas)
    except RuntimeError as exc:
        raise RuntimeError(f"{exc} at fock_cutoff={fock_cutoff}") from exc

    out = []
    for omega, v in zip(omegas, vs):
        s_min, s_max, theta = quadrature_extrema(v)
        out.append(QuadratureSpectrum(omega_hz=float(omega), v=v,
                                      s_min=s_min, s_max=s_max,
                                      theta_min=theta))
    return out
