"""Cross-validation of the linearized spectra against an exact master equation.

The oracle solves one atom in the driven cavity on a truncated photon basis
with no linearization, so these tests tie the whole drift/diffusion/output
construction to first-principles quantum mechanics.  Deviations at weak
saturation come only from the neglected nonlinear mixing and shrink with the
drive; the tolerances below were set with roughly 2-3x headroom over the
measured deviations.
"""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from cavsqueeze import (
    GaussianBins,
    ModelParams,
    build_fluctuation_system,
    output_spectrum,
    solve_steady_states,
    state_equation,
)
from cavsqueeze import oracle
from cavsqueeze.oracle import (
    _cavity_operators,
    _effective_hamiltonian,
    _fock_destroy,
    _photon_blocks,
    homodyne_spectrum,
    me_oracle_spectrum,
    steady_density,
)

KAPPA = 2.5e6
FIVE_POINT_GRID = np.array([0.0, 1.0, 2.0, 3.0, 4.0]) * KAPPA


def liouvillian(h, collapse_ops):
    """Dense matrix of rho -> -i[h, rho] + sum_c (c rho c+ - {c+c, rho}/2).

    I(x)K + conj(K)(x)I + sum_c conj(c)(x)c with K = -i h - sum_c c+c/2,
    since vec(A rho B) = (B^T (x) A) vec(rho).
    """
    eye = np.eye(h.shape[0])
    k = _effective_hamiltonian(h, collapse_ops)
    return (np.kron(eye, k) + np.kron(k.conj(), eye)
            + sum(np.kron(c.conj(), c) for c in collapse_ops))


def _linearized_v(p, drive_y, x_target, omega_hz):
    roots = solve_steady_states(drive_y, p)
    ss = min(roots, key=lambda r: abs(r.intensity - x_target))
    fs = build_fluctuation_system(ss, p)
    return output_spectrum(fs, omega_hz).v


def _worst_deviation(p, x_target, tol_tail=15):
    y = state_equation(x_target, p)
    worst = 0.0
    for q_me in me_oracle_spectrum(p, FIVE_POINT_GRID, drive_y=y,
                                   fock_cutoff=tol_tail):
        v_lin = _linearized_v(p, y, x_target, q_me.omega_hz)
        worst = max(worst, float(np.max(np.abs(v_lin - q_me.v))))
    return worst


# === exactly solvable reference: the degenerate parametric amplifier ===


def test_parametric_amplifier_matches_closed_form():
    """A quadratic cavity-only Hamiltonian has closed-form output spectra;
    this pins the shot normalization and the 4-kappa output prefactor."""
    eps = 0.6 * KAPPA
    dim = 26  # even, so that photon pairs fill the blocks
    a = _fock_destroy(dim)
    h = 0.5j * eps * (a.conj().T @ a.conj().T - a @ a)
    lv = _photon_blocks(h, [math.sqrt(2.0 * KAPPA) * a])
    rho = steady_density(lv, dim)
    for omega in (0.0, 0.5 * KAPPA, KAPPA, 3.0 * KAPPA):
        v = homodyne_spectrum(lv, a, rho, KAPPA, omega)
        s_amp = 1.0 + 4.0 * KAPPA * eps / ((KAPPA - eps) ** 2 + omega ** 2)
        s_sq = 1.0 - 4.0 * KAPPA * eps / ((KAPPA + eps) ** 2 + omega ** 2)
        assert abs(v[0, 0] - s_amp) < 1e-5
        assert abs(v[1, 1] - s_sq) < 1e-5
        assert abs(v[0, 1]) < 1e-8
        assert abs(v[0, 1] - v[1, 0]) < 1e-12


def test_steady_density_is_a_state():
    eps = 0.4 * KAPPA
    dim = 16
    a = _fock_destroy(dim)
    h = 0.5j * eps * (a.conj().T @ a.conj().T - a @ a)
    lv = _photon_blocks(h, [math.sqrt(2.0 * KAPPA) * a])
    rho = steady_density(lv, dim)
    assert abs(np.trace(rho) - 1.0) < 1e-10
    assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
    assert np.min(np.linalg.eigvalsh(rho)) > -1e-10


# === degenerate limits ===


def test_undriven_cavity_emits_vacuum():
    p = ModelParams(c=0.2, delta=0.3, theta=1.0, n_atoms=1)
    for q in me_oracle_spectrum(p, [0.0, KAPPA, 3.0 * KAPPA], drive_y=0.0):
        assert np.max(np.abs(q.v - np.eye(2))) < 1e-10


def test_uncoupled_driven_cavity_emits_vacuum():
    # with the coupling off the cavity just sits in a coherent state
    p = ModelParams(c=0.0, theta=0.7, n_atoms=1)
    for q in me_oracle_spectrum(p, [0.0, KAPPA], drive_amp_hz=0.4 * KAPPA):
        assert np.max(np.abs(q.v - np.eye(2))) < 1e-10


# === agreement with the linearized treatment at weak saturation ===


def test_weak_drive_agreement_on_resonance():
    p = ModelParams(c=0.2, delta=0.0, theta=0.0, n_atoms=1)
    assert _worst_deviation(p, 0.05) < 0.012


def test_weak_drive_agreement_detuned():
    p = ModelParams(c=0.35, delta=1.4, theta=-0.9, n_atoms=1)
    assert _worst_deviation(p, 0.06) < 0.005


def test_weak_drive_agreement_with_dephasing():
    p = ModelParams(c=0.3, delta=0.5, theta=0.2, gamma_par_ratio=1.2,
                    n_atoms=1)
    assert _worst_deviation(p, 0.05) < 0.008


# === guard rails ===


def test_truncated_ladder_with_population_on_top_is_rejected():
    p = ModelParams(c=0.2, theta=0.0, n_atoms=1)
    with pytest.raises(RuntimeError):
        me_oracle_spectrum(p, [0.0], drive_amp_hz=2.0 * KAPPA, fock_cutoff=3)


def test_drive_arguments_must_be_unambiguous():
    p = ModelParams(c=0.2, n_atoms=1)
    with pytest.raises(ValueError):
        me_oracle_spectrum(p, [0.0])
    with pytest.raises(ValueError):
        me_oracle_spectrum(p, [0.0], drive_y=0.1, drive_amp_hz=1e5)
    with pytest.raises(ValueError):
        me_oracle_spectrum(p, [0.0], drive_y=-0.1)


def test_saturation_drive_needs_coupling():
    p = ModelParams(c=0.0, n_atoms=1)
    with pytest.raises(ValueError):
        me_oracle_spectrum(p, [0.0], drive_y=0.1)


def test_many_atom_or_profiled_requests_are_rejected():
    with pytest.raises(ValueError):
        me_oracle_spectrum(ModelParams(c=0.2, n_atoms=2), [0.0], drive_y=0.1)
    with pytest.raises(ValueError):
        me_oracle_spectrum(
            ModelParams(c=0.2, n_atoms=1, transverse=GaussianBins(m=4)),
            [0.0],
            drive_y=0.1,
        )


def test_slow_dipole_decay_is_rejected():
    p = ModelParams(c=0.2, n_atoms=1, gamma_par_ratio=2.5)
    with pytest.raises(ValueError):
        me_oracle_spectrum(p, [0.0], drive_y=0.1)


@pytest.mark.parametrize("omegas", [[0.0, np.nan], [np.inf], [KAPPA, -KAPPA]])
def test_bad_frequencies_are_rejected(omegas):
    p = ModelParams(c=0.2, n_atoms=1)
    with pytest.raises(ValueError, match="omega_hz must be finite and >= 0"):
        me_oracle_spectrum(p, omegas, drive_y=0.01, fock_cutoff=4)


@pytest.mark.parametrize("cutoff", [-3, -1, 0, 1, 15.0, True, "15"])
def test_bad_fock_cutoff_is_rejected(cutoff):
    p = ModelParams(c=0.2, n_atoms=1)
    with pytest.raises(ValueError, match="fock_cutoff must be an int >= 2"):
        me_oracle_spectrum(p, [0.0], drive_y=0.01, fock_cutoff=cutoff)


def test_singular_regression_solve_names_frequency_and_cutoff(monkeypatch):
    # with no dissipation L is diagonal, and L + iΩ is exactly singular where Ω
    # matches a level spacing of h
    h = np.diag([0.0, 1.0, 3.0]) * KAPPA
    lv = ([], [liouvillian(h, [])], [])
    rho = np.diag([1.0, 0.0, 0.0]).astype(complex)
    with pytest.raises(RuntimeError, match="omega_hz=2500000.0"):
        homodyne_spectrum(lv, _fock_destroy(3), rho, KAPPA, [0.5 * KAPPA, KAPPA])

    def singular(*args):
        raise RuntimeError("master-equation block solve is singular at omega_hz=1.0")

    monkeypatch.setattr(oracle, "homodyne_spectrum", singular)
    p = ModelParams(c=0.2, n_atoms=1)
    with pytest.raises(RuntimeError, match="omega_hz=1.0 at fock_cutoff=6"):
        me_oracle_spectrum(p, [1.0], drive_y=0.01, fock_cutoff=6)


def test_singular_solve_in_a_later_tile_names_its_own_frequency(monkeypatch):
    # one frequency per tile: the third tile is singular, the first two are not
    monkeypatch.setattr(oracle, "_OMEGA_TILE_BYTES", 1)
    h = np.diag([0.0, 1.0, 3.0]) * KAPPA
    lv = ([], [liouvillian(h, [])], [])
    rho = np.diag([1.0, 0.0, 0.0]).astype(complex)
    with pytest.raises(RuntimeError, match=r"omega_hz=2500000\.0$"):
        homodyne_spectrum(lv, _fock_destroy(3), rho, KAPPA,
                          [0.5 * KAPPA, 1.5 * KAPPA, KAPPA])


# === the banded solver against dense references ===


def test_liouvillian_matches_textbook_superoperator():
    rng = np.random.default_rng(7)
    n = 5

    def cplx(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    x = cplx(n, n)
    h = x + x.conj().T
    cs = [cplx(n, n), cplx(n, n)]

    def rhs(rho):
        out = -1j * (h @ rho - rho @ h)
        for c in cs:
            cdc = c.conj().T @ c
            out += c @ rho @ c.conj().T - 0.5 * (cdc @ rho + rho @ cdc)
        return out

    # column k of the matrix is the map applied to the k-th basis matrix
    ref = np.empty((n * n, n * n), dtype=complex)
    for k in range(n * n):
        e = np.zeros(n * n, dtype=complex)
        e[k] = 1.0
        ref[:, k] = rhs(e.reshape((n, n), order="F")).reshape(-1, order="F")
    lv = liouvillian(h, cs)
    assert np.max(np.abs(lv - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_batched_frequencies_match_single_calls():
    p = ModelParams(c=0.3, delta=0.5, theta=0.2, gamma_par_ratio=1.2, n_atoms=1)
    h, collapse, a = _cavity_operators(p, 0.3 * KAPPA, 8)
    lv = _photon_blocks(h, collapse)
    rho = steady_density(lv, a.shape[0])
    vs = homodyne_spectrum(lv, a, rho, KAPPA, FIVE_POINT_GRID)
    assert vs.shape == (5, 2, 2)
    for omega, v in zip(FIVE_POINT_GRID, vs):
        single = homodyne_spectrum(lv, a, rho, KAPPA, omega)
        assert single.shape == (2, 2)
        assert np.max(np.abs(single - v)) < 1e-12


def test_one_frequency_tiles_match_one_tile(monkeypatch):
    p = ModelParams(c=0.3, delta=0.5, theta=0.2, gamma_par_ratio=1.2, n_atoms=1)
    h, collapse, a = _cavity_operators(p, 0.3 * KAPPA, 8)
    lv = _photon_blocks(h, collapse)
    rho = steady_density(lv, a.shape[0])
    one_tile = homodyne_spectrum(lv, a, rho, KAPPA, FIVE_POINT_GRID)
    monkeypatch.setattr(oracle, "_OMEGA_TILE_BYTES", 1)
    tiled = homodyne_spectrum(lv, a, rho, KAPPA, FIVE_POINT_GRID)
    assert np.max(np.abs(tiled - one_tile)) < 1e-12


def _dense_reference(lv, a_op, omegas):
    """Steady state from the null space of L, spectra from dense solves of L + iΩ."""
    n = a_op.shape[0]
    null = scipy.linalg.null_space(lv)
    assert null.shape[1] == 1
    rho = null[:, 0].reshape((n, n), order="F")
    rho = rho / np.trace(rho)
    rho = 0.5 * (rho + rho.conj().T)
    da = a_op - np.trace(a_op @ rho) * np.eye(n)
    dad = da.conj().T
    rhs = np.column_stack([(da @ rho).reshape(-1, order="F"),
                           (rho @ dad).reshape(-1, order="F")])
    vs = []
    for omega in omegas:
        sol = -scipy.linalg.solve(lv + 1j * omega * np.eye(n * n), rhs)
        x0, x1 = (sol[:, j].reshape((n, n), order="F") for j in (0, 1))
        p1, q2 = np.trace(dad @ x0), np.trace(da @ x1)
        p3, q4 = np.trace(da @ x0), np.trace(dad @ x1)
        m = 1.0 + 4.0 * KAPPA * (p1 + q2).real
        z = 4.0 * KAPPA * (p3 + np.conj(q4))
        vs.append([[m + z.real, z.imag], [z.imag, m - z.real]])
    return rho, np.array(vs)


def _random_dense_system():
    rng = np.random.default_rng(11)
    n = 8
    x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = KAPPA * (x + x.conj().T)
    a = _fock_destroy(n)
    return liouvillian(h, [math.sqrt(2.0 * KAPPA) * a, math.sqrt(KAPPA) * a.T @ a]), a


# (model, drive amplitude, fock_cutoff)
CAVITY_CASES = {
    "resonant-8": (ModelParams(c=0.2, n_atoms=1), 0.3 * KAPPA, 8),
    "dephasing-15": (ModelParams(c=0.3, delta=0.5, theta=0.2,
                                 gamma_par_ratio=1.2, n_atoms=1),
                     0.4 * KAPPA, 15),
    "uncoupled-20": (ModelParams(c=0.0, theta=0.7, n_atoms=1),
                     0.4 * KAPPA, 20),
}


@pytest.mark.parametrize("case", ["resonant-8", "dephasing-15", "uncoupled-20", "dense"])
def test_banded_elimination_matches_dense_reference(case):
    omegas = np.array([0.5, 1.0, 3.0]) * KAPPA
    if case == "dense":
        lv, a = _random_dense_system()
        blocks = ([], [lv], [])
    else:
        p, amp, cutoff = CAVITY_CASES[case]
        h, collapse, a = _cavity_operators(p, amp, cutoff)
        lv = liouvillian(h, collapse)
        blocks = _photon_blocks(h, collapse)
    n = a.shape[0]
    rho_ref, v_ref = _dense_reference(lv, a, omegas)
    rho = steady_density(blocks, n)
    assert np.max(np.abs(rho - rho_ref)) <= 1e-10 * np.max(np.abs(rho_ref))
    v = homodyne_spectrum(blocks, a, rho, KAPPA, omegas)
    assert np.max(np.abs(v - v_ref)) <= 1e-10 * np.max(np.abs(v_ref))


# === block assembly: the photon blocks without the dense matrix ===


@pytest.mark.parametrize("case", list(CAVITY_CASES))
def test_photon_blocks_match_dense_liouvillian(case):
    p, amp, cutoff = CAVITY_CASES[case]
    h, collapse, _ = _cavity_operators(p, amp, cutoff)
    lv = liouvillian(h, collapse)
    lower, diag, upper = _photon_blocks(h, collapse)
    b = 4 * (cutoff + 1)  # two columns of rho, each n_h = 2 (cutoff + 1) long
    assert diag.shape == (cutoff + 1, b, b)
    assert lower.shape == upper.shape == (cutoff, b, b)
    tol = 1e-13 * np.max(np.abs(lv))
    rebuilt = np.zeros_like(lv)
    for m, d in enumerate(diag):
        here = slice(m * b, (m + 1) * b)
        assert np.max(np.abs(d - lv[here, here])) <= tol
        rebuilt[here, here] = d
    for m, (lo, up) in enumerate(zip(lower, upper)):
        here, above = slice(m * b, (m + 1) * b), slice((m + 1) * b, (m + 2) * b)
        assert np.max(np.abs(lo - lv[above, here])) <= tol
        assert np.max(np.abs(up - lv[here, above])) <= tol
        rebuilt[above, here], rebuilt[here, above] = lo, up
    # nothing of lv lies outside the three block diagonals
    assert np.max(np.abs(lv - rebuilt)) <= tol


# === memory: no Schur gain is kept, and the frequencies go in tiles ===


def _traced_oracle_peak(cutoff, n_omega):
    """tracemalloc peak of the benchmark's o15 call shape, in bytes."""
    p = ModelParams(c=0.2, delta=0.0, theta=0.0, n_atoms=1)
    y = state_equation(0.05, p)
    omegas = np.linspace(0.0, 4.0 * KAPPA, n_omega)
    tracemalloc.start()
    try:
        me_oracle_spectrum(p, omegas, drive_y=y, fock_cutoff=cutoff)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_oracle_call_keeps_no_schur_gains():
    # the block triple (2.9 MiB) and one tile of elimination stacks; keeping
    # every step's gain for all 9 frequencies peaked at 13.4 MiB
    assert _traced_oracle_peak(15, 9) < 6.5 * 2**20


def test_oracle_memory_is_flat_in_the_frequency_count():
    # 64 frequencies go in tiles of 9 at cutoff 20; with every frequency
    # stacked at once the peak grew by about 2.5 MiB per frequency
    grow = _traced_oracle_peak(20, 64) - _traced_oracle_peak(20, 4)
    assert grow < 2 * 2**20
