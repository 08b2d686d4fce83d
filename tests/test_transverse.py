import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from dimred import harness, potentials, transverse
from dimred.config import ExperimentConfig
from dimred.errors import DegeneracyError, ResolutionError

QUARTIC_1D = 1.0 / math.sqrt(2.0 * math.pi)
QUARTIC_2D = 1.0 / (2.0 * math.pi)


@pytest.fixture(scope="module")
def harmonic_1d():
    conf = potentials.harmonic_confinement(dimension=1)
    return transverse.solve_modes(conf, transverse.TransverseGrid(9.0, 4001), 3)


def test_harmonic_1d_analytics(harmonic_1d):
    m = harmonic_1d
    assert m.energy0 == pytest.approx(1.0, abs=1e-10)
    assert m.gap == pytest.approx(2.0, abs=1e-10)
    assert m.quartic == pytest.approx(QUARTIC_1D, abs=1e-12)


def test_harmonic_1d_chi_properties(harmonic_1d):
    chi = harmonic_1d.chi
    h = harmonic_1d.spacing
    assert np.sum(chi**2) * h == pytest.approx(1.0, abs=1e-10)
    assert np.all(chi > -1e-12)  # single-signed after the sign fix


def test_rayleigh_quotient_matches_eigenvalue(harmonic_1d):
    # discrete <chi, (-Delta + V) chi> of the stored samples, -Delta by the
    # 7-point sixth-order stencil with zeros beyond the grid
    chi, h, y = harmonic_1d.chi, harmonic_1d.spacing, harmonic_1d.axis
    weights = (-1 / 90, 3 / 20, -3 / 2, 49 / 18, -3 / 2, 3 / 20, -1 / 90)
    padded = np.pad(chi, 3)
    minus_lap = sum(c * padded[k:k + len(chi)] for k, c in enumerate(weights)) / h**2
    r = float(np.sum(chi * (minus_lap + y**2 * chi)) * h)
    assert r == pytest.approx(harmonic_1d.energy0, abs=1e-9)


def test_harmonic_2d_analytics():
    # errors 1.5e-8, 6.0e-8 and 7.0e-9 on 141^2 points
    conf = potentials.harmonic_confinement(dimension=2)
    m = transverse.solve_modes(conf, transverse.TransverseGrid(6.5, 141), 2)
    assert m.energy0 == pytest.approx(2.0, abs=2e-8)
    assert m.gap == pytest.approx(2.0, abs=1e-7)
    assert m.quartic == pytest.approx(QUARTIC_2D, abs=1e-8)


def test_2d_solve_is_reproducible():
    # the excited pair is degenerate, so a random Arnoldi start picks a
    # different combination of it each call; a fixed start picks one
    conf = potentials.harmonic_confinement(dimension=2)
    a, b = (transverse.solve_modes(conf, transverse.TransverseGrid(6.5, 81), 2)
            for _ in range(2))
    assert np.array_equal(a.energies, b.energies)
    assert np.array_equal(a.modes, b.modes)


def test_constant_shift_moves_energy_not_state(harmonic_1d):
    shifted = potentials.ConfinementPotential(
        "shifted", lambda r: np.asarray(r) ** 2 + 3.0, 1)
    m = transverse.solve_modes(shifted, transverse.TransverseGrid(9.0, 4001), 2)
    assert m.energy0 == pytest.approx(harmonic_1d.energy0 + 3.0, abs=1e-10)
    assert np.max(np.abs(m.chi - harmonic_1d.chi)) < 1e-9


def test_sixth_order_eigenvalue_convergence():
    # halving h divides the energy error by 2^6: 61 and 63 measured from 65 to
    # 129 to 257 points in 1d, 62 from 51^2 to 101^2 points in 2d
    for dimension, extent, sizes in ((1, 8.0, (65, 129, 257)), (2, 6.5, (51, 101))):
        conf = potentials.harmonic_confinement(dimension=dimension)
        errs = [abs(transverse.solve_modes(conf, transverse.TransverseGrid(extent, n), 2).energy0
                    - dimension) for n in sizes]
        for coarse, fine in zip(errs, errs[1:]):
            assert coarse / fine == pytest.approx(64.0, rel=0.1)


def test_boundary_decay_check():
    conf = potentials.harmonic_confinement(dimension=1)
    with pytest.raises(ResolutionError):
        transverse.solve_modes(conf, transverse.TransverseGrid(3.0, 501), 2)


def test_degeneracy_detected():
    # two far-separated identical wells: lowest pair splits below 1e-10
    def double_well(r):
        r = np.asarray(r, dtype=float)
        return np.minimum((r - 12.0) ** 2, (r + 12.0) ** 2)

    conf = potentials.ConfinementPotential("double", double_well, 1)
    with pytest.raises(DegeneracyError):
        transverse.solve_modes(conf, transverse.TransverseGrid(25.0, 2001), 2)


def test_rescale_normalization_and_quartic(harmonic_1d):
    for eps in (0.25, 0.1):
        m = transverse.rescale(harmonic_1d, eps)
        assert np.sum(m.modes[0] ** 2) * m.weight == pytest.approx(1.0, abs=1e-10)
        assert m.quartic == pytest.approx(harmonic_1d.quartic / eps, rel=1e-10)
        assert m.energies[0] == pytest.approx(harmonic_1d.energies[0] / eps**2, rel=1e-12)


def test_rescale_2d_power_law():
    conf = potentials.harmonic_confinement(dimension=2)
    m = transverse.solve_modes(conf, transverse.TransverseGrid(6.5, 41), 2)
    m_eps = transverse.rescale(m, 0.1)
    assert m_eps.quartic == pytest.approx(100.0 * m.quartic, rel=1e-10)
    assert np.sum(m_eps.modes[0] ** 2) * m_eps.weight == pytest.approx(1.0, abs=1e-10)


def test_rescale_identity(harmonic_1d):
    m = transverse.rescale(harmonic_1d, 1.0)
    assert np.array_equal(m.chi, harmonic_1d.chi)


# ---------------------------------------------------------------------------
# mode correlations
# ---------------------------------------------------------------------------


def _random_mode(dimension, n_y, n_modes, seed):
    axis = np.linspace(-3.0, 3.0, n_y)
    modes = np.random.default_rng(seed).normal(size=(n_modes,) + (n_y,) * dimension)
    return transverse.TransverseMode(axis=axis, chi=modes[0], modes=modes,
                                     energies=np.arange(n_modes, dtype=float),
                                     dimension=dimension)


def _assert_rescaled_correlation_exact(mode, u_unit):
    # a rescaled mode reads its unit mode's spectrum, S^eps(u) = eps^-d S(u/eps);
    # it matches the spectrum of its own grid values, rescaled twice too
    for eps in (0.3, 0.05):
        scaled = transverse.rescale(transverse.rescale(mode, 0.5), eps / 0.5)
        assert scaled.unit is mode and scaled.epsilon == pytest.approx(eps, rel=1e-15)
        alone = dataclasses.replace(scaled, unit=None)
        u = eps * u_unit
        for n in (1, len(mode.modes)):
            ref = alone.correlation(u, n)
            got = scaled.correlation(u, n)
            assert got.shape == ref.shape == (n,) * 4 + u.shape
            assert np.max(np.abs(got - ref)) < 1e-13 * np.max(np.abs(ref))


def _trigonometric_sum(mode, u):
    # sum_k c_k e^(ik.u) over the whole stored spectrum, at offset vectors u (..., d)
    k, re, im, rows = mode._spectrum
    phase = np.exp(1j * np.tensordot(k, u, axes=([1], [-1]))).reshape(len(k), -1)
    return ((re + 1j * im) @ phase).real[rows].reshape(*rows.shape, *u.shape[:-1])


def test_mode_correlations_1d_against_direct_sum():
    # at the grid offsets the interpolant is the circular correlation, for an
    # even grid (whose Nyquist term is its own mirror) and an odd one
    for n_y in (40, 41):
        mode = _random_mode(1, n_y, 3, seed=11)
        f = (mode.modes[:, None] * mode.modes[None, :]).reshape(9, n_y)
        shift = (np.arange(n_y)[None, :] - np.arange(n_y)[:, None]) % n_y   # [k, j] -> j - k
        ref = mode.weight * np.einsum("pj,qkj->pqk", f, f[:, shift])
        got = mode.correlation(transverse.wrapped_offsets(mode.axis), 3)
        assert np.max(np.abs(got.reshape(9, 9, n_y) - ref)) < 1e-12 * np.max(np.abs(ref))
    _assert_rescaled_correlation_exact(mode, np.linspace(-2.5, 2.5, 11))


def test_mode_correlations_2d_against_direct_sum():
    # the 2d spectrum reproduces the circular correlation at every grid offset vector
    mode = _random_mode(2, 16, 2, seed=12)
    n = len(mode.axis)
    f = (mode.modes[:, None] * mode.modes[None, :]).reshape(4, n, n)
    shift = (np.arange(n)[None, :] - np.arange(n)[:, None]) % n
    shifted = f[:, shift[:, :, None, None], shift[None, None, :, :]]  # (q, k1, j1, k2, j2)
    ref = mode.weight * np.einsum("pab,qkalb->pqkl", f, shifted)
    o = transverse.wrapped_offsets(mode.axis)
    got = _trigonometric_sum(mode, np.stack(np.meshgrid(o, o, indexing="ij"), axis=-1))
    assert np.max(np.abs(got.reshape(4, 4, n, n) - ref)) < 1e-12 * np.max(np.abs(ref))
    _assert_rescaled_correlation_exact(mode, np.linspace(0.0, 2.5, 11))


def test_2d_correlation_is_the_angular_mean_of_the_trigonometric_sum():
    # J0(|k| rho) is the exact mean of e^(ik.u) over the circle |u| = rho; a
    # 256-angle trapezoid of the same sum resolves it to roundoff
    mode = _random_mode(2, 16, 2, seed=13)
    rho = np.linspace(0.0, 2.5, 11)
    theta = np.linspace(0.0, 2.0 * math.pi, 257)[:-1]
    u = rho[:, None, None] * np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    ref = _trigonometric_sum(mode, u).mean(axis=-1)
    got = mode.correlation(rho, 2)
    assert np.max(np.abs(got - ref)) < 1e-12 * np.max(np.abs(ref))


def _hermite_functions(n, y):
    # the normalized eigenfunctions of -d^2/dy^2 + y^2, by the three-term recursion
    psi = [math.pi**-0.25 * np.exp(-y * y / 2.0), math.sqrt(2.0) * y * math.pi**-0.25
           * np.exp(-y * y / 2.0)]
    for k in range(2, n):
        psi.append(math.sqrt(2.0 / k) * y * psi[-1] - math.sqrt((k - 1) / k) * psi[-2])
    return np.array(psi[:n])


def test_correlation_matches_the_harmonic_modes_on_the_default_sweep():
    # oracle: S from the exact Hermite functions, by a trapezoid sum on a fine
    # grid (exact to roundoff for a Gaussian decay), at every Gauss offset the
    # default sweep evaluates.  A mode's sign is a convention, so compare the
    # entries in which each index appears an even number of times.  The
    # sixth-order modes' own error is 4.8e-12; a cubic spline of the grid
    # correlations missed by 6.1e-9
    cfg = ExperimentConfig.from_file(Path(__file__).resolve().parents[1] / "configs"
                                     / "default.cfg")
    inputs = harness.sweep_inputs(cfg)
    mode, n = inputs.unscaled_mode, cfg.m_y
    u = np.concatenate([
        transverse.offset_rule(potentials.scale(inputs.profile, p, d_perp=1).range, 1, 64)[0]
        / p.epsilon for p in cfg.points()])
    got = mode.correlation(u, n)
    y = np.linspace(-14.0, 14.0, 28001)
    psi, psi_u = _hermite_functions(n, y), _hermite_functions(n, y[:, None] - u)
    ref = (y[1] - y[0]) * np.einsum("ay,cy,byu,dyu->acbdu", psi, psi, psi_u, psi_u)
    idx = np.indices((n,) * 4).reshape(4, -1).T
    even = np.array([np.all(np.bincount(r, minlength=n) % 2 == 0) for r in idx])
    err = np.abs(got - ref).reshape(n**4, -1)[even]
    assert np.max(err) < 1e-11 * np.max(np.abs(ref))


def test_2d_correlation_matches_the_harmonic_closed_form():
    # T(rho) = exp(-rho^2/2)/(2 pi) for the 2d harmonic ground state; on 121^2
    # points the spectral angular mean is 1.1e-7 off, a bicubic one was 1.1e-6
    mode = transverse.solve_modes(potentials.harmonic_confinement(dimension=2),
                                  transverse.TransverseGrid(6.5, 121), 2)
    rho = np.linspace(0.0, 3.0, 31)
    ref = np.exp(-rho**2 / 2.0) / (2.0 * math.pi)
    assert np.max(np.abs(mode.correlation(rho, 1)[0, 0, 0, 0] - ref)) < 3e-7 * ref[0]
