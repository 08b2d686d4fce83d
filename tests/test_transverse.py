import math
from pathlib import Path

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

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
    # a rescaled mode reads its unit mode's interpolant, S^eps(u) = eps^-d S(u/eps);
    # it matches the interpolant of its own correlations, rescaled twice too
    for eps in (0.3, 0.05):
        scaled = transverse.rescale(transverse.rescale(mode, 0.5), eps / 0.5)
        assert scaled.unit is mode and scaled.epsilon == pytest.approx(eps, rel=1e-15)
        u = eps * u_unit
        for n in (1, len(mode.modes)):
            ref = transverse.mode_correlations(scaled, n).interpolant()(u)
            got = scaled.correlation(u, n)
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref)) < 1e-13 * np.max(np.abs(ref))


def test_mode_correlations_1d_against_direct_sum():
    mode = _random_mode(1, 40, 3, seed=11)
    corr = transverse.mode_correlations(mode, 3)
    n = len(mode.axis)
    f = (mode.modes[:, None] * mode.modes[None, :]).reshape(9, n)
    shift = (np.arange(n)[None, :] - np.arange(n)[:, None]) % n     # [k, j] -> j - k
    ref = mode.weight * np.einsum("pj,qkj->pqk", f, f[:, shift])
    assert np.max(np.abs(corr.values.reshape(9, 9, n) - ref)) < 1e-12 * np.max(np.abs(ref))
    # the spline in the signed offset passes through every grid value
    at = corr.interpolant()
    assert np.max(np.abs(at(corr.offsets) - corr.values)) < 1e-12 * np.max(np.abs(ref))
    _assert_rescaled_correlation_exact(mode, np.linspace(-2.5, 2.5, 11))


def _assert_matches_cubic_spline(corr, u):
    # oracle: scipy's not-a-knot CubicSpline of the same grid values
    order = np.argsort(corr.offsets)
    lead = corr.values.shape[:4]
    oracle = CubicSpline(corr.offsets[order], corr.values.reshape(-1, len(order))[:, order],
                         axis=1)
    ref = oracle(u).reshape(*lead, *u.shape)
    got = corr.interpolant()(u)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_cubic_spline_against_scipy_on_random_data():
    rng = np.random.default_rng(5)
    x = np.sort(rng.uniform(-4.0, 4.0, 57))
    y = rng.normal(size=(57, 6))
    # nodes, interior points, and both ends' extrapolating cubics
    u = np.concatenate([x, rng.uniform(-4.0, 4.0, 300), [-6.0, -4.5, 4.5, 6.0]])
    ref = CubicSpline(x, y)(u)
    assert np.max(np.abs(transverse.cubic_spline(x, y)(u) - ref)) <= 1e-13 * np.max(np.abs(ref))
    mode = _random_mode(1, 81, 3, seed=6)
    corr = transverse.mode_correlations(mode, 3)
    _assert_matches_cubic_spline(corr, np.concatenate([corr.offsets, u]))


def test_interpolant_matches_cubic_spline_on_the_default_sweep():
    cfg = ExperimentConfig.from_file(Path(__file__).resolve().parents[1] / "configs"
                                     / "default.cfg")
    inputs = harness.sweep_inputs(cfg)
    mode = inputs.unscaled_mode
    corr = transverse.mode_correlations(mode, cfg.m_y)
    _assert_matches_cubic_spline(corr, corr.offsets)
    # the unit-mode offsets build_basis evaluates: Gauss nodes over the range, / eps
    assert -np.min(corr.offsets) == pytest.approx(8.0, rel=1e-12)
    for point in cfg.points():
        scaled = potentials.scale(inputs.profile, point, d_perp=cfg.d_perp)
        u, _ = transverse.offset_rule(scaled.range, mode.dimension, 64)
        _assert_matches_cubic_spline(corr, u / point.epsilon)
        # |u|/eps peaks at 0.707 (N = 2), far inside the half-span 8: no point
        # of the sweep reaches the extrapolating end cubics
        assert np.max(np.abs(u)) / point.epsilon <= 0.71


def test_mode_correlations_2d_against_direct_sum():
    mode = _random_mode(2, 16, 2, seed=12)
    corr = transverse.mode_correlations(mode, 2)
    n = len(mode.axis)
    f = (mode.modes[:, None] * mode.modes[None, :]).reshape(4, n, n)
    shift = (np.arange(n)[None, :] - np.arange(n)[:, None]) % n
    shifted = f[:, shift[:, :, None, None], shift[None, None, :, :]]  # (q, k1, j1, k2, j2)
    ref = mode.weight * np.einsum("pab,qkalb->pqkl", f, shifted)
    assert np.max(np.abs(corr.values.reshape(4, 4, n, n) - ref)) < 1e-12 * np.max(np.abs(ref))
    _assert_rescaled_correlation_exact(mode, np.linspace(0.0, 2.5, 11))
