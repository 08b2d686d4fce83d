import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from dimred import potentials, scaling
from dimred.errors import DomainError

BALL_L1 = 4.0 * math.pi / 3.0
SHELL_AREA = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}  # |S^(d-1)|
QUARTIC_2D = 1.0 / (2.0 * math.pi)


def test_gauss_legendre_on_intervals():
    lo, hi = np.array([0.0, -1.5, 0.3]), np.array([2.0, 1.5, 0.7])
    x, w = potentials.gauss_legendre(lo, hi, 24)
    assert x.shape == w.shape == (3, 24)
    assert np.all((x > lo[:, None]) & (x < hi[:, None]))
    # exact for polynomials of degree 2n - 1
    assert np.sum(w * x**47, axis=-1) == pytest.approx((hi**48 - lo**48) / 48.0, rel=1e-13)
    # [-a, a] maps to a x and [0, a] to (a/2)(x + 1), with no midpoint rounding
    nodes, weights = np.polynomial.legendre.leggauss(24)
    a = 0.1 * math.pi
    assert np.array_equal(potentials.gauss_legendre(-a, a, 24)[0], a * nodes)
    assert np.array_equal(potentials.gauss_legendre(0.0, a, 24)[0], 0.5 * a * (nodes + 1.0))
    assert np.array_equal(potentials.gauss_legendre(0.0, a, 24)[1], 0.5 * a * weights)
    # an empty interval has zero weight and every node at its point
    x0, w0 = potentials.gauss_legendre(0.4, 0.4, 24)
    assert np.all(x0 == 0.4) and np.all(w0 == 0.0)


def test_uniform_ball_l1_quadrature():
    prof = potentials.uniform_ball()
    assert prof.shell_integral(3) == pytest.approx(BALL_L1, abs=1e-10)
    assert prof.radial_profile(0.0) == 1.0
    assert prof.support_radius == 1.0


KINKED = potentials.from_table([0.0, 0.3, 0.7, 1.2, 2.0], [2.0, 1.5, 1.8, 0.4, 0.1])


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("prof", [potentials.uniform_ball(3.0, 1.0),
                                  potentials.gaussian_bump(2.0, 1.3),
                                  KINKED], ids=lambda p: p.name)
def test_shell_integral_matches_quad(prof, dim):
    # oracle: adaptive quadrature, told where the table kinks
    val, _ = quad(lambda r: r ** (dim - 1) * float(prof.radial_profile(np.asarray(r))),
                  0.0, prof.support_radius, points=prof.kinks or None,
                  epsabs=0.0, epsrel=1e-13, limit=400)
    assert prof.shell_integral(dim) == pytest.approx(SHELL_AREA[dim] * val, rel=1e-13)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_uniform_ball_shell_integral_closed_form(dim):
    # h R^d / d |S^(d-1)|
    prof = potentials.uniform_ball(height=3.0, radius=1.7)
    assert prof.shell_integral(dim) == pytest.approx(3.0 * 1.7**dim / dim * SHELL_AREA[dim],
                                                     rel=1e-14)


def test_profile_values_vanish_beyond_support():
    prof = potentials.gaussian_bump(height=2.0, radius=1.5)
    r = np.linspace(0, 3, 100)
    vals = prof.radial_profile(r)
    assert np.all(vals[r > 1.5] == 0.0)
    assert np.all(vals >= 0.0)


def test_scale_example():
    # w = 1 on |z|<=1, beta=1/2, N/eps^2 = 1e6
    p = scaling.make_point(10**4, 0.1, 0.5)
    sc = potentials.scale(potentials.uniform_ball(), p)
    assert sc.amplitude == pytest.approx(1e3, rel=1e-12)
    assert sc.range == pytest.approx(1e-3, rel=1e-12)
    assert sc.integral(3) == pytest.approx(BALL_L1 * 1e-6, rel=1e-12)


def test_scale_beta_third_amplitude_one():
    for n, eps in ((100, 0.3), (10**4, 0.01), (10**6, 0.21)):
        p = scaling.make_point(n, eps, 1.0 / 3.0)
        sc = potentials.scale(potentials.uniform_ball(), p)
        assert sc.amplitude == pytest.approx(1.0, rel=1e-12)


def test_scale_zero_interaction():
    p = scaling.make_point(100, 0.1, 0.5)
    sc = potentials.scale(potentials.uniform_ball(height=0.0), p)
    assert sc.integral(3) == 0.0
    assert potentials.effective_coupling(sc, QUARTIC_2D / p.epsilon**2) == 0.0


def test_integral_matches_quadrature():
    p = scaling.make_point(10**3, 0.05, 0.7)
    sc = potentials.scale(potentials.gaussian_bump(height=2.0), p)
    # independent radial quadrature of the scaled evaluator
    shell, _ = quad(lambda r: r**2 * float(sc(r)), 0.0, sc.range, epsabs=1e-12, epsrel=1e-10,
                    limit=200)
    assert sc.integral(3) == pytest.approx(4.0 * math.pi * shell, rel=1e-8)


def test_sup_of_scaled_family():
    p = scaling.make_point(10**3, 0.05, 0.7)
    sc = potentials.scale(potentials.uniform_ball(height=2.5), p)
    r = np.linspace(0, sc.range, 4001)
    assert np.max(sc(r)) == pytest.approx(sc.amplitude * 2.5, rel=1e-12)


def test_coupling_example():
    # at d_perp = 2 the rescaled quartic is eps^-2 times the unscaled one
    p = scaling.make_point(10**4, 0.1, 0.5)
    sc = potentials.scale(potentials.uniform_ball(), p)
    assert potentials.effective_coupling(sc, QUARTIC_2D / p.epsilon**2) == pytest.approx(
        2.0 / 3.0, rel=1e-10)


def test_coupling_invariant_across_points():
    prof = potentials.uniform_ball(height=1.3)
    points = [scaling.make_point(n, float(n) ** -1.0, 0.5) for n in (10**2, 10**3, 10**4, 10**5)]
    b = [potentials.effective_coupling(potentials.scale(prof, p), QUARTIC_2D / p.epsilon**2)
         for p in points]
    for val in b[1:]:
        assert val == pytest.approx(b[0], rel=1e-12)


def test_effective_coupling_invariant_for_surrogate():
    # the rescaled quartic carries the eps^-d_perp of |chi^eps|^4
    prof = potentials.uniform_ball(height=1.3)
    q0 = 1.0 / math.sqrt(2.0 * math.pi)
    vals = []
    for n in (10, 100, 1000):
        p = scaling.make_point(n, float(n) ** -1.0, 0.5)
        sc = potentials.scale(prof, p, d_perp=1)
        vals.append(potentials.effective_coupling(sc, q0 / p.epsilon))
    for val in vals[1:]:
        assert val == pytest.approx(vals[0], rel=1e-12)


def test_from_table_roundtrip(tmp_path):
    r = np.linspace(0.0, 2.0, 64)
    w = np.exp(-r)
    path = tmp_path / "prof.csv"
    np.savetxt(path, np.column_stack([r, w]), delimiter=",")
    prof = potentials.from_csv(path)
    assert prof.support_radius == 2.0
    mid = prof.radial_profile(np.array([0.5]))
    assert mid[0] == pytest.approx(math.exp(-0.5), rel=1e-3)


def test_from_table_l1_norm_is_exact():
    r = np.array([0.0, 0.3, 0.7, 1.2, 2.0])
    w = np.array([2.0, 1.5, 1.8, 0.4, 0.1])
    prof = potentials.from_table(r, w)
    # oracle: exact int s^2 w(s) ds of the interpolant, one linear piece at a time
    r0, r1, w0, w1 = r[:-1], r[1:], w[:-1], w[1:]
    exact = np.sum((r1 - r0) / 12.0 * (w0 * (3.0 * r0**2 + 2.0 * r0 * r1 + r1**2)
                                       + w1 * (r0**2 + 2.0 * r0 * r1 + 3.0 * r1**2)))

    # s^2 w(s) is a cubic on each linear piece, where Simpson's rule is exact
    def f(s):
        return s**2 * np.interp(s, r, w)

    mid = 0.5 * (r[:-1] + r[1:])
    simpson = np.sum((r[1:] - r[:-1]) / 6.0 * (f(r[:-1]) + 4.0 * f(mid) + f(r[1:])))
    assert exact == pytest.approx(simpson, rel=1e-14)
    assert prof.shell_integral(3) == pytest.approx(4.0 * math.pi * exact, rel=1e-12)
    # a straight ramp a (1 - r/R) integrates to pi a R^3 / 3
    ramp = potentials.from_table([0.0, 0.5, 1.5], [3.0, 2.0, 0.0])
    assert ramp.shell_integral(3) == pytest.approx(math.pi * 3.0 * 1.5**3 / 3.0, rel=1e-14)


def test_from_table_rejects_negative():
    with pytest.raises(DomainError):
        potentials.from_table([0.0, 1.0], [1.0, -0.5])


def test_confinement_builtins():
    conf = potentials.confinement_by_name("harmonic", 2)
    assert conf.dimension == 2
    y = np.linspace(-2, 2, 5)
    assert potentials.confinement_by_name("harmonic", 1).on_grid(y) == pytest.approx(y**2)
    v2 = conf.on_grid(y, y)
    assert v2[0, 0] == pytest.approx(8.0)
    soft = potentials.confinement_by_name("softened", 1)
    assert soft.dimension == 1
    assert soft.on_grid(np.array([0.0, 100.0])) == pytest.approx([0.0, 20.0])


def test_external_builtins():
    ext = potentials.external_by_name("gaussian_well", depth=2.0)
    x = np.linspace(-1, 1, 11)
    assert ext.profile(x, 0.0, 0.0)[5] == pytest.approx(-2.0)
    assert not ext.time_dependent and ext.strength(3.0) == 1.0
    drv = potentials.external_by_name("driven_well")
    assert drv.time_dependent and drv.time_derivative_sup > 0
    # V(t) = f(t) g: the modulation scales one static profile
    assert drv.strength(0.4) == pytest.approx(1.0 + 0.5 * np.sin(0.4), rel=1e-15)
    assert drv.strength(0.0) == 1.0
    # whether a field is driven follows from its modulation alone
    with pytest.raises(AttributeError):
        drv.time_dependent = False
    with pytest.raises(TypeError):
        potentials.ExternalPotential("w", drv.profile, 0.0, 0.0, time_dependent=True)


def test_zero_external_is_no_field():
    assert potentials.external_by_name("zero") is None


def test_profile_by_name_covers_every_config_name(tmp_path):
    ball = potentials.profile_by_name("uniform_ball", 3.0, 0.5)
    assert (ball.name, ball.radial_profile(0.0), ball.support_radius) == ("uniform_ball", 3.0, 0.5)
    bump = potentials.profile_by_name("gaussian_bump", 2.0, 1.5)
    assert (bump.name, bump.radial_profile(0.0), bump.support_radius) == ("gaussian_bump", 2.0, 1.5)
    table = tmp_path / "ramp.csv"
    table.write_text("# r,w\n0.0,2.0\n1.5,0.0\n")
    ramp = potentials.profile_by_name(str(table), 3.0, 0.5)  # the table fixes its own
    assert (ramp.name, ramp.radial_profile(0.0), ramp.support_radius) == (str(table), 2.0, 1.5)
    assert potentials.profile_by_name("zero", 3.0, 0.5).shell_integral(3) == 0.0


def test_unknown_names_rejected():
    with pytest.raises(DomainError):
        potentials.profile_by_name("noball", 1.0, 1.0)
    with pytest.raises(DomainError):
        potentials.external_by_name("nowell")
    with pytest.raises(DomainError):
        potentials.confinement_by_name("notrap", 1)


@given(
    n=st.integers(min_value=2, max_value=10**6),
    eps=st.floats(min_value=1e-4, max_value=0.9),
    beta=st.floats(min_value=0.05, max_value=0.95),
    height=st.floats(min_value=0.1, max_value=10.0),
)
@settings(max_examples=50, deadline=None)
def test_scaled_integral_change_of_variables(n, eps, beta, height):
    p = scaling.make_point(n, eps, beta)
    sc = potentials.scale(potentials.uniform_ball(height=height), p)
    # 3-d integral: amplitude * mu^3 * l1 == (N/eps^2)^-1 * l1 exactly
    expected = p.density_scale**-1.0 * height * BALL_L1
    assert sc.integral(3) == pytest.approx(expected, rel=1e-10)
