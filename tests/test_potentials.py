import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimred import potentials, scaling
from dimred.errors import DomainError

BALL_L1 = 4.0 * math.pi / 3.0
QUARTIC_2D = 1.0 / (2.0 * math.pi)


def test_uniform_ball_l1_quadrature():
    prof = potentials.uniform_ball()
    assert prof.l1_norm == pytest.approx(BALL_L1, abs=1e-10)
    assert prof.sup_bound == 1.0
    assert prof.support_radius == 1.0


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
    assert potentials.coupling(sc, QUARTIC_2D) == 0.0


def test_integral_matches_quadrature():
    p = scaling.make_point(10**3, 0.05, 0.7)
    sc = potentials.scale(potentials.gaussian_bump(height=2.0), p)
    assert sc.integral(3) == pytest.approx(sc.integral_quadrature(3), rel=1e-8)


def test_sup_of_scaled_family():
    p = scaling.make_point(10**3, 0.05, 0.7)
    sc = potentials.scale(potentials.uniform_ball(height=2.5), p)
    r = np.linspace(0, sc.range, 4001)
    assert np.max(sc(r)) == pytest.approx(sc.amplitude * 2.5, rel=1e-12)


def test_coupling_example():
    p = scaling.make_point(10**4, 0.1, 0.5)
    sc = potentials.scale(potentials.uniform_ball(), p)
    assert potentials.coupling(sc, QUARTIC_2D) == pytest.approx(2.0 / 3.0, rel=1e-10)


def test_coupling_invariant_across_points():
    prof = potentials.uniform_ball(height=1.3)
    b = [potentials.coupling(potentials.scale(prof, scaling.make_point(n, float(n) ** -1.0, 0.5)),
                             QUARTIC_2D) for n in (10**2, 10**3, 10**4, 10**5)]
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


def test_born_length_example():
    p = scaling.make_point(10**4, 0.1, 0.5)
    sc = potentials.scale(potentials.uniform_ball(), p)
    assert potentials.born_length(sc) == pytest.approx(1e-6 / 6.0, rel=1e-10)


def test_born_length_times_density_constant():
    prof = potentials.uniform_ball()
    vals = [potentials.born_length(potentials.scale(prof, scaling.make_point(n, float(n) ** -0.8, 0.5)))
            * scaling.make_point(n, float(n) ** -0.8, 0.5).density_scale
            for n in (100, 10**4)]
    assert vals[0] == pytest.approx(vals[1], rel=1e-12)


def test_validate_family_power_law_passes():
    p = scaling.make_point(10**4, 0.1, 0.5)
    prof = potentials.uniform_ball()
    sc = potentials.scale(prof, p)
    # the family limit is the profile's own quadrature value, so the
    # power-law deviation is identically zero even under the eta-weighting
    b_limit = prof.shell_integral(3) * QUARTIC_2D
    for eta in (0.5, 1.0, 2.0):
        rep = potentials.validate_family(sc, eta, b_limit, quartic=QUARTIC_2D)
        assert rep.all_ok
        assert rep.coupling_deviation <= 1e-9


def test_validate_family_negative_dip_fails_b():
    def dipped(x):
        x = np.asarray(x, dtype=float)
        return np.where(x < 0.5, 1.0, -0.1) * (x <= 1.0)

    dip = potentials.InteractionProfile("dip", dipped, 1.0, 1.0, BALL_L1)
    p = scaling.make_point(10**4, 0.1, 0.5)
    sc = potentials.ScaledInteraction(p, dip)
    rep = potentials.validate_family(sc, 1.0, BALL_L1 * QUARTIC_2D, quartic=QUARTIC_2D)
    assert not rep.nonnegative_ok


def test_validate_family_oversized_support_fails_c():
    p = scaling.make_point(10**4, 0.1, 0.5)
    sc = potentials.scale(potentials.uniform_ball(radius=10.0), p)
    rep = potentials.validate_family(sc, 1.0, potentials.uniform_ball(radius=10.0).l1_norm * QUARTIC_2D,
                                     quartic=QUARTIC_2D)
    assert not rep.support_ok


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
    # s^2 w(s) is a cubic on each linear piece, where Simpson's rule is exact
    r = np.array([0.0, 0.3, 0.7, 1.2, 2.0])
    w = np.array([2.0, 1.5, 1.8, 0.4, 0.1])
    prof = potentials.from_table(r, w)

    def f(s):
        return s**2 * np.interp(s, r, w)

    mid = 0.5 * (r[:-1] + r[1:])
    simpson = np.sum((r[1:] - r[:-1]) / 6.0 * (f(r[:-1]) + 4.0 * f(mid) + f(r[1:])))
    assert prof.l1_norm == pytest.approx(4.0 * math.pi * simpson, rel=1e-14)
    # a straight ramp a (1 - r/R) integrates to pi a R^3 / 3
    ramp = potentials.from_table([0.0, 0.5, 1.5], [3.0, 2.0, 0.0])
    assert ramp.l1_norm == pytest.approx(math.pi * 3.0 * 1.5**3 / 3.0, rel=1e-14)


def test_from_table_rejects_negative():
    with pytest.raises(DomainError):
        potentials.from_table([0.0, 1.0], [1.0, -0.5])


def test_confinement_builtins():
    conf = potentials.confinement_by_name("harmonic")
    assert conf.dimension == 2
    y = np.linspace(-2, 2, 5)
    assert potentials.with_dimension(conf, 1).on_grid(y) == pytest.approx(y**2)
    v2 = conf.on_grid(y, y)
    assert v2[0, 0] == pytest.approx(8.0)
    soft = potentials.confinement_by_name("softened", dimension=1)
    assert soft.negative_part_bound > 0


def test_external_builtins():
    ext = potentials.external_by_name("gaussian_well", depth=2.0)
    x = np.linspace(-1, 1, 11)
    assert ext.on_axis(0.0, x)[5] == pytest.approx(-2.0)
    assert np.all(np.abs(ext.on_axis(0.0, x)) <= ext.sup_norm + 1e-12)
    drv = potentials.external_by_name("driven_well")
    assert drv.time_dependent and drv.time_derivative_sup > 0


def test_unknown_names_rejected():
    with pytest.raises(DomainError):
        potentials.profile_by_name("noball")
    with pytest.raises(DomainError):
        potentials.external_by_name("nowell")
    with pytest.raises(DomainError):
        potentials.confinement_by_name("notrap")


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
