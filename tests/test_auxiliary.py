import math

import numpy as np
import pytest
from scipy.integrate import quad

from dimred import auxiliary, nls, potentials, scaling, transverse
from dimred.errors import DomainError, InsufficientDataError, RegimeError


def oracle_point():
    """Point with amplitude exactly 1 and mu = 0.1 (beta = 1/3, N/eps^2 = 1000)."""
    return scaling.make_point(250, 0.5, 1.0 / 3.0)


def uniform_scaled():
    return potentials.scale(potentials.uniform_ball(), oracle_point())


def h_closed_form(r, c, mu, eps):
    """Piecewise solution of the radial Dirichlet problem for the uniform ball."""
    a = 4.0 * math.pi / 3.0 * c * mu**3
    inside = c * (r**2 - mu**2) / 6.0 - a / (4.0 * math.pi) * (1.0 / mu - 1.0 / eps)
    outside = -a / (4.0 * math.pi) * (1.0 / np.maximum(r, 1e-300) - 1.0 / eps)
    vals = np.where(r <= mu, inside, outside)
    return np.where(r <= eps, vals, 0.0)


# ---------------------------------------------------------------------------
# ball Green data
# ---------------------------------------------------------------------------


def test_h_epsilon_against_closed_form():
    sc = uniform_scaled()
    h = auxiliary.build_h_epsilon(sc, eps=1.0, n_samples=2048)
    exact = h_closed_form(h.radii, 1.0, 0.1, 1.0)
    scale_ = np.max(np.abs(exact))
    assert np.max(np.abs(h.values - exact)) < 1e-8 * scale_


def test_h_epsilon_spec_values():
    sc = uniform_scaled()
    data = auxiliary.BallGreenData(sc, 1.0)
    assert data.value(np.array([0.0]))[0] == pytest.approx(-0.0046666667, abs=1e-9)
    assert data.sup_gradient() == pytest.approx(1.0 * 0.1 / 3.0, rel=1e-10)


def test_h_epsilon_boundary_zero():
    sc = uniform_scaled()
    h = auxiliary.build_h_epsilon(sc, eps=1.0, n_samples=1024)
    assert abs(h.values[-1]) < 1e-10
    # and identically zero outside the ball by construction
    data = auxiliary.BallGreenData(sc, 1.0)
    assert np.all(data.value(np.array([1.1, 2.0])) == 0.0)


@pytest.mark.parametrize("prof", [potentials.uniform_ball(3.0, 1.0),
                                  potentials.gaussian_bump(2.0, 1.3),
                                  potentials.from_table([0.0, 0.3, 0.7, 1.2, 2.0],
                                                        [2.0, 1.5, 1.8, 0.4, 0.1])],
                         ids=lambda p: p.name)
def test_ball_mass_matches_quad(prof):
    # oracle: adaptive quadrature of s^2 w(s) over [0, r], told where the table kinks
    point = scaling.make_point(1000, 0.1, 0.5)
    sc = potentials.scale(prof, point)
    data = auxiliary.BallGreenData(sc, point.epsilon)
    kinks = [point.mu * k for k in prof.kinks]
    radii = np.concatenate([np.linspace(0.0, sc.range, 41)[1:], kinks, [1.5 * sc.range]])
    for r, got in zip(radii, data.mass(radii)):
        ref, _ = quad(lambda s: s**2 * float(sc(s)), 0.0, min(r, sc.range),
                      points=[k for k in kinks if k < r] or None,
                      epsabs=0.0, epsrel=1e-13, limit=400)
        assert got == pytest.approx(ref, rel=1e-12), r
    assert data.mass(0.0)[0] == 0.0


@pytest.mark.parametrize("prof", [potentials.gaussian_bump(2.0, 1.3),
                                  potentials.from_table([0.0, 0.3, 0.7, 1.2, 2.0],
                                                        [2.0, 1.5, 1.8, 0.4, 0.1])],
                         ids=lambda p: p.name)
def test_ball_value_matches_quad(prof):
    # oracle: u(r) = -M(r)/r - int_r^R s w(s) ds by adaptive quadrature, h = u - u(eps)
    point = scaling.make_point(1000, 0.1, 0.5)
    sc = potentials.scale(prof, point)
    data = auxiliary.BallGreenData(sc, point.epsilon)
    kinks = [point.mu * k for k in prof.kinks]

    def integral(power, lo, hi):
        return quad(lambda s: s**power * float(sc(s)), lo, hi, epsabs=0.0, epsrel=1e-13,
                    points=[k for k in kinks if lo < k < hi] or None, limit=400)[0]

    m_tot = integral(2, 0.0, sc.range)
    radii = np.concatenate([[0.0], np.linspace(0.0, sc.range, 9)[1:], kinks, [2.0 * sc.range]])
    ref = [-integral(1, 0.0, sc.range) if r == 0.0 else
           -integral(2, 0.0, min(r, sc.range)) / r - integral(1, min(r, sc.range), sc.range)
           for r in radii]
    ref = np.array(ref) + m_tot / point.epsilon
    got = data.value(radii)
    assert np.max(np.abs(got - ref)) < 1e-12 * np.max(np.abs(ref))
    assert np.all(data.value(np.array([point.epsilon, 2.0 * point.epsilon])) == 0.0)


@pytest.mark.parametrize("prof", [potentials.gaussian_bump(2.0, 1.3),
                                  potentials.from_table([0.0, 0.3, 0.7, 1.2, 2.0],
                                                        [2.0, 1.5, 1.8, 0.4, 0.1])],
                         ids=lambda p: p.name)
def test_l2_gradient_matches_quad(prof):
    # oracle: adaptive quadrature of r^2 |h'(r)|^2 on each smooth segment of the
    # range (h' = M/r^2, M checked against quad above), m_tot^2 (1/R - 1/eps) beyond
    point = scaling.make_point(1000, 0.1, 0.5)
    sc = potentials.scale(prof, point)
    data = auxiliary.BallGreenData(sc, point.epsilon)
    edges = point.mu * prof.edges
    inner = sum(quad(lambda r: r**2 * float(data.gradient(r)[0]) ** 2, lo, hi,
                     epsabs=0.0, epsrel=1e-13, limit=400)[0]
                for lo, hi in zip(edges[:-1], edges[1:]))
    m_tot = sc.integral(3) / (4.0 * math.pi)
    ref = math.sqrt(4.0 * math.pi * (inner + m_tot**2 * (1.0 / sc.range - 1.0 / point.epsilon)))
    assert data.l2_gradient() == pytest.approx(ref, rel=1e-12)


def test_h_epsilon_regime_error():
    p = scaling.make_point(2, 0.2, 0.1)  # mu = 50^-0.1 = 0.68 > eps = 0.2
    sc = potentials.scale(potentials.uniform_ball(), p)
    assert sc.range > p.epsilon
    with pytest.raises(RegimeError):
        auxiliary.build_h_epsilon(sc)


def test_poisson_residual_uniform_ball():
    sc = uniform_scaled()
    h = auxiliary.build_h_epsilon(sc, eps=1.0, n_samples=4096)
    assert auxiliary.verify_poisson(h, sc) < 1e-4


def test_poisson_zero_interaction():
    p = oracle_point()
    sc = potentials.scale(potentials.uniform_ball(height=0.0), p)
    h = auxiliary.build_h_epsilon(sc, eps=1.0, n_samples=512)
    assert auxiliary.verify_poisson(h, sc) == 0.0


def test_poisson_second_order_convergence():
    # the stencil is exact on 1/r and quadratics, so the uniform ball sits at
    # the rounding floor; a smooth bump exposes the O(h^2) truncation error
    sc = potentials.scale(potentials.gaussian_bump(), oracle_point())
    res = []
    for n in (512, 1024, 2048):
        h = auxiliary.build_h_epsilon(sc, eps=1.0, n_samples=n)
        res.append(auxiliary.verify_poisson(h, sc))
    assert res[0] / res[1] == pytest.approx(4.0, abs=0.5)
    assert res[1] / res[2] == pytest.approx(4.0, abs=0.5)


def test_poisson_requires_uniform_grid():
    sc = uniform_scaled()
    # the closed form on radii that crowd the interaction range
    radii = np.concatenate([np.linspace(0.0, 0.3, 683), np.geomspace(0.3, 1.0, 342)[1:]])
    h = auxiliary.RadialFunction(radii, h_closed_form(radii, 1.0, 0.1, 1.0), 1.0)
    with pytest.raises(DomainError):
        auxiliary.verify_poisson(h, sc)


# ---------------------------------------------------------------------------
# smooth step
# ---------------------------------------------------------------------------


def test_theta_values_and_midpoint():
    # Theta' = smooth_step_derivative(r, mu, eps) vanishes at mu and eps, and the
    # step's symmetry about the midpoint (a = b there) puts its peak -2/(eps - mu) there
    mu, eps = 1e-3, 1e-1
    d = auxiliary.smooth_step_derivative(np.array([mu, (mu + eps) / 2.0, eps]), mu, eps)
    assert d[0] == 0.0 and d[2] == 0.0
    assert d[1] == pytest.approx(-2.0 / (eps - mu), rel=1e-15)


def test_theta_gradient_bound_across_scales():
    # |theta'| <= 2/(eps - mu): the measured sup times eps stays below 3
    for eps in (1e-1, 3e-2, 1e-2):
        mu = eps / 100.0
        grad_sup = auxiliary.theta(mu, eps)
        assert grad_sup * eps <= 3.0
        assert grad_sup <= 2.0 / (eps - mu) * 1.001


def test_theta_regime_error():
    with pytest.raises(RegimeError):
        auxiliary.theta(0.2, 0.1)


def test_smooth_step_monotone():
    x = np.linspace(0.01, 0.1, 500)
    assert np.all(auxiliary.smooth_step_derivative(x, 0.01, 0.1) <= 0.0)


# ---------------------------------------------------------------------------
# gradient scaling regression
# ---------------------------------------------------------------------------


def test_gradient_scaling_slopes():
    prof = potentials.uniform_ball()
    pts = [scaling.make_point(n, float(n) ** -1.0, 0.4) for n in (10**3, 10**4, 10**5, 10**6)]
    fit = auxiliary.gradient_scaling_fit(pts, prof)
    assert fit.slope == pytest.approx(1.0, abs=0.15)
    assert fit.r_squared > 0.999


def test_gradient_scaling_needs_points():
    prof = potentials.uniform_ball()
    pts = [scaling.make_point(n, float(n) ** -1.0, 0.4) for n in (10**3, 10**4)]
    with pytest.raises(InsufficientDataError):
        auxiliary.gradient_scaling_fit(pts, prof)


def test_gradient_scaling_degenerate_predictor_refused():
    # four copies of one point: the predictor N^-1 mu^-1/2 eps^2 is constant
    prof = potentials.uniform_ball()
    pts = [scaling.make_point(10**3, 1e-3, 0.5)] * 4
    with pytest.raises(InsufficientDataError):
        auxiliary.gradient_scaling_fit(pts, prof)


# ---------------------------------------------------------------------------
# quasi one-dimensional interaction
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def tmode_eps():
    conf = potentials.harmonic_confinement(dimension=1)
    unscaled = transverse.solve_modes(conf, transverse.TransverseGrid(8.0, 961), 2)
    return transverse.rescale(unscaled, 0.5)


def surrogate_scaled(height=2.0):
    p = scaling.make_point(6, 0.5, 0.5)
    return potentials.scale(potentials.uniform_ball(height=height), p, d_perp=1)


def test_quasi1d_and_gamma_refuse_a_foreign_transverse_dimension(tmode_eps):
    sc = potentials.scale(potentials.uniform_ball(height=2.0), scaling.make_point(6, 0.5, 0.5))
    assert sc.d_perp == 2 and tmode_eps.dimension == 1
    cond = nls.plane_wave(nls.Grid1D(2.0 * math.pi, 64), 0)
    with pytest.raises(DomainError, match="d_perp"):
        auxiliary.quasi1d(sc, tmode_eps)
    with pytest.raises(DomainError, match="d_perp"):
        auxiliary.discrepancy_gamma(sc, cond, tmode_eps)


def test_quasi1d_zero_interaction(tmode_eps):
    sc = surrogate_scaled(height=0.0)
    wbar = auxiliary.quasi1d(sc, tmode_eps)
    assert np.max(np.abs(wbar.values)) == 0.0


def test_quasi1d_even_and_nonnegative(tmode_eps):
    wbar = auxiliary.quasi1d(surrogate_scaled(), tmode_eps)
    assert np.array_equal(wbar.values, wbar.values[::-1])
    assert np.min(wbar.values) >= -1e-14


def test_quasi1d_center_against_bruteforce(tmode_eps):
    # independent high-resolution nested 2-d quadrature of
    # iint |chi(y1)|^2 |chi(y2)|^2 w(0, y1-y2) dy1 dy2
    # w(0, u) = amplitude on |u| <= range for the ball, so the inner integral
    # is the density spline integrated over the exact window [y1 - r, y1 + r]
    sc = surrogate_scaled()
    wbar = auxiliary.quasi1d(sc, tmode_eps)
    i0 = np.argmin(np.abs(wbar.xs))
    dens = np.abs(tmode_eps.chi) ** 2
    y = tmode_eps.axis
    from scipy.interpolate import CubicSpline
    spl = CubicSpline(y, dens)
    r = sc.range
    fine = np.linspace(y[0] + r, y[-1] - r, 4 * len(y))
    inner = np.array([spl.integrate(y1 - r, y1 + r) for y1 in fine])
    outer = np.nan_to_num(spl(fine), nan=0.0)
    w00 = float(sc(0.0)) * np.trapezoid(outer * inner, fine)
    assert wbar.values[i0] == pytest.approx(w00, rel=1e-6)


def test_quasi1d_integral_identity(tmode_eps):
    # marginalization: int wbar dx = int T(u) W1(u) du, with the right side
    # evaluated by Gauss nodes against the exact longitudinal slice integral
    # W1(u) = 2 sqrt(r^2 - u^2) * amplitude of the ball
    sc = surrogate_scaled()
    wbar = auxiliary.quasi1d(sc, tmode_eps, n_samples=4097)
    r = sc.range
    nodes, weights = np.polynomial.legendre.leggauss(96)
    u = r * nodes
    w1 = 2.0 * np.sqrt(np.maximum(r**2 - u**2, 0.0)) * float(sc(0.0))
    rhs = float(np.sum(r * weights * tmode_eps.correlation(u, 1)[0, 0, 0, 0] * w1))
    assert wbar.l1() == pytest.approx(rhs, rel=2e-4)


# ---------------------------------------------------------------------------
# line Green solution
# ---------------------------------------------------------------------------


def test_h_bar_uniform_wbar_oracle():
    # wbar = cbar on |x| <= a: wing slope is exactly cbar * a.  The jump is
    # sampled with its Dirichlet half-value, which the weighted trapezoid
    # integrates exactly when the jump sits on a node.
    cbar, a, half = 1.7, 0.05, 0.25
    xs = np.linspace(-0.2, 0.2, 4097)
    vals = np.where(np.abs(xs) < a, cbar, 0.0)
    vals[np.isclose(np.abs(xs), a)] = cbar / 2.0
    rep = auxiliary.build_h_bar(auxiliary.LineFunction(xs, vals), 0.5, 16)
    assert rep.wing_slope == pytest.approx(cbar * a, rel=1e-8)
    assert rep.residual < 1e-8


def test_h_bar_slope_bound_arbitrary_wbar(tmode_eps):
    sc = surrogate_scaled()
    wbar = auxiliary.quasi1d(sc, tmode_eps)
    rep = auxiliary.build_h_bar(wbar, 0.25, 16)
    # h'' = w-bar >= 0, so |h'| peaks outside the support at int w-bar / 2
    assert rep.wing_slope == pytest.approx(wbar.l1() / 2.0, rel=1e-9)
    assert rep.residual < 1e-3


def test_h_bar_support_violation():
    xs = np.linspace(-0.5, 0.5, 512)
    wbar = auxiliary.LineFunction(xs, np.ones(512))
    with pytest.raises(DomainError):
        auxiliary.build_h_bar(wbar, 0.5, 16)  # half-width 0.25 < support


# ---------------------------------------------------------------------------
# discrepancy Gamma
# ---------------------------------------------------------------------------


def test_gamma_uniform_condensate_flat(tmode_eps):
    # constant |Phi|^2: Gamma is a flat transverse smearing profile
    sc = surrogate_scaled()
    grid = nls.Grid1D(2.0 * math.pi, 64)
    cond = nls.plane_wave(grid, 0)
    res = auxiliary.discrepancy_gamma(sc, cond, tmode_eps)
    spread = np.max(res.gamma.values) - np.min(res.gamma.values)
    assert spread < 1e-10 * max(np.max(np.abs(res.gamma.values)), 1e-300)


def test_gamma_decreases_with_mu_at_fixed_eps():
    conf = potentials.harmonic_confinement(dimension=1)
    unscaled = transverse.solve_modes(conf, transverse.TransverseGrid(8.0, 1501), 2)
    tm = transverse.rescale(unscaled, 0.5)
    grid = nls.Grid1D(2.0 * math.pi, 64)
    cond = nls.gaussian_state(grid, width=1.0)
    norms = []
    for radius in (1.0, 0.5, 0.25):
        p = scaling.make_point(6, 0.5, 0.5)
        sc = potentials.scale(potentials.uniform_ball(radius=radius), p, d_perp=1)
        norms.append(auxiliary.discrepancy_gamma(sc, cond, tm).l2_norm)
    assert norms[0] > norms[1] > norms[2]


def test_gamma_sweep_decay_confirms_bound():
    # the measured norms decay at least linearly in mu/eps (the stated upper
    # bound); radial symmetry makes the actual decay quadratic, which
    # acceptance 8g checks on a flat condensate against the closed form,
    # together with the bound (Gamma/(mu/eps) decreasing) and a slope of 2
    conf = potentials.harmonic_confinement(dimension=1)
    unscaled = transverse.solve_modes(conf, transverse.TransverseGrid(8.0, 961), 2)
    box = nls.Grid1D(2.0 * math.pi, 64)
    cond = nls.gaussian_state(box, width=1.0)
    pts = [scaling.make_point(n, float(n) ** -1.0, 0.5) for n in range(2, 9)]
    norms = np.array([
        auxiliary.discrepancy_gamma(potentials.scale(potentials.uniform_ball(), p, d_perp=1),
                                    cond, transverse.rescale(unscaled, p.epsilon)).l2_norm
        for p in pts])
    fit = auxiliary._loglog_fit(np.array([p.mu_over_eps for p in pts]), norms)
    assert fit.slope >= 0.85
    assert np.all(np.diff(norms) < 0)
    assert fit.r_squared > 0.99


# ---------------------------------------------------------------------------
# two transverse dimensions (Gaussian closed forms)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def tmode_2d():
    conf = potentials.harmonic_confinement(dimension=2)
    # at extent 6 the sixth-order mode's edge/peak (1.2e-8 on 81^2 points) trips the boundary check
    unscaled = transverse.solve_modes(conf, transverse.TransverseGrid(6.5, 81), 2)
    return transverse.rescale(unscaled, 0.5)


def test_quasi1d_2d_gaussian_closed_form(tmode_2d):
    # T(u) = exp(-|u|^2/(2 eps^2))/(2 pi eps^2) for the harmonic ground state,
    # so wbar(0) = w(0) * (1 - exp(-r^2/(2 eps^2))) for the uniform ball
    point = scaling.make_point(6, 0.5, 0.5)
    sc = potentials.scale(potentials.uniform_ball(height=2.0), point, d_perp=2)
    wbar = auxiliary.quasi1d(sc, tmode_2d)
    i0 = int(np.argmin(np.abs(wbar.xs)))
    r, eps = sc.range, point.epsilon
    exact = float(sc(0.0)) * (1.0 - math.exp(-(r**2) / (2.0 * eps**2)))
    assert wbar.values[i0] == pytest.approx(exact, rel=1e-5)    # 4.2e-6 measured
    assert np.array_equal(wbar.values, wbar.values[::-1])


def test_discrepancy_2d_uniform_condensate(tmode_2d):
    # flat condensate: Gamma reduces to N |Phi|^2 int w (T - T(0)), known in
    # closed form for the Gaussian mode
    point = scaling.make_point(6, 0.5, 0.5)
    sc = potentials.scale(potentials.uniform_ball(height=2.0), point, d_perp=2)
    grid = nls.Grid1D(2.0 * math.pi, 64)
    cond = nls.plane_wave(grid, 0)
    res = auxiliary.discrepancy_gamma(sc, cond, tmode_2d)
    r, eps = sc.range, point.epsilon
    nodes, weights = np.polynomial.legendre.leggauss(96)
    s, sw = r * nodes, r * weights
    tot = 0.0
    for si, swi in zip(s, sw):
        umax = math.sqrt(max(r * r - si * si, 0.0))
        u = 0.5 * umax * (nodes + 1.0)
        uw = 0.5 * umax * weights * 2.0 * math.pi * u
        wv = sc(np.sqrt(si**2 + u**2))
        t_of_u = np.exp(-(u**2) / (2.0 * eps**2)) / (2.0 * math.pi * eps**2)
        tot += swi * float(np.sum(uw * wv * (t_of_u - 1.0 / (2.0 * math.pi * eps**2))))
    exact = abs(point.n_particles / grid.length * tot) * math.sqrt(grid.length)
    assert res.l2_norm == pytest.approx(exact, rel=3e-4)    # 1.7e-4 measured


def test_discrepancy_1d_uniform_condensate(tmode_eps):
    # one transverse dimension: with |Phi|^2 = 1/L, Gamma is the constant
    # (N h / L) int 2 sqrt(r^2 - u^2) (T(u) - T(0)) du over the chord of the
    # ball, with T(u) = exp(-u^2/(2 eps^2))/(sqrt(2 pi) eps)
    point = scaling.make_point(6, 0.5, 0.5)
    sc = potentials.scale(potentials.uniform_ball(height=2.0), point, d_perp=1)
    grid = nls.Grid1D(2.0 * math.pi, 64)
    cond = nls.plane_wave(grid, 0)
    res = auxiliary.discrepancy_gamma(sc, cond, tmode_eps)
    r, eps = sc.range, point.epsilon
    t0 = 1.0 / (math.sqrt(2.0 * math.pi) * eps)
    half, _ = quad(lambda u: 2.0 * math.sqrt(r * r - u * u) * t0
                   * math.expm1(-u * u / (2.0 * eps * eps)), 0.0, r, epsabs=0.0, epsrel=1e-12)
    exact = point.n_particles * float(sc(0.0)) / math.sqrt(grid.length) * abs(2.0 * half)
    assert res.l2_norm == pytest.approx(exact, rel=1e-3)


from hypothesis import given, settings
from hypothesis import strategies as st


@given(lo=st.floats(min_value=1e-4, max_value=0.1),
       ratio=st.floats(min_value=2.0, max_value=100.0))
@settings(max_examples=60, deadline=None)
def test_smooth_step_properties(lo, ratio):
    hi = lo * ratio
    x = np.linspace(0.0, 1.5 * hi, 400)
    d = auxiliary.smooth_step_derivative(x, lo, hi)
    assert np.all(d <= 0.0)
    assert np.all(d[(x <= lo) | (x >= hi)] == 0.0)
    # the step falls from 1 at lo to 0 at hi, with the derivative bound 2/(hi - lo)
    x = np.linspace(lo, hi, 4001)
    d = auxiliary.smooth_step_derivative(x, lo, hi)
    assert np.trapezoid(d, x) == pytest.approx(-1.0, abs=1e-12)
    assert np.max(np.abs(d)) <= 2.0 / (hi - lo) * 1.01
