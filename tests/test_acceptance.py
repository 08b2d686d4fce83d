"""Acceptance criteria, one test per criterion.

Each test prints a single `ACCEPTANCE <n> ...: PASS/FAIL` line (run pytest
with -s to see them live).  The criteria marked DERIVED in the build contract
were computed with the independent oracles in the module test files; here the
frozen numbers are asserted at their stated tolerances.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from dimred import auxiliary, manybody, nls, potentials, projectors, scaling, transverse
from dimred.config import Config, ExperimentConfig
from dimred.harness import run_sweep

QUARTIC_1D = 1.0 / math.sqrt(2.0 * math.pi)
QUARTIC_2D = 1.0 / (2.0 * math.pi)


def report(number, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} {name}: {tag} {detail}".rstrip())
    return ok


# ---------------------------------------------------------------------------
# 1. projector algebra on random dense systems
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_1_projector_algebra():
    t0 = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    combos = [(2, 2, n) for n in (2, 3, 4, 5, 6)] + \
             [(3, 2, n) for n in (2, 3, 4, 5)] + \
             [(4, 2, n) for n in (2, 3, 4, 5)] + \
             [(2, 3, n) for n in (2, 3, 4)] + \
             [(2, 4, n) for n in (2, 3, 4)] + [(4, 2, 6)]
    count = 0
    while count < 50:
        dx, dy, n = combos[count % len(combos)]
        sys_ = projectors.DenseSystem(dx, dy, n, rng=rng)
        psi = sys_.random_state(rng, condensate_weight=float(rng.uniform(0, 2)))
        worst = max(worst, sys_.residual_sum_pk(psi))
        worst = max(worst, max(sys_.residual_qj_pk(psi, k) for k in range(n + 1)))
        worst = max(worst, sys_.residual_fqq(psi))
        worst = max(worst, sys_.residual_factorization())
        probs = sys_.counting_probs(psi)
        a_n2 = float(np.sum(np.arange(n + 1) / n * probs))
        worst = max(worst, abs(a_n2 - sys_.q1_norm_sq(psi)))
        count += 1
    elapsed = time.time() - t0
    ok = worst < 1e-10 and elapsed < 30.0
    assert report(1, "projector algebra", ok,
                  f"(worst residual {worst:.2e}, {count} systems, {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 2. rate bridge sandwich
# ---------------------------------------------------------------------------


def test_criterion_2_rate_bridge():
    t0 = time.time()
    rng = np.random.default_rng(202)
    violations = 0
    checked = 0
    for m, n in ((4, 4), (5, 3), (6, 2), (3, 6)):
        fock = manybody.FockBasis(m, n)
        proj = projectors.basis_mode_projector(m)
        for _ in range(15):
            amps = rng.normal(size=fock.dim) + 1j * rng.normal(size=fock.dim)
            state = manybody.ManyBodyState(fock, amps / np.linalg.norm(amps))
            if not projectors.rate_bridge(state, proj).holds:
                violations += 1
            checked += 1
    # general (rotated) condensate orbitals through the a(phi) lowering path
    fock = manybody.FockBasis(4, 4)
    for _ in range(40):
        phi = rng.normal(size=4) + 1j * rng.normal(size=4)
        phi /= np.linalg.norm(phi)
        proj = projectors.CondensateProjector(phi, np.zeros(4, dtype=np.int64))
        amps = rng.normal(size=fock.dim) + 1j * rng.normal(size=fock.dim)
        state = manybody.ManyBodyState(fock, amps / np.linalg.norm(amps))
        if not projectors.rate_bridge(state, proj).holds:
            violations += 1
        checked += 1
    elapsed = time.time() - t0
    ok = violations == 0 and checked == 100 and elapsed < 30.0
    assert report(2, "rate bridge", ok,
                  f"({checked} states, {violations} violations, {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 3. weight norms
# ---------------------------------------------------------------------------


def test_criterion_3_weight_norms():
    t0 = time.time()
    ok = True
    worst_ln = 0.0
    for n in (10**2, 10**3, 10**4, 10**5):
        for xi in (0.05, 0.1, 0.2):
            rep = projectors.weight_norm_checks(n, xi)
            # the ceiling N^xi is attained on the linear branch; the comparison
            # carries one-ulp relative slack for the float equality case
            ok = ok and rep.l_norm <= rep.l_bound * (1 + 1e-12)
            ok = ok and rep.l_n_norm <= 4.0
            worst_ln = max(worst_ln, rep.l_n_norm)
    elapsed = time.time() - t0
    ok = ok and elapsed < 5.0
    assert report(3, "weight norms", ok,
                  f"(max |l n| = {worst_ln:.3f} <= 4, {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 4. transverse analytics
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_4_transverse_analytics():
    t0 = time.time()
    conf1 = potentials.harmonic_confinement(dimension=1)
    m1 = transverse.solve_modes(conf1, transverse.TransverseGrid(9.0, 14001), 2)
    err1 = (abs(m1.energy0 - 1.0), abs(m1.gap - 2.0), abs(m1.quartic - QUARTIC_1D))
    conf2 = potentials.harmonic_confinement(dimension=2)
    m2 = transverse.solve_modes(conf2, transverse.TransverseGrid(6.5, 591), 2)
    err2 = (abs(m2.energy0 - 2.0), abs(m2.quartic - QUARTIC_2D))
    elapsed = time.time() - t0
    ok = (err1[0] < 1e-6 and err1[1] < 1e-6 and err1[2] < 1e-6
          and err2[0] < 1e-4 and err2[1] < 1e-4 and elapsed < 60.0)
    assert report(4, "transverse analytics", ok,
                  f"(1d errs {err1[0]:.1e}/{err1[1]:.1e}/{err1[2]:.1e}, "
                  f"2d errs {err2[0]:.1e}/{err2[1]:.1e}, {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 5. NLS solver
# ---------------------------------------------------------------------------


def test_criterion_5_nls_solver():
    t0 = time.time()
    grid = nls.Grid1D(16.0 * math.pi, 256)
    b = 1.0
    state = nls.gaussian_state(grid, width=2.0)
    traj = nls.evolve(state, None, b, 1e-3, 1.0, n_outputs=10)
    mass_drift = max(abs(s.l2 - 1.0) for s in traj.states)
    e0 = nls.effective_energy(traj.states[0], None, b)
    energy_drift = max(abs(nls.effective_energy(s, None, b) - e0) for s in traj.states)

    pw = nls.plane_wave(grid, 3)
    k = 2.0 * math.pi * 3 / grid.length
    ptraj = nls.evolve(pw, None, b, 1e-3, 1.0, n_outputs=1)
    phase_err = float(np.max(np.abs(
        ptraj.final.values - pw.values * np.exp(-1j * (k**2 + b / grid.length)))))

    packet = nls.gaussian_state(grid, width=1.5, momentum=0.4)
    finals = {}
    for dt in (4e-3, 2e-3, 1e-3, 5e-4):
        finals[dt] = nls.evolve(packet, None, b, dt, 0.5, n_outputs=1).final.values
    e1 = np.linalg.norm(finals[4e-3] - finals[1e-3])
    e2 = np.linalg.norm(finals[2e-3] - finals[5e-4])
    order = math.log2(e1 / e2)
    elapsed = time.time() - t0
    ok = (mass_drift < 1e-10 and energy_drift < 1e-8 and phase_err < 1e-8
          and abs(order - 2.0) <= 0.1 and elapsed < 60.0)
    assert report(5, "nls solver", ok,
                  f"(mass {mass_drift:.1e}, energy {energy_drift:.1e}, "
                  f"phase {phase_err:.1e}, order {order:.3f}, {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 6. auxiliary battery
# ---------------------------------------------------------------------------


def test_criterion_6_auxiliary_battery():
    t0 = time.time()
    # closed-form oracle configuration: amplitude 1, mu = 0.1, eps = 1
    point = scaling.make_point(250, 0.5, 1.0 / 3.0)
    sc = potentials.scale(potentials.uniform_ball(), point)
    h = auxiliary.build_h_epsilon(sc, eps=1.0, n_samples=4096, grid="uniform")
    a_const = 4.0 * math.pi / 3.0 * 0.1**3
    inside = h.radii <= 0.1
    exact = np.where(
        inside,
        (h.radii**2 - 0.01) / 6.0 - a_const / (4.0 * math.pi) * (10.0 - 1.0),
        -a_const / (4.0 * math.pi) * (1.0 / np.maximum(h.radii, 1e-12) - 1.0),
    )
    h_err = float(np.max(np.abs(h.values - exact)) / np.max(np.abs(exact)))
    boundary = abs(h.values[-1])

    # second-order Poisson convergence on the smooth bump
    scg = potentials.scale(potentials.gaussian_bump(), point)
    res = []
    for n in (512, 1024, 2048):
        hh = auxiliary.build_h_epsilon(scg, eps=1.0, n_samples=n, grid="uniform")
        res.append(auxiliary.verify_poisson(hh, scg).max_relative_residual)
    ratios = (res[0] / res[1], res[1] / res[2])

    # the midpoint identity is exact up to one ulp in the argument split
    _, trep = auxiliary.theta(0.1, 1.0)
    midpoint_err = abs(trep.midpoint - 0.5)

    # wings of the line Green solution: slope exactly cbar * a
    cbar, a = 1.7, 0.05
    xs = np.linspace(-0.2, 0.2, 16385)
    vals = np.where(np.abs(xs) < a, cbar, 0.0)
    vals[np.isclose(np.abs(xs), a)] = cbar / 2.0
    _, _, hrep = auxiliary.build_h_bar(auxiliary.LineFunction(xs, vals), 0.5, 16, mu=0.01)
    wing_err = abs(hrep.wing_slope - cbar * a) / (cbar * a)

    pts = [scaling.make_point(n, float(n) ** -1.0, 0.4)
           for n in (10**3, 10**4, 10**5, 10**6)]
    fit = auxiliary.gradient_scaling_fit(pts, potentials.uniform_ball())
    elapsed = time.time() - t0
    ok = (h_err < 1e-6 and boundary < 1e-10
          and abs(ratios[0] - 4.0) < 0.5 and abs(ratios[1] - 4.0) < 0.5
          and midpoint_err <= 1e-12
          and wing_err < 1e-8
          and abs(fit.sup_fit.slope - 1.0) <= 0.15
          and abs(fit.l2_fit.slope - 1.0) <= 0.15
          and elapsed < 120.0)
    assert report(6, "auxiliary battery", ok,
                  f"(h err {h_err:.1e}, ratios {ratios[0]:.2f}/{ratios[1]:.2f}, "
                  f"wing err {wing_err:.1e}, slopes {fit.sup_fit.slope:.3f}/"
                  f"{fit.l2_fit.slope:.3f}, {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 7. two-body cross-validation
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_7_two_body_cross_validation():
    t0 = time.time()
    point = scaling.make_point(2, 0.5, 0.5)
    conf = potentials.harmonic_confinement(dimension=1)
    prof = potentials.gaussian_bump(height=3.0, radius=4.0, width=1.5)
    sc = potentials.scale(prof, point, d_perp=1)
    box = 2.0 * math.pi
    n_x, n_y, y_span = 16, 12, 6.0
    basis = manybody.build_grid_matched_basis(point, conf, sc, n_x, n_y, box, y_span)
    oracle = manybody.GridOracle(point, conf, sc, box, n_x, n_y, y_span)
    phi_x = np.exp(-oracle.x**2 / (2.0 * 1.2**2)) * np.exp(0.5j * oracle.x)
    u = manybody.modes_on_grid(basis, oracle)
    orb = phi_x[:, None] * oracle.tau[None, :]
    orb = orb / math.sqrt(float(np.sum(np.abs(orb) ** 2) * oracle.weight()))
    coeffs = u.conj().T @ (orb.ravel() * math.sqrt(oracle.weight()))
    fock = manybody.FockBasis(basis.n_modes, 2, dim_cap=10**5)
    st0 = manybody.product_state(fock, coeffs)
    mode_final = manybody.evolve(st0, basis, 0.01, 0.5, n_outputs=1,
                                 krylov_tol=1e-11).final
    psi_t = oracle.evolve(oracle.product_state(phi_x), 2e-4, 0.5)
    g_grid = oracle.gamma1(psi_t)
    g_modes = manybody.gamma_modes_to_grid(
        basis, manybody.reduced_density(mode_final, 1).matrix, oracle)
    td = projectors.trace_distance(g_grid, g_modes)
    elapsed = time.time() - t0
    ok = td < 1e-6 and elapsed < 600.0
    assert report(7, "two-body cross-validation", ok,
                  f"(trace distance {td:.2e}, {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 8. condensation persistence trend
# ---------------------------------------------------------------------------

SWEEP_TEXT = """
sequence.beta = 0.5
sequence.gamma = 1.0
sequence.n_values = 2, 3, 4, 5, 6, 7, 8
interaction.profile = uniform_ball
interaction.height = 3.0
interaction.radius = 1.0
confinement.name = harmonic
external.name = zero
manybody.d_perp = 1
manybody.m_x = 9
manybody.m_y = 3
manybody.max_excitations = 3
manybody.box_length = 6.283185307179586
manybody.transverse_extent = 8.0
manybody.transverse_points = 961
nls.points = 128
nls.dt = 0.001
manybody.dt = 0.01
time.final = 0.5
rate.xi = 0.1
rate.beta1 = 0.25
rate.eta = 1.0
seed = 8
"""


@pytest.fixture(scope="module")
def persistence_sweep():
    env = ExperimentConfig.from_config(Config.from_text(SWEEP_TEXT))
    t0 = time.time()
    result = run_sweep(env)
    return result, time.time() - t0


def test_criterion_8_condensation_trend(persistence_sweep):
    result, elapsed = persistence_sweep
    rows = result.rows
    ok = result.ok and len(rows) == 7
    tds = [r.trace_distance for r in rows]
    decreasing = all(b < a for a, b in zip(tds, tds[1:]))
    sandwich = all(
        r.alpha_n2 <= r.trace_distance + 1e-9
        and r.trace_distance <= math.sqrt(8.0 * r.alpha_n2) + 1e-9
        for r in rows)
    ok = ok and decreasing and sandwich and elapsed < 1800.0
    assert report(8, "condensation persistence trend", ok,
                  f"(distances {['%.4f' % t for t in tds]}, decreasing={decreasing}, "
                  f"sandwich={sandwich}, {elapsed:.0f}s)")


def flat_gamma_closed_form(n_particles, height, r, eps, length):
    """||Gamma||_2 for a flat condensate, the 1d harmonic mode and a uniform ball.

    With |Phi|^2 = 1/L, Gamma is constant in x1 and equals
    (N h / L) int_{-r}^{r} 2 sqrt(r^2 - u^2) (T(u) - T(0)) du, where
    T(u) = exp(-u^2/(2 eps^2))/(sqrt(2 pi) eps) is the autocorrelation of the
    transverse density and 2 sqrt(r^2 - u^2) is the longitudinal chord of the
    ball at transverse offset u.
    """
    t0 = 1.0 / (math.sqrt(2.0 * math.pi) * eps)
    integral, _ = quad(
        lambda u: 2.0 * math.sqrt(r * r - u * u) * t0 * math.expm1(-u * u / (2.0 * eps * eps)),
        0.0, r, epsabs=0.0, epsrel=1e-12)
    return n_particles * height / math.sqrt(length) * abs(2.0 * integral)


def test_criterion_8_gamma_slope(persistence_sweep):
    """Gamma discrepancy against its closed form, its O(mu/eps) bound and its rate.

    The paper bounds ||Gamma||_2 by O(mu/eps); an upper bound fixes no exact
    rate.  On this sweep the condensate is flat (|Phi|^2 = 1/L), the
    transverse mode is the 1d harmonic ground state and w is a uniform ball,
    so ||Gamma||_2 = (N h / sqrt(L)) |int 2 sqrt(r^2 - u^2) (T(u) - T(0)) du|
    (see ``flat_gamma_closed_form``; h = w_scaled(0), r = mu * radius).  T is
    even, so T'(0) = 0, and w is radial, so int w s vanishes as well: the
    first-order Taylor term cancels and

        ||Gamma||_2 = (b radius^2 / (8 sqrt(L))) (mu/eps)^2 (1 - (mu/eps)^2/8 + ...),

    with b the effective coupling.  Three checks, each able to fail: every
    row matches the closed form to 1e-3 relative; Gamma/(mu/eps) decreases
    strictly along the sweep (the bound); the log-log slope against mu/eps is
    2.0 +/- 0.15 (the quadratic decay that the cancellation predicts).
    """
    result, _ = persistence_sweep
    env = ExperimentConfig.from_config(Config.from_text(SWEEP_TEXT))
    prof = potentials.uniform_ball(env.profile_height, env.profile_radius)
    rows = result.rows
    ratios = np.array([r.mu / r.epsilon for r in rows])
    norms = np.array([r.gamma_discrepancy for r in rows])
    exact = np.array([
        flat_gamma_closed_form(
            r.n_particles,
            float(potentials.scale(prof, scaling.make_point(r.n_particles, r.epsilon, env.beta),
                                   d_perp=1)(0.0)),
            r.mu * env.profile_radius, r.epsilon, env.box_length)
        for r in rows])
    worst = float(np.max(np.abs(norms - exact) / exact))
    bound_ratio = norms / ratios
    decreasing = bool(np.all(np.diff(bound_ratio) < 0))
    fit = auxiliary._loglog_fit(ratios, norms)
    ok = (len(rows) == 7 and worst <= 1e-3 and decreasing
          and abs(fit.slope - 2.0) <= 0.15)
    assert report("8g", "gamma discrepancy: closed form, O(mu/eps) bound, slope 2.0 +/- 0.15", ok,
                  f"(predicted exponent 2, measured slope {fit.slope:.3f}, r2 {fit.r_squared:.4f}, "
                  f"worst closed-form deviation {worst:.1e}, Gamma/(mu/eps) "
                  f"{bound_ratio[0]:.3f} -> {bound_ratio[-1]:.3f}, decreasing={decreasing})")


# ---------------------------------------------------------------------------
# 9. coupling invariance
# ---------------------------------------------------------------------------


def test_criterion_9_coupling_invariance():
    t0 = time.time()
    prof = potentials.uniform_ball()
    b_limit = prof.shell_integral(3) * QUARTIC_2D
    points = [scaling.make_point(n, float(n) ** -1.0, 0.5)
              for n in (10**2, 10**3, 10**4, 10**5)]
    b_vals = [potentials.coupling(potentials.scale(prof, p), QUARTIC_2D) for p in points]
    spread = max(abs(b - b_vals[0]) for b in b_vals)
    cond_d = all(
        potentials.validate_family(potentials.scale(prof, p), eta, b_limit,
                                   quartic=QUARTIC_2D).coupling_ok
        for p in points for eta in (0.5, 1.0, 2.0)
    )
    match = abs(b_vals[0] - prof.l1_norm * QUARTIC_2D)
    elapsed = time.time() - t0
    ok = spread <= 1e-12 and match <= 1e-12 and cond_d and elapsed < 5.0
    assert report(9, "coupling invariance", ok,
                  f"(spread {spread:.1e}, condition (d) {cond_d}, {elapsed:.1f}s)")
