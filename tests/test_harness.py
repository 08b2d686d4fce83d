import dataclasses
import functools
import math
import os

import numpy as np
import pytest
from scipy.sparse.linalg import expm_multiply

from dimred import harness, manybody, nls, potentials, projectors, scaling, transverse
from dimred.cli import main
from dimred.config import DEFAULT_CONFIG_TEXT, DEFAULTS, ExperimentConfig, parse_kv_text
from dimred.errors import ConfigError, InsufficientDataError

FAST_SWEEP = """
sequence.beta = 0.5
sequence.gamma = 1.0
sequence.n_values = 2, 3, 4
interaction.profile = uniform_ball
interaction.height = 3.0
interaction.radius = 1.0
confinement.name = harmonic
external.name = zero
manybody.d_perp = 1
manybody.m_x = 5
manybody.m_y = 2
manybody.max_excitations = 3
manybody.box_length = 6.283185307179586
manybody.transverse_extent = 8.0
manybody.transverse_points = 481
nls.points = 64
nls.dt = 0.002
manybody.dt = 0.01
time.final = 0.2
rate.xi = 0.1
rate.beta1 = 0.25
rate.eta = 1.0
seed = 7
"""


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def test_config_parse_roundtrip():
    entries = parse_kv_text("a.b = 1\n# comment\nc = hello  # trailing\n\nd = 1,2,3\n")
    assert entries == {"a.b": "1", "c": "hello", "d": "1,2,3"}
    env = ExperimentConfig.from_text("seed = 1e3\nexternal.name = zero  # trailing\n"
                                     "sequence.n_values = 2, 3,\n")
    assert (env.seed, env.external_name, env.n_values) == (1000, "zero", (2, 3))


def test_config_rejects_malformed():
    for text in ("not a pair\n", "seed = 1\nseed = 2\n", "seed = many\n",
                 "sequence.points = 100, 0.1\n"):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_text(text)


def test_config_refuses_unknown_keys():
    # a misspelled key must not leave its setting at the default
    with pytest.raises(ConfigError, match="manybody.mx"):
        ExperimentConfig.from_text(FAST_SWEEP + "manybody.mx = 5\n")


def test_config_explicit_points():
    env = ExperimentConfig.from_text("sequence.beta = 0.5\nsequence.points = 100:0.1, 1000:0.03\n")
    pts = env.points()
    assert [(p.n_particles, p.epsilon) for p in pts] == [(100, 0.1), (1000, 0.03)]


def test_config_requires_sequence():
    # a config without a complete sequence loads; asking for the sequence refuses
    for text in ("sequence.beta = 0.5\n", "sequence.gamma = 1.0\nsequence.n_values = 2\n"):
        env = ExperimentConfig.from_text(text)
        with pytest.raises(ConfigError):
            env.points()


def test_config_validates_rate_inputs():
    # beta = 0.5: xi must lie in (0, beta/4], beta1 in (0, beta]
    for good, bad in (("rate.xi = 0.1", "rate.xi = 0.2"),
                      ("rate.beta1 = 0.25", "rate.beta1 = 0.6")):
        env = ExperimentConfig.from_text(FAST_SWEEP.replace(good, bad))
        with pytest.raises(ConfigError, match=bad.split(" = ")[0]):
            env.points()
        with pytest.raises(ConfigError, match=bad.split(" = ")[0]):
            harness.run_sweep(env)


def test_config_refuses_a_negative_seed():
    with pytest.raises(ConfigError, match="seed must be >= 0, got -3"):
        ExperimentConfig.from_text(FAST_SWEEP.replace("seed = 7", "seed = -3"))
    assert ExperimentConfig.from_text(FAST_SWEEP.replace("seed = 7", "seed = 0")).seed == 0


def test_default_config_parses():
    env = ExperimentConfig.from_text(DEFAULT_CONFIG_TEXT)
    assert env.beta == 0.5
    assert len(env.points()) == 7
    assert DEFAULTS == env


def test_default_table_is_default_cfg():
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "configs" / "default.cfg"
    assert ExperimentConfig.from_file(path) == ExperimentConfig.from_text(DEFAULT_CONFIG_TEXT)


def test_missing_keys_fall_back_to_default_table():
    env = ExperimentConfig.from_text("sequence.beta = 0.5\nsequence.points = 2:0.5\n")
    assert env.gamma is None and env.seed == 12345
    # the hash covers the text's own entries, not the defaults it fell back to
    same = dataclasses.replace(DEFAULTS, gamma=None, n_values=(), explicit_points=((2, 0.5),),
                               config_hash="7c49a4e8c507998e")
    assert env == same


def test_config_hash_stable():
    c1 = ExperimentConfig.from_text("seed = 1\nnls.points = 64\n")
    c2 = ExperimentConfig.from_text("nls.points = 64  # comment\n\nseed = 1\n")
    assert c1.config_hash == c2.config_hash == "287ffbe823023709"


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def fast_result():
    env = ExperimentConfig.from_text(FAST_SWEEP)
    return harness.run_sweep(env)


def test_sweep_runs_all_points(fast_result):
    assert fast_result.ok
    assert [r.n_particles for r in fast_result.rows] == [2, 3, 4]


def test_sweep_rows_sane(fast_result):
    for row in fast_result.rows:
        assert 0.0 <= row.trace_distance <= 2.0
        assert row.alpha_xi >= row.alpha_m >= 0.0
        assert row.alpha_xi == pytest.approx(row.alpha_m + row.energy_gap, rel=1e-12)
        assert row.envelope >= 1.0
        assert row.theoretical_rate > 0.0


def test_sweep_sandwich_consistency(fast_result):
    for row in fast_result.rows:
        assert row.alpha_n2 <= row.trace_distance + 1e-9
        assert row.trace_distance <= math.sqrt(8.0 * row.alpha_n2) + 1e-9
        assert row.trace_distance <= math.sqrt(8.0 * row.alpha_xi) + 1e-9


def test_sweep_excited_fraction_bound(fast_result):
    for row in fast_result.rows:
        assert row.excited_fraction <= row.envelope * row.epsilon


def test_sweep_noninteracting_distances_vanish():
    env = ExperimentConfig.from_text(
        FAST_SWEEP.replace("interaction.height = 3.0", "interaction.height = 0.0"))
    result = harness.run_sweep(env)
    assert result.ok
    for row in result.rows:
        assert row.trace_distance < 1e-8
        assert row.energy_gap < 1e-10


def test_sweep_csv_deterministic(tmp_path, fast_result):
    env = ExperimentConfig.from_text(FAST_SWEEP)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    harness.write_csv(fast_result, str(p1))
    result2 = harness.run_sweep(env, out_path=str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    head = p1.read_text().splitlines()[0]
    assert head == f"# config_hash={env.config_hash}"


def planned_h0(setup):
    """H(0) on a point's sector rows from its plans, as ``PointSetup.evolve`` builds it."""
    return manybody.hamiltonian(setup.basis, setup.psi0.fock, 0.0, setup.plans)


def test_default_sweep_states_match_expm_multiply():
    # the Krylov propagator of every default-sweep point against scipy's
    env = ExperimentConfig.from_text(DEFAULT_CONFIG_TEXT)
    inputs = harness.sweep_inputs(env)
    for point in env.points():
        setup = harness.point_setup(env, point, inputs)
        psi_t = setup.evolve(env, 1).final.amplitudes
        ref = expm_multiply(-1j * env.t_final * planned_h0(setup).tocsc(), setup.psi0.amplitudes)
        assert np.linalg.norm(psi_t - ref) < 1e-10, point.n_particles


def mode_index(basis, kx, my):
    """The flat index of the mode with integer momentum kx and transverse index my."""
    return int(np.flatnonzero((basis.mode_kx == kx) & (basis.mode_my == my))[0])


def test_default_n8_observables_lower_onto_the_rows_they_reach(monkeypatch):
    # gamma and the counting moments lower the 158-row sector state of N = 8
    # onto the 416 rows of N - 1 particles it reaches, not all 3654 capped
    # ones, and enumerate no basis; embedded in every capped row the state
    # gives the same matrices and counting measure
    env = ExperimentConfig.from_text(DEFAULT_CONFIG_TEXT)
    point = env.points()[-1]
    setup = harness.point_setup(env, point, harness.sweep_inputs(env))
    state = setup.evolve(env, 1).final
    full = manybody.FockBasis(setup.basis.n_modes, 8, env.max_excitations, env.dim_cap)
    embedded = np.zeros(full.dim, dtype=complex)
    embedded[full.lookup(state.fock.occupations)] = state.amplitudes
    on_all = manybody.ManyBodyState(full, embedded, state.time)
    phi = np.exp(0.3j * np.arange(env.m_x) - 0.5 * (np.arange(env.m_x) - env.m_x // 2) ** 2)
    coeffs = np.zeros(setup.basis.n_modes, dtype=complex)
    coeffs[[mode_index(setup.basis, k, 0) for k in setup.basis.kx]] = phi
    proj = projectors.CondensateProjector(coeffs / np.linalg.norm(coeffs))
    refs = [manybody.reduced_density(on_all, k).matrix for k in (1, 2)]
    ref_probs = projectors.counting_distribution(on_all, proj).probs
    calls, init = [], manybody.FockBasis.__init__
    monkeypatch.setattr(manybody.FockBasis, "__init__",
                        lambda self, *args, **kw: calls.append(args) or init(self, *args, **kw))
    assert point.n_particles == 8 and state.fock.dim == 158 and full.dim == 3654
    assert manybody._lowered(state, np.arange(full.n_modes)[:, None])[0].dim == 416
    for k, ref in zip((1, 2), refs):
        assert np.max(np.abs(manybody.reduced_density(state, k).matrix - ref)) < 1e-14, k
    got = projectors.counting_distribution(state, proj)
    assert got.source == "moments"
    assert np.max(np.abs(got.probs - ref_probs)) < projectors._moments_roundoff(8)
    assert calls == []


def test_well_n8_alpha_n2_agrees_with_the_counting_measure(monkeypatch):
    # in the Gaussian well the orbital at T is no basis mode, so P_k comes from
    # the factorial moments: at N = 8 their sum_k (k/N) P_k agrees with the
    # row's alpha_n2, read from gamma, within the moments' roundoff bound
    env = ExperimentConfig.from_text(
        DEFAULT_CONFIG_TEXT.replace("external.name = zero", "external.name = gaussian_well"))
    point = env.points()[-1]
    seen, alpha = [], projectors.alpha
    monkeypatch.setattr(projectors, "alpha", lambda state, weight, proj:
                        seen.append((state, proj)) or alpha(state, weight, proj))
    row = harness.run_point(env, point, harness.sweep_inputs(env))
    (state, proj), = seen
    dist = projectors.counting_distribution(state, proj)
    assert point.n_particles == 8 and dist.source == "moments"
    assert abs(np.arange(9) / 8 @ dist.probs - row.alpha_n2) < projectors._moments_roundoff(8)


def test_default_points_run_in_their_momentum_sector():
    # without a field every default point runs on the rows of K = 0 and even
    # transverse parity, the sector of the condensate; its H is the exact
    # block of the H over all capped rows, which couples it to nothing
    env = ExperimentConfig.from_text(DEFAULT_CONFIG_TEXT)
    inputs = harness.sweep_inputs(env)
    for point in env.points():
        setup = harness.point_setup(env, point, inputs)
        n = point.n_particles
        assert setup.psi0.fock.dim == (24 if n == 2 else 158), n
        assert np.all(setup.psi0.fock.occupations.astype(np.int64) @ setup.basis.mode_kx == 0)
        full = manybody.FockBasis(setup.basis.n_modes, n, env.max_excitations, env.dim_cap)
        # a brute-force (K, Pi) filter of the capped rows, one row at a time
        kx, parity = setup.basis.mode_kx.tolist(), setup.basis.mode_parity.tolist()
        sector = [row for row in full.occupations
                  if sum(int(c) * k for c, k in zip(row, kx)) == 0
                  and sum(int(c) * p for c, p in zip(row, parity)) % 2 == 0]
        assert np.array_equal(setup.psi0.fock.occupations, np.array(sector)), n
        h_full = manybody.hamiltonian(setup.basis, full).tocsr()
        rows = full.lookup(setup.psi0.fock.occupations)
        rest = np.setdiff1d(np.arange(full.dim), rows)
        assert np.array_equal(planned_h0(setup).toarray(), h_full[rows][:, rows].toarray()), n
        assert h_full[rest][:, rows].count_nonzero() == 0, n
        assert setup.psi0.amplitudes.shape == (setup.psi0.fock.dim,)
        # psi0 lies in the sector: the condensate on all capped rows loses nothing there
        whole = manybody.product_state(full, np.eye(full.n_modes)[0]).amplitudes
        assert np.array_equal(whole[rows], setup.psi0.amplitudes), n
        assert np.all(np.delete(whole, rows) == 0.0), n


def test_excitation_cap_convergence():
    # the default sweep at cap 3 against cap 4: points with N <= 3 are
    # untruncated at both caps; above, the trace distance moves by less than
    # 2e-3, more at larger N, and the fitted rate slope by less than 0.3
    rows = {}
    for cap in (3, 4):
        text = DEFAULT_CONFIG_TEXT.replace("manybody.max_excitations = 3",
                                           f"manybody.max_excitations = {cap}")
        env = ExperimentConfig.from_text(text)
        assert env.max_excitations == cap
        result = harness.run_sweep(env)
        assert result.ok
        rows[cap] = result.rows
    shifts = []
    for low, high in zip(rows[3], rows[4]):
        assert low.n_particles == high.n_particles
        if low.n_particles <= 3:
            for name in harness.CSV_COLUMNS:
                expected = pytest.approx(getattr(low, name), rel=1e-12, abs=0.0)
                assert getattr(high, name) == expected, name
        else:
            shifts.append(abs(high.trace_distance - low.trace_distance))
    assert len(shifts) == 5 and max(shifts) < 2e-3
    assert np.all(np.diff(shifts) > 0)
    slope_shift = harness.fit_rate(rows[4]).slope - harness.fit_rate(rows[3]).slope
    assert abs(slope_shift) < 0.3


def test_sweep_failure_isolation(tmp_path):
    # N = 6 at m_x = 5, m_y = 2 with a tiny cap: the point fails, others survive
    text = FAST_SWEEP.replace("sequence.n_values = 2, 3, 4",
                              "sequence.n_values = 2, 3, 12")
    text = text.replace("manybody.max_excitations = 3",
                        "manybody.max_excitations = 12\nmanybody.dim_cap = 300")
    env = ExperimentConfig.from_text(text)
    result = harness.run_sweep(env)
    assert len(result.rows) == 2
    assert len(result.failures) == 1
    assert result.failures[0][0] == 12
    assert result.failures[0][2] == "SizeError"
    path = tmp_path / "partial.csv"
    harness.write_csv(result, str(path))
    text_out = path.read_text()
    assert "# FAILED N=12" in text_out
    assert text_out.count("\n") == 2 + 2 + 1  # hash, header, 2 rows, 1 failure


def test_sweep_solves_on_the_config_grid_at_any_n(monkeypatch):
    # no point grows the grid: every sweep, whatever its points, solves once
    # on manybody.transverse_points, and build_basis takes that grid at
    # N = 255, where it puts fewer than 4 scaled points across the range
    grids = []
    solve = transverse.solve_modes
    monkeypatch.setattr(transverse, "solve_modes",
                        lambda conf, grid, **kw: grids.append(grid.points) or solve(conf, grid, **kw))
    env = dataclasses.replace(DEFAULTS, n_values=(255,), t_final=0.01)
    result = harness.run_sweep(env)
    assert result.ok and grids == [DEFAULTS.transverse_points] == [961]
    point = env.points()[0]
    inputs = harness.sweep_inputs(env)
    scaled = potentials.scale(inputs.profile, point, d_perp=env.d_perp)
    assert scaled.range / transverse.rescale(inputs.unscaled_mode, point.epsilon).spacing < 4


def _floor_and_finer_bases(point, points):
    # the mode basis of `point` on the config's grid and on a `points` grid
    bases = []
    for n in (DEFAULTS.transverse_points, points):
        env = dataclasses.replace(DEFAULTS, transverse_points=n)
        inputs = harness.sweep_inputs(env)
        assert len(inputs.unscaled_mode.axis) == n
        scaled = potentials.scale(inputs.profile, point, d_perp=env.d_perp)
        spacing = transverse.rescale(inputs.unscaled_mode, point.epsilon).spacing
        bases.append((scaled.range / spacing,
                      manybody.build_basis(point, inputs.confinement, None, scaled, env.m_x,
                                           env.m_y, env.box_length, unscaled_mode=inputs.unscaled_mode)))
    return bases


def _assert_same_basis(coarse, fine, vq_rel):
    scale = np.max(np.abs(fine.energies))
    assert np.max(np.abs(coarse.energies - fine.energies)) < 1e-10 * scale
    assert np.max(np.abs(coarse.vq - fine.vq)) < vq_rel * np.max(np.abs(fine.vq))


@pytest.mark.parametrize("n_particles, points", [(64, 1025), (128, 1451)])
def test_sweep_grid_is_the_fewest_odd_points_build_basis_accepts(n_particles, points):
    # the config's 961 points are the fewest a sweep solves on: build_basis
    # takes them where fewer than 8 scaled points cross the range, and the
    # fewest odd grid putting 8 across (`points`) moves the basis by < 1e-8
    point = scaling.make_point(n_particles, float(n_particles) ** -1.0, DEFAULTS.beta)
    (floor_per_range, floor), (per_range, finer) = _floor_and_finer_bases(point, points)
    assert floor_per_range < 8 <= per_range
    _assert_same_basis(floor, finer, 1e-8)


def test_sweep_grid_keeps_the_floor_it_cannot_outgrow():
    # at N = 10^6 the floor puts 0.06 scaled points across the range and
    # 20001 points put 1.25; the floor's basis is that grid's to 1e-9
    far = scaling.make_point(10**6, 1e-6, DEFAULTS.beta)
    (floor_per_range, floor), (per_range, finer) = _floor_and_finer_bases(far, 20001)
    assert floor_per_range < 0.1 and per_range > 1
    _assert_same_basis(floor, finer, 1e-9)


def test_n255_excited_fraction_converges_on_the_floor_grid():
    # rescaling multiplies the energies' discretization error by N^2 = 65025;
    # the sixth-order solve keeps the floor grid's row within 1e-5 relative of
    # a 16001-point run (5.3e-7 measured), where the second-order one was 40 % off
    point = scaling.make_point(255, 1.0 / 255, DEFAULTS.beta)
    rows = []
    for n in (961, 16001):
        env = dataclasses.replace(DEFAULTS, transverse_points=n)
        rows.append(harness.run_point(env, point, harness.sweep_inputs(env)))
    floor, fine = rows
    assert floor.excited_fraction == pytest.approx(fine.excited_fraction, rel=1e-5)
    assert floor.trace_distance == pytest.approx(fine.trace_distance, rel=1e-8)
    assert floor.gamma_discrepancy == pytest.approx(fine.gamma_discrepancy, rel=1e-5)


def test_d_perp_2_default_family_agrees_between_121_and_161_points():
    # the sixth-order 2d solve and the spectral angular mean of S: every column
    # of the 121-point rows lies within 3e-6 relative of the 161-point rows
    # (excited_fraction 1.4e-6 measured), the Gamma discrepancy within 1e-6
    # (2.1e-7); a bicubic angular mean put it 3.0e-5 apart, and the 5-point
    # stencil excited_fraction 1.4e-2
    rows = []
    for n in (121, 161):
        env = dataclasses.replace(DEFAULTS, d_perp=2, transverse_extent=6.5, transverse_points=n)
        result = harness.run_sweep(env)
        assert result.ok and len(result.rows) == 7
        rows.append(result.rows)
    for coarse, fine in zip(*rows):
        for name in harness.CSV_COLUMNS:
            rel = 1e-6 if name == "gamma_discrepancy" else 3e-6
            assert getattr(coarse, name) == pytest.approx(getattr(fine, name), rel=rel, abs=0.0), name


# ---------------------------------------------------------------------------
# rate fit
# ---------------------------------------------------------------------------


def _synthetic_rows(constant, slope, rates):
    rows = []
    for rate in rates:
        rows.append(harness.SweepRow(
            n_particles=10, epsilon=0.1, mu=0.01, t=1.0,
            trace_distance=constant * rate ** (0.5 * slope),
            alpha_n2=0.0, alpha_m=0.0, alpha_xi=0.0, energy_gap=0.0,
            theoretical_rate=rate, excited_fraction=0.0,
            envelope=1.0, gronwall=1.0, gamma_discrepancy=0.0,
        ))
    return rows


def test_fit_rate_exact_synthetic():
    rows = _synthetic_rows(2.0, 1.0, [0.5, 0.2, 0.1, 0.05, 0.02])
    fit = harness.fit_rate(rows)
    assert fit.slope == pytest.approx(1.0, abs=1e-12)
    assert math.exp(fit.log_constant) == pytest.approx(2.0, rel=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_rate_needs_rows():
    with pytest.raises(InsufficientDataError):
        harness.fit_rate(_synthetic_rows(2.0, 1.0, [0.5, 0.2, 0.1]))


def test_fit_rate_refuses_all_zero():
    rows = _synthetic_rows(0.0, 1.0, [0.5, 0.2, 0.1, 0.05])
    with pytest.raises(InsufficientDataError):
        harness.fit_rate(rows)


def test_fit_rate_on_real_sweep(fast_result):
    # only 3 points here; extend with a fourth synthetic-free run is costly,
    # so just exercise the path expecting the row-count error
    with pytest.raises(InsufficientDataError):
        harness.fit_rate(fast_result.rows)


# ---------------------------------------------------------------------------
# verification battery
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_verify_all_passes():
    report = harness.verify_all(seed=0)
    failures = [(c.module, c.name, c.measured, c.bound) for c in report.checks if not c.passed]
    assert report.ok, failures
    assert any(c.name == "two_body_oracle_trace_distance" for c in report.checks)


def test_verification_report_detects_fault():
    rep = harness.VerificationReport()
    rep.add("projectors", "seeded_fault", measured=1.0, bound=1e-10)
    assert not rep.ok
    assert [c.name for c in rep.checks if not c.passed] == ["seeded_fault"]
    assert rep.as_dict()["checks"][0]["passed"] is False


def test_initial_energy_gap_shrinks_with_n():
    # prepared product states carry an O(1/N) gap between the per-particle
    # many-body energy and the effective energy (the pair count is N(N-1)/2
    # while the coupling is normalized with N); the gap must shrink along the
    # sequence but is not small at desk scale
    text = FAST_SWEEP.replace("sequence.n_values = 2, 3, 4",
                              "sequence.n_values = 2, 4, 8")
    text = text.replace("time.final = 0.2", "time.final = 0.02")
    text = text.replace("nls.dt = 0.002", "nls.dt = 0.001")
    env = ExperimentConfig.from_text(text)
    result = harness.run_sweep(env)
    assert result.ok
    gaps = [r.energy_gap for r in result.rows]
    assert gaps[0] > gaps[1] > gaps[2]
    # halving check: roughly proportional to 1/N
    assert gaps[0] / gaps[2] == pytest.approx(4.0, rel=0.5)


def test_phi_plane_wave_coefficients_match_sampling():
    # the projector orbital built from DFT coefficients must equal the one
    # built by direct sampling of the same state on the mode functions
    import math

    import numpy as np

    from dimred import manybody, nls, potentials, scaling, transverse

    length = 2.0 * math.pi
    point = scaling.make_point(3, 0.5, 0.5)
    conf = potentials.harmonic_confinement(dimension=1)
    unscaled = transverse.solve_modes(conf, transverse.TransverseGrid(8.0, 481), 2)
    sc = potentials.scale(potentials.uniform_ball(height=0.0), point, d_perp=1)
    basis = manybody.build_basis(point, conf, None, sc, 5, 2, length,
                                 unscaled_mode=unscaled)
    grid = nls.Grid1D(length, 64)
    mix = nls.normalized(grid, np.exp(1j * grid.x) + 0.5 * np.exp(-2j * grid.x) + 0.3)
    coeffs = projectors.condensate_projector(basis, mix).coeffs
    direct = np.array([
        np.vdot(np.exp(1j * 2.0 * math.pi * k * grid.x / length) / math.sqrt(length),
                mix.values) * grid.spacing
        for k in basis.kx
    ])
    ground = [mode_index(basis, k, 0) for k in basis.kx]
    assert coeffs[ground] == pytest.approx(direct / np.linalg.norm(direct), abs=1e-12)
    assert np.all(np.delete(coeffs, ground) == 0.0)


def test_condensate_projector_is_a_basis_mode_only_for_one_plane_wave():
    # the uniform Phi(T) of the default N = 8 point is the condensate mode, so
    # its counting functionals read occupations; a mixed Phi is no basis mode
    env = ExperimentConfig.from_text(DEFAULT_CONFIG_TEXT)
    point = env.points()[-1]
    inputs = harness.sweep_inputs(env)
    basis = harness.point_setup(env, point, inputs).basis
    grid = nls.Grid1D(env.box_length, env.nls_points)
    phi_t = nls.evolve(nls.plane_wave(grid, 0), None, inputs.b_eff, env.nls_dt, env.t_final,
                       n_outputs=1).final
    assert point.n_particles == 8 and phi_t.time == pytest.approx(env.t_final)
    assert projectors.condensate_projector(basis, phi_t).basis_mode == 0
    mix = nls.normalized(grid, np.exp(1j * grid.x) + 0.3)
    assert projectors.condensate_projector(basis, mix).basis_mode is None
    for index in (0, 5, basis.n_modes - 1):
        assert projectors.basis_mode_projector(basis.n_modes, index).basis_mode == index


def test_sweep_with_external_well():
    # static well: the condensate spreads over several plane waves, so the
    # time-T projector is not a basis mode and the general counting path runs
    text = FAST_SWEEP.replace("external.name = zero", "external.name = gaussian_well")
    text = text.replace("time.final = 0.2", "time.final = 0.3")
    env = ExperimentConfig.from_text(text)
    result = harness.run_sweep(env)
    assert result.ok
    for row in result.rows:
        assert row.alpha_n2 <= row.trace_distance + 1e-9
        assert row.trace_distance <= math.sqrt(8.0 * row.alpha_n2) + 1e-9
        assert row.envelope >= 1.0
        assert 0.0 < row.trace_distance < 2.0


def test_default_sweep_integrates_the_effective_equation_once(monkeypatch, tmp_path):
    # b is a sweep constant, so every point asks nls.evolve for the same run:
    # the Strang loop runs once, and a sweep that clears the memo before every
    # point writes the same bytes
    nls._strang.cache_clear()
    harness.run_sweep(DEFAULTS, out_path=str(tmp_path / "memo.csv"))
    info = nls._strang.cache_info()
    assert (info.misses, info.hits) == (1, len(DEFAULTS.points()) - 1)
    run_point = harness.run_point

    def cleared(*args):
        nls._strang.cache_clear()
        return run_point(*args)

    monkeypatch.setattr(harness, "run_point", cleared)
    harness.run_sweep(DEFAULTS, out_path=str(tmp_path / "cleared.csv"))
    assert (tmp_path / "memo.csv").read_bytes() == (tmp_path / "cleared.csv").read_bytes()


def test_run_point_energy_at_final_time(monkeypatch):
    # a driven field: E(psi_T) must use H(T), not the H(0) built for E(psi_0)
    text = FAST_SWEEP.replace("external.name = zero", "external.name = driven_well")
    text = text.replace("sequence.n_values = 2, 3, 4", "sequence.n_values = 3")
    env = ExperimentConfig.from_text(text)
    seen = {}

    def spy(module, key):
        orig = module.evolve

        def wrapped(*args, **kwargs):
            seen[key] = (args, orig(*args, **kwargs))
            return seen[key][1]

        monkeypatch.setattr(module, "evolve", wrapped)

    spy(manybody, "manybody")
    spy(nls, "nls")
    result = harness.run_sweep(env)
    assert result.ok
    row = result.rows[0]
    (psi0, basis, *_), mtraj = seen["manybody"]
    (_, external, b_eff, *_), ntraj = seen["nls"]
    t_final = env.t_final
    e_phi = nls.effective_energy(ntraj.final, external, b_eff, t_final)

    def energy(t):
        h = manybody.hamiltonian(basis, psi0.fock, t)
        return manybody.expectation(mtraj.final, h) / psi0.fock.n_particles

    gap = abs(energy(t_final) - e_phi)
    # the row names the time both states reached
    assert row.t == t_final
    assert mtraj.final.time == pytest.approx(t_final) and ntraj.final.time == pytest.approx(t_final)
    assert row.energy_gap == pytest.approx(gap, rel=1e-9)
    assert row.alpha_xi == pytest.approx(row.alpha_m + gap, rel=1e-9)
    assert abs(abs(energy(0.0) - e_phi) - gap) > 1e-3


@pytest.fixture()
def operator_builds(monkeypatch):
    """() -> how many two-body operators were assembled and how many one-body
    operators were built on a field profile (``ModeBasis.field_matrix``) so far."""
    def spy(name):
        orig, seen = getattr(manybody, name), []

        def counted(*args, **kwargs):
            seen.append((args, orig(*args, **kwargs)))
            return seen[-1][1]

        monkeypatch.setattr(manybody, name, counted)
        return seen

    bases, one_body, two_body = map(spy, ("build_basis", "one_body_operator",
                                          "two_body_operator"))
    return lambda: (len(two_body), sum(args[1] is basis.field_matrix
                                       for args, _ in one_body for _, basis in bases))


def test_driven_point_assembles_the_two_body_operator_once(operator_builds):
    # H(0) is the only assembly and G, the field operator, is built once: evolve
    # cuts H(0), adds (f - f0) G, and reads both energies from that H(t).  With
    # H(T) = H(0) + (f(T) - f(0)) G built apart, G was built twice.
    text = FAST_SWEEP.replace("external.name = zero", "external.name = driven_well")
    env = ExperimentConfig.from_text(text)
    inputs = harness.sweep_inputs(env)
    harness.run_point(env, env.points()[0], inputs)
    assert operator_builds() == (1, 1)


def test_static_field_point_builds_no_field_operator(operator_builds):
    # the field is in H(0) at every t, so evolve only cuts it
    text = FAST_SWEEP.replace("external.name = zero", "external.name = gaussian_well")
    env = ExperimentConfig.from_text(text)
    harness.run_point(env, env.points()[0], harness.sweep_inputs(env))
    assert operator_builds() == (1, 0)


def test_manybody_evolve_builds_the_field_operator_once(operator_builds, tmp_path):
    # its CSV energies come from evolve: no H(t) is rebuilt per output (7 G builds)
    path = tmp_path / "driven.cfg"
    path.write_text(FAST_SWEEP.replace("external.name = zero", "external.name = driven_well"))
    assert main(["manybody-evolve", "--config", str(path), "--outputs", "5",
                 "--out", str(tmp_path / "out")]) == 0
    assert len((tmp_path / "out" / "manybody.csv").read_text().splitlines()) == 7
    assert operator_builds() == (1, 1)


def test_sweep_computes_the_mode_correlations_once(monkeypatch):
    # every point rescales the one unscaled mode, and every rescaled mode reads
    # that mode's spectrum: one FFT per sweep
    env = ExperimentConfig.from_text(DEFAULT_CONFIG_TEXT)
    calls = []
    orig = transverse.TransverseMode._spectrum.func

    def counted(mode):
        calls.append(1)
        return orig(mode)

    spectrum = functools.cached_property(counted)
    spectrum.__set_name__(transverse.TransverseMode, "_spectrum")
    monkeypatch.setattr(transverse.TransverseMode, "_spectrum", spectrum)
    result = harness.run_sweep(env)
    assert result.ok and len(result.rows) == 7
    assert len(calls) == 1


def test_sweep_assembles_h0_once_per_point_on_the_state_it_evolves(monkeypatch):
    # perfbench's tracer reads H(0) for its state oracle from the one
    # manybody.hamiltonian call evolve makes per point, at t = 0, on the fock
    # it propagates
    seen = {"hamiltonian": [], "evolve": []}
    for name in seen:
        orig = getattr(manybody, name)
        monkeypatch.setattr(manybody, name, lambda *args, _orig=orig, _name=name, **kwargs:
                            seen[_name].append(args) or _orig(*args, **kwargs))
    result = harness.run_sweep(ExperimentConfig.from_text(DEFAULT_CONFIG_TEXT))
    assert result.ok and len(result.rows) == 7
    assert len(seen["hamiltonian"]) == len(seen["evolve"]) == 7
    for (basis, fock, t, *_), (state, evolved_basis, *_) in zip(seen["hamiltonian"], seen["evolve"]):
        assert t == 0.0 and fock is state.fock and basis is evolved_basis


def test_sweep_plans_each_distinct_sector_once(monkeypatch):
    # N = 2 lies below the cap of 3 and has its own sector; N = 3 ... 8 share
    # one, planned at N = 5 where every row holds n_0 >= 2
    built = []
    plans = manybody.SectorPlans
    monkeypatch.setattr(manybody, "SectorPlans",
                        lambda basis, fock: built.append(fock.n_particles) or plans(basis, fock))
    assert harness.run_sweep(ExperimentConfig.from_text(DEFAULT_CONFIG_TEXT)).ok
    assert built == [2, 5]


def test_sweep_splits_sectors_only_when_it_plans_one(monkeypatch):
    # N = 2 and N = 5 each plan a sector from the capped rows; evolve takes
    # each point's rows, already one sector, as its one block
    split, sectors = [], manybody.sectors
    monkeypatch.setattr(manybody, "sectors",
                        lambda basis, fock: split.append(fock.n_particles) or sectors(basis, fock))
    assert harness.run_sweep(ExperimentConfig.from_text(DEFAULT_CONFIG_TEXT)).ok
    assert split == [2, 5]


def test_one_sector_plan_replays_h0_and_gamma_at_every_n_from_the_cap():
    # the default family's sector, planned once at N = 5, replayed at N = 3 and 4
    # (rows with n_0 < 2 lack elements the plan holds) and up to N = 255, gives
    # the H(0) and gamma^(1) of a fresh _ladder assembly on the N-particle
    # sector of the capped rows, entry for entry
    env = ExperimentConfig.from_text(DEFAULT_CONFIG_TEXT.replace(
        "sequence.n_values = 2, 3, 4, 5, 6, 7, 8", "sequence.n_values = 3, 4, 5, 8, 128, 255"))
    inputs, rng = harness.sweep_inputs(env), np.random.default_rng(5)
    first = None
    for point in env.points():
        setup = harness.point_setup(env, point, inputs)
        first = first or setup.plans
        assert setup.plans is first and first.fock.n_particles == 5
        n, basis = point.n_particles, setup.basis
        full = manybody.FockBasis(basis.n_modes, n, env.max_excitations, env.dim_cap)
        condensate = full.occupations[:, 0] == n
        fock = full.subset(next(r for r in manybody.sectors(basis, full) if condensate[r].any()))
        assert np.array_equal(setup.psi0.fock.occupations, fock.occupations), n
        planned, fresh = planned_h0(setup), manybody.hamiltonian(basis, fock, 0.0)
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(planned, part), getattr(fresh, part)), (n, part)
        assert fresh.nnz == 7022
        amps = rng.normal(size=fock.dim) + 1j * rng.normal(size=fock.dim)
        state = manybody.ManyBodyState(fock, amps / np.linalg.norm(amps))
        assert np.array_equal(manybody.reduced_density(state, 1, first).matrix,
                              manybody.reduced_density(state, 1).matrix), n
