import dataclasses
import math
import os

import numpy as np
import pytest
from scipy.sparse.linalg import expm_multiply

from dimred import harness, manybody, nls
from dimred.config import DEFAULT_CONFIG_TEXT, Config, ExperimentConfig
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
    cfg = Config.from_text("a.b = 1\n# comment\nc = hello  # trailing\n\nd = 1,2,3\n")
    assert cfg.get_int("a.b") == 1
    assert cfg.get("c") == "hello"
    assert cfg.get_list("d", conv=int) == [1, 2, 3]


def test_config_rejects_malformed():
    with pytest.raises(ConfigError):
        Config.from_text("not a pair\n")
    with pytest.raises(ConfigError):
        Config.from_text("a = 1\na = 2\n")


def test_config_explicit_points():
    cfg = Config.from_text("sequence.beta = 0.5\nsequence.points = 100:0.1, 1000:0.03\n")
    env = ExperimentConfig.from_config(cfg)
    pts = env.points()
    assert [(p.n_particles, p.epsilon) for p in pts] == [(100, 0.1), (1000, 0.03)]


def test_config_requires_sequence():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_config(Config.from_text("sequence.beta = 0.5\n"))


def test_config_validates_rate_inputs():
    bad = FAST_SWEEP.replace("rate.xi = 0.1", "rate.xi = 0.2")
    with pytest.raises(ConfigError):
        ExperimentConfig.from_config(Config.from_text(bad))


def test_default_config_parses():
    env = ExperimentConfig.from_config(Config.from_text(DEFAULT_CONFIG_TEXT))
    assert env.beta == 0.5
    assert len(env.points()) == 7


def test_default_table_is_default_cfg():
    from pathlib import Path

    text = Config.from_text(DEFAULT_CONFIG_TEXT)
    path = Path(__file__).resolve().parents[1] / "configs" / "default.cfg"
    cfg = Config.from_file(path)
    assert text.hash() == cfg.hash()
    assert ExperimentConfig.from_config(text) == ExperimentConfig.from_config(cfg)


def test_missing_keys_fall_back_to_default_table():
    default = ExperimentConfig.from_config(Config.from_text(DEFAULT_CONFIG_TEXT))
    cfg = Config.from_text("sequence.beta = 0.5\nsequence.points = 2:0.5\n")
    assert cfg.get("sequence.gamma") is None and cfg.get("seed") == "12345"
    env = ExperimentConfig.from_config(cfg)
    same = dataclasses.replace(default, gamma=None, n_values=(), explicit_points=((2, 0.5),),
                               config_hash=cfg.hash())
    assert env == same


def test_config_hash_stable():
    c1 = Config.from_text("a = 1\nb = 2\n")
    c2 = Config.from_text("b = 2\na = 1\n")
    assert c1.hash() == c2.hash()


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def fast_result():
    env = ExperimentConfig.from_config(Config.from_text(FAST_SWEEP))
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
    env = ExperimentConfig.from_config(Config.from_text(
        FAST_SWEEP.replace("interaction.height = 3.0", "interaction.height = 0.0")))
    result = harness.run_sweep(env)
    assert result.ok
    for row in result.rows:
        assert row.trace_distance < 1e-8
        assert row.energy_gap < 1e-10


def test_sweep_csv_deterministic(tmp_path, fast_result):
    env = ExperimentConfig.from_config(Config.from_text(FAST_SWEEP))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    harness.write_csv(fast_result, str(p1))
    result2 = harness.run_sweep(env, out_path=str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    head = p1.read_text().splitlines()[0]
    assert head == f"# config_hash={env.config_hash}"


def test_default_sweep_states_match_expm_multiply():
    # the Krylov propagator of every default-sweep point against scipy's
    env = ExperimentConfig.from_config(Config.from_text(DEFAULT_CONFIG_TEXT))
    inputs = harness.sweep_inputs(env)
    for point in env.points():
        setup = harness.point_setup(env, point, inputs)
        psi_t = setup.evolve(env, 1).final.amplitudes
        ref = expm_multiply(-1j * env.t_final * setup.h0.tocsc(), setup.psi0.amplitudes)
        assert np.linalg.norm(psi_t - ref) < 1e-10, point.n_particles


def test_default_points_run_in_their_momentum_sector():
    # without a field every default point runs on the K = 0 rows; its H is the
    # exact block of the H over all capped rows, which couples K = 0 to nothing
    env = ExperimentConfig.from_config(Config.from_text(DEFAULT_CONFIG_TEXT))
    inputs = harness.sweep_inputs(env)
    for point in env.points():
        setup = harness.point_setup(env, point, inputs)
        n = point.n_particles
        assert setup.fock.dim == (42 if n == 2 else 298), n
        assert np.all(setup.fock.occupations.astype(np.int64) @ setup.basis.mode_kx == 0)
        full = manybody.FockBasis(setup.basis.n_modes, n, env.max_excitations, env.dim_cap)
        assert setup.fock.unrestricted_dim == full.dim
        h_full = manybody.hamiltonian(setup.basis, full).tocsr()
        rows = full.lookup(setup.fock.occupations)
        rest = np.setdiff1d(np.arange(full.dim), rows)
        assert np.array_equal(setup.h0.toarray(), h_full[rows][:, rows].toarray()), n
        assert h_full[rest][:, rows].count_nonzero() == 0, n
        assert setup.psi0.amplitudes.shape == (setup.fock.dim,)


def test_excitation_cap_convergence():
    # the default sweep at cap 3 against cap 4: points with N <= 3 are
    # untruncated at both caps; above, the trace distance moves by less than
    # 2e-3, more at larger N, and the fitted rate slope by less than 0.3
    rows = {}
    for cap in (3, 4):
        text = DEFAULT_CONFIG_TEXT.replace("manybody.max_excitations = 3",
                                           f"manybody.max_excitations = {cap}")
        env = ExperimentConfig.from_config(Config.from_text(text))
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


def test_sweep_failure_isolation():
    # N = 6 at m_x = 5, m_y = 2 with a tiny cap: the point fails, others survive
    text = FAST_SWEEP.replace("sequence.n_values = 2, 3, 4",
                              "sequence.n_values = 2, 3, 12")
    text = text.replace("manybody.max_excitations = 3",
                        "manybody.max_excitations = 12\nmanybody.dim_cap = 300")
    env = ExperimentConfig.from_config(Config.from_text(text))
    result = harness.run_sweep(env)
    assert len(result.rows) == 2
    assert len(result.failures) == 1
    assert result.failures[0][0] == 12
    assert result.failures[0][2] == "SizeError"
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/partial.csv"
        harness.write_csv(result, path)
        text_out = open(path).read()
        assert "# FAILED N=12" in text_out
        assert text_out.count("\n") == 2 + 2 + 1  # hash, header, 2 rows, 1 failure


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
    assert fit.constant == pytest.approx(2.0, rel=1e-12)
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
    failures = [(c.module, c.name, c.measured, c.bound) for c in report.failures()]
    assert report.ok, failures
    assert any(c.name == "two_body_oracle_trace_distance" for c in report.checks)


def test_verification_report_detects_fault():
    rep = harness.VerificationReport()
    rep.add("projectors", "seeded_fault", measured=1.0, bound=1e-10)
    assert not rep.ok
    assert rep.failures()[0].name == "seeded_fault"
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
    env = ExperimentConfig.from_config(Config.from_text(text))
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
    coeffs = harness._phi_plane_wave_coefficients(mix, basis)
    direct = np.array([
        np.vdot(np.exp(1j * 2.0 * math.pi * k * grid.x / length) / math.sqrt(length),
                mix.values) * grid.spacing
        for k in basis.kx
    ])
    assert coeffs == pytest.approx(direct, abs=1e-12)


def test_sweep_with_external_well():
    # static well: the condensate spreads over several plane waves, so the
    # time-T projector is not a basis mode and the general counting path runs
    text = FAST_SWEEP.replace("external.name = zero", "external.name = gaussian_well")
    text = text.replace("time.final = 0.2", "time.final = 0.3")
    env = ExperimentConfig.from_config(Config.from_text(text))
    result = harness.run_sweep(env)
    assert result.ok
    for row in result.rows:
        assert row.alpha_n2 <= row.trace_distance + 1e-9
        assert row.trace_distance <= math.sqrt(8.0 * row.alpha_n2) + 1e-9
        assert row.envelope >= 1.0
        assert 0.0 < row.trace_distance < 2.0


def test_run_point_energy_at_final_time(monkeypatch):
    # a driven field: E(psi_T) must use H(T), not the H(0) built for E(psi_0)
    text = FAST_SWEEP.replace("external.name = zero", "external.name = driven_well")
    text = text.replace("sequence.n_values = 2, 3, 4", "sequence.n_values = 3")
    env = ExperimentConfig.from_config(Config.from_text(text))
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
    assert row.energy_gap == pytest.approx(gap, rel=1e-9)
    assert row.alpha_xi == pytest.approx(row.alpha_m + gap, rel=1e-9)
    assert abs(abs(energy(0.0) - e_phi) - gap) > 1e-3
