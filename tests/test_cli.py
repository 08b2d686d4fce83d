import dataclasses
import json
import math
import struct
from pathlib import Path

import numpy as np
import pytest

from dimred import manybody
from dimred.cli import main
from dimred import config
from dimred.config import DEFAULT_CONFIG_TEXT, ExperimentConfig, parse_kv_text

DEFAULT_CFG = Path(__file__).resolve().parents[1] / "configs" / "default.cfg"

FAST_SWEEP = """
sequence.beta = 0.5
sequence.gamma = 1.0
sequence.n_values = 2, 3
interaction.profile = uniform_ball
interaction.height = 3.0
interaction.radius = 1.0
confinement.name = harmonic
external.name = zero
manybody.d_perp = 1
manybody.m_x = 5
manybody.m_y = 2
manybody.max_excitations = 2
manybody.transverse_extent = 8.0
manybody.transverse_points = 481
nls.points = 64
nls.dt = 0.002
manybody.dt = 0.01
time.final = 0.1
rate.xi = 0.1
rate.beta1 = 0.25
rate.eta = 1.0
seed = 3
"""


@pytest.fixture()
def sweep_cfg(tmp_path):
    path = tmp_path / "sweep.cfg"
    path.write_text(FAST_SWEEP + f"\noutput.dir = {tmp_path / 'out'}\n")
    return path


def test_transverse_json(capsys, tmp_path):
    cfg = tmp_path / "t.cfg"
    cfg.write_text("confinement.name = harmonic\nmanybody.d_perp = 1\n"
                   "manybody.transverse_extent = 9.0\nmanybody.transverse_points = 2001\n")
    rc = main(["transverse", "--config", str(cfg)])
    assert rc == 0
    data = json.loads(capsys.readouterr().out.splitlines()[0])
    assert data["energy0"] == pytest.approx(1.0, abs=1e-4)
    assert data["gap"] == pytest.approx(2.0, abs=1e-3)


def test_transverse_csv_dump(capsys, tmp_path):
    cfg = tmp_path / "t.cfg"
    cfg.write_text("manybody.d_perp = 1\nmanybody.transverse_points = 501\n"
                   "manybody.transverse_extent = 7.0\n")
    rc = main(["transverse", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 0
    lines = (tmp_path / "o" / "chi.csv").read_text().splitlines()
    assert lines[0] == "y,chi"
    assert len(lines) == 502


def test_transverse_prints_the_sweep_mode(capsys):
    from dimred import harness

    assert main(["transverse", "--config", str(DEFAULT_CFG)]) == 0
    data = json.loads(capsys.readouterr().out.splitlines()[0])
    env = ExperimentConfig.from_file(DEFAULT_CFG)
    mode = harness.sweep_inputs(env).unscaled_mode
    assert data == {"energy0": mode.energy0, "gap": mode.gap, "quartic": mode.quartic}


def test_config_reads_exactly_the_default_table_keys():
    # every key a config may set is a default-table key or sequence.points,
    # and each fills one ExperimentConfig field
    table = set(parse_kv_text(DEFAULT_CONFIG_TEXT)) | {"sequence.points"}
    assert set(config.FIELD_OF_KEY) == table
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)} - {"config_hash"}
    names = [name for name, _ in config.FIELD_OF_KEY.values()]
    assert sorted(names) == sorted(fields)


def test_misspelled_key_exit_code(capsys, sweep_cfg, tmp_path):
    path = tmp_path / "typo.cfg"
    path.write_text(sweep_cfg.read_text().replace("manybody.m_x", "manybody.mx"))
    for argv in (["sweep"], ["transverse"], ["verify-all"]):
        assert main([*argv, "--config", str(path)]) == 2
    assert "manybody.mx" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [["sweep"], ["manybody-evolve"], ["aux-verify"]])
def test_incomplete_sequence_exits_before_writing(argv, tmp_path):
    path = tmp_path / "noseq.cfg"
    path.write_text(FAST_SWEEP.replace("sequence.n_values = 2, 3\n", "")
                    + f"output.dir = {tmp_path / 'out'}\n")
    assert main([*argv, "--config", str(path)]) == 2
    assert list(tmp_path.iterdir()) == [path]


def test_nls_evolve_outputs(tmp_path):
    cfg = tmp_path / "nls.cfg"
    cfg.write_text("nls.points = 64\nnls.dt = 0.002\ntime.final = 0.2\n")
    rc = main(["nls-evolve", "--config", str(cfg), "--out", str(tmp_path / "o"),
               "--length", "25.13", "--b", "1.0", "--initial", "gaussian", "--dump-state"])
    tmp_path = tmp_path / "o"
    assert rc == 0
    csv = (tmp_path / "nls.csv").read_text().splitlines()
    assert csv[0] == "t,l2,h1,h2,sup,energy"
    assert len(csv) >= 3
    blob = (tmp_path / "phi_final.bin").read_bytes()
    m, length = struct.unpack("<Id", blob[:12])
    assert m == 64
    assert length == pytest.approx(25.13)
    values = np.frombuffer(blob[12:], dtype="<c8")
    assert len(values) == 64
    # mass of the dumped state survives the round trip at float32 fidelity
    h = length / m
    assert np.sum(np.abs(values.astype(complex)) ** 2) * h == pytest.approx(1.0, abs=1e-5)


@pytest.mark.parametrize("mode", [1000, -64, 64])
def test_nls_evolve_refuses_an_aliased_plane_wave(capsys, mode, tmp_path):
    # on 128 points mode 1000 is mode -24, which runs, and +-64 the Nyquist mode
    cfg = tmp_path / "nls.cfg"
    cfg.write_text("nls.points = 128\ntime.final = 0.01\n")
    out = tmp_path / "o"
    rc = main(["nls-evolve", "--config", str(cfg), "--out", str(out),
               "--initial", "plane", "--mode", str(mode)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith(f"error: mode {mode} aliases on 128 points") and "Traceback" not in err
    assert list(tmp_path.iterdir()) == [cfg]
    assert main(["nls-evolve", "--config", str(cfg), "--out", str(out),
                 "--initial", "plane", "--mode", "-24"]) == 0


def test_manybody_evolve_and_alpha(capsys, sweep_cfg, tmp_path):
    out = tmp_path / "out"
    rc = main(["manybody-evolve", "--config", str(sweep_cfg), "--n", "3",
               "--outputs", "2", "--dump-state", "--out", str(out)])
    assert rc == 0
    csv = (out / "manybody.csv").read_text().splitlines()
    assert csv[0].startswith("t,norm,energy,E_renormalized,condensate_fraction")
    first = [float(v) for v in csv[1].split(",")]
    assert first[1] == pytest.approx(1.0, abs=1e-9)      # norm
    assert first[4] == pytest.approx(1.0, abs=1e-9)      # condensate fraction at t=0
    capsys.readouterr()
    rc = main(["alpha", str(out / "state_final.npz"), "--xi", "0.1"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert data["sandwich_holds"] is True
    assert sum(data["probs"]) == pytest.approx(1.0, abs=1e-9)
    assert data["alpha_n2"] <= data["trace_distance"] + 1e-9


def test_manybody_evolve_energy_at_output_time(tmp_path):
    # a driven field: each CSV energy must use H at that row's time
    from dimred import manybody, potentials, scaling, transverse

    text = FAST_SWEEP.replace("external.name = zero", "external.name = driven_well")
    path = tmp_path / "driven.cfg"
    path.write_text(text)
    out = tmp_path / "out"
    rc = main(["manybody-evolve", "--config", str(path), "--n", "3",
               "--outputs", "2", "--dump-state", "--out", str(out)])
    assert rc == 0
    last = [float(v) for v in (out / "manybody.csv").read_text().splitlines()[-1].split(",")]
    env = ExperimentConfig.from_text(text)
    point = scaling.make_point(3, 3.0 ** -env.gamma, env.beta)
    conf = potentials.confinement_by_name("harmonic", 1)
    unscaled = transverse.solve_modes(
        conf, transverse.TransverseGrid(env.transverse_extent, env.transverse_points), 2)
    scaled = potentials.scale(potentials.uniform_ball(3.0, 1.0), point, d_perp=1)
    basis = manybody.build_basis(point, conf, potentials.external_by_name("driven_well"),
                                 scaled, env.m_x, env.m_y, env.box_length,
                                 unscaled_mode=unscaled)
    dump = np.load(out / "state_final.npz")
    fock = manybody.FockBasis(basis.n_modes, 3, env.max_excitations)
    amps = np.zeros(fock.dim, dtype=complex)
    amps[fock.lookup(dump["occupations"])] = dump["amplitudes"]
    state = manybody.ManyBodyState(fock, amps, float(dump["time"]))
    assert state.time == pytest.approx(env.t_final) and last[0] == pytest.approx(env.t_final)

    def energy(t):
        return manybody.expectation(state, manybody.hamiltonian(basis, fock, t)) / 3

    assert last[3] == pytest.approx(energy(env.t_final), rel=1e-9)
    assert abs(energy(0.0) - energy(env.t_final)) > 1e-3


AUX_KEYS = {"poisson_max_relative_residual", "theta_grad_sup_times_eps", "grad_l2_slope",
            "wbar_l1", "b_over_n", "hbar_residual"}


def test_aux_verify(capsys, tmp_path):
    rc = main(["aux-verify", "--n", "1000"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert set(data) == AUX_KEYS
    assert data["poisson_max_relative_residual"] < 1e-3
    # int w-bar = b/N up to the O(mu/eps) spread of the transverse correlation;
    # mu/eps = N^-1/2 at the default beta = 1/2, gamma = 1
    mu_over_eps = 1000.0 ** -0.5
    assert abs(data["wbar_l1"] - data["b_over_n"]) <= mu_over_eps * data["b_over_n"]
    assert data["grad_l2_slope"] == pytest.approx(1.0, abs=0.15)


def test_aux_verify_fails_when_wbar_misses_the_coupling(capsys, monkeypatch):
    from dimred import auxiliary

    quasi1d = auxiliary.quasi1d

    def doubled(scaled, tmode):
        wbar = quasi1d(scaled, tmode)
        return auxiliary.LineFunction(wbar.xs, 2.0 * wbar.values)

    monkeypatch.setattr(auxiliary, "quasi1d", doubled)
    assert main(["aux-verify", "--n", "1000"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["wbar_l1"] == pytest.approx(2.0 * data["b_over_n"], rel=1e-3)


def test_aux_verify_reads_rate_beta1(capsys, monkeypatch, tmp_path):
    from dimred import auxiliary

    seen = []
    build = auxiliary.build_h_bar
    monkeypatch.setattr(auxiliary, "build_h_bar",
                        lambda wbar, beta1, **kw: seen.append(beta1) or build(wbar, beta1, **kw))
    path = tmp_path / "beta1.cfg"
    path.write_text(DEFAULT_CFG.read_text().replace("rate.beta1 = 0.25", "rate.beta1 = 0.2"))
    assert main(["aux-verify", "--config", str(path)]) == 0
    assert seen == [0.2]


@pytest.mark.parametrize("radius", [0.5, 2.0])
def test_aux_verify_grid_resolves_any_interaction_radius(capsys, monkeypatch, tmp_path, radius):
    # one solve on the config's grid at any radius: at R = 0.5 and N = 1000 it
    # puts 0.95 scaled points across mu R / eps, and w-bar still integrates to b/N
    from dimred import transverse

    grids = []
    solve = transverse.solve_modes
    monkeypatch.setattr(transverse, "solve_modes",
                        lambda conf, grid, **kw: grids.append(grid.points) or solve(conf, grid, **kw))
    path = tmp_path / "radius.cfg"
    path.write_text(DEFAULT_CFG.read_text().replace("interaction.radius = 1.0",
                                                    f"interaction.radius = {radius}"))
    assert main(["aux-verify", "--config", str(path)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert grids == [961]
    assert abs(data["wbar_l1"] - data["b_over_n"]) <= 1000.0 ** -0.5 * data["b_over_n"]


def test_sweep_records_n_256_as_a_failed_point(capsys, tmp_path):
    # occupation rows are uint8: N = 256 is a DomainError row, not a crash
    path = tmp_path / "n256.cfg"
    path.write_text(DEFAULT_CFG.read_text().replace("sequence.n_values = 2, 3, 4, 5, 6, 7, 8",
                                                    "sequence.n_values = 128, 255, 256"))
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    assert "2 rows, 1 failures" in capsys.readouterr().out
    lines = (tmp_path / "o" / "sweep.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in lines[2:4]] == ["128", "255"]
    assert lines[4].startswith("# FAILED N=256 eps=0.00390625: DomainError: ")
    assert len(lines) == 5


def test_sweep_command(capsys, sweep_cfg, tmp_path):
    rc = main(["sweep", "--config", str(sweep_cfg)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "2 rows, 0 failures" in out
    csv_path = tmp_path / "out" / "sweep.csv"
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    assert lines[1].startswith("n_particles,epsilon,mu,t,trace_distance")


def test_sweep_prints_the_family_check(capsys, tmp_path):
    assert main(["sweep", "--config", str(DEFAULT_CFG), "--out", str(tmp_path / "o")]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-2].startswith("rate fit: ")
    assert out[-1].startswith("family: admissible=True moderately_confining=True ")
    assert "window=(0.5, inf)" in out[-1]
    # the bound holds loosely: the largest excited_fraction / (envelope * eps) is 0.0438
    assert " 7/7 rows (max ratio " in out[-1]
    ratio = float(out[-1].rsplit("max ratio ", 1)[1].rstrip(")"))
    assert ratio == pytest.approx(0.0438, abs=5e-4)


def test_sweep_skips_the_family_check_on_two_points(capsys, tmp_path):
    # classify needs three points; the sweep itself still succeeds
    path = tmp_path / "two.cfg"
    path.write_text(FAST_SWEEP.replace("sequence.gamma = 1.0\nsequence.n_values = 2, 3",
                                       "sequence.points = 2:0.5, 3:0.3"))
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "2 rows, 0 failures" in out[0]
    assert out[-1].startswith("family check skipped: ")


def test_sweep_survives_gronwall_overflow(capsys, tmp_path):
    # at height 3000 the envelope's exponential overflows at N = 3 (N = 2 stays
    # near 4e288): the row keeps its measured columns and the vacuous bound is inf
    path = tmp_path / "strong.cfg"
    path.write_text(DEFAULT_CFG.read_text()
                    .replace("interaction.height = 3.0", "interaction.height = 3000.0")
                    .replace("sequence.n_values = 2, 3, 4, 5, 6, 7, 8", "sequence.n_values = 2, 3"))
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    assert "2 rows, 0 failures" in capsys.readouterr().out
    header, *rows = (tmp_path / "o" / "sweep.csv").read_text().splitlines()[1:]
    values = [dict(zip(header.split(","), map(float, row.split(",")))) for row in rows]
    assert [v["gronwall"] == math.inf for v in values] == [False, True]
    assert all(math.isfinite(x) for v in values for k, x in v.items() if k != "gronwall")


@pytest.mark.parametrize("key, fraction", [
    ("manybody.m_x = 5", "manybody.m_x = 9.7"),
    ("sequence.n_values = 2, 3", "sequence.n_values = 2.5, 3, 4"),
    ("manybody.d_perp = 1", "manybody.d_perp = 1.9"),
    ("seed = 3", "seed = 3.99"),
], ids=["m_x", "n_values", "d_perp", "seed"])
def test_a_fractional_integer_key_exits_2(capsys, sweep_cfg, tmp_path, key, fraction):
    # refused, not truncated to int(float(value))
    path = tmp_path / "fraction.cfg"
    path.write_text(sweep_cfg.read_text().replace(key, fraction))
    assert main(["sweep", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: key {key.split(' = ')[0]!r}")
    assert "is not an integer" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["sweep", "nls-evolve"])
@pytest.mark.parametrize("key, value", [
    ("time.final", "inf"), ("nls.dt", "nan"), ("manybody.dt", "nan"), ("krylov.tol", "nan"),
    ("sequence.points", "4:inf"),
], ids=["time.final", "nls.dt", "manybody.dt", "krylov.tol", "sequence.points"])
def test_a_non_finite_float_key_exits_2(capsys, sweep_cfg, tmp_path, command, key, value):
    # refused when the config is read: no OverflowError or ValueError
    # traceback, and no run that never reads the step
    path = tmp_path / "nonfinite.cfg"
    kept = [line for line in sweep_cfg.read_text().splitlines() if not line.startswith(key)]
    path.write_text("\n".join(kept) + f"\n{key} = {value}\n")
    assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: key {key!r}") and "is not finite" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["nonfinite.cfg", "sweep.cfg"]


def test_missing_config_exit_code():
    assert main(["sweep", "--config", "/nonexistent/x.cfg"]) == 2


def test_bad_config_exit_code(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("sequence.beta = 0.5\n")  # no sequence given
    assert main(["sweep", "--config", str(bad)]) == 2


def test_size_cap_exit_code(tmp_path):
    cfg = tmp_path / "big.cfg"
    text = FAST_SWEEP.replace("sequence.n_values = 2, 3", "sequence.n_values = 14")
    text = text.replace("manybody.max_excitations = 2", "manybody.dim_cap = 100")
    text = text.replace("manybody.transverse_points = 481",
                        "manybody.transverse_points = 961")
    cfg.write_text(text)
    assert main(["manybody-evolve", "--config", str(cfg), "--n", "14"]) == 3


def test_zero_outputs_is_a_domain_error(capsys, sweep_cfg, tmp_path):
    rc = main(["manybody-evolve", "--config", str(sweep_cfg), "--n", "2",
               "--outputs", "0", "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: n_outputs must be >= 1") and "Traceback" not in err


def test_alpha_reads_capped_dump(capsys, tmp_path):
    # the default modes (27) at N = 6 need the dump's cap 3: untruncated, the
    # rebuilt basis would have 906192 states, over the size cap.  Without a
    # field the dump holds only the rows of total momentum K = 0 and even
    # transverse parity; the harmonic trap modes alternate in parity with m_y.
    rc = main(["manybody-evolve", "--n", "6", "--outputs", "1", "--dump-state",
               "--out", str(tmp_path)])
    assert rc == 0
    dump = np.load(tmp_path / "state_final.npz")
    momentum = dump["occupations"].astype(np.int64) @ dump["mode_kx"]
    parity = dump["occupations"].astype(np.int64) @ (dump["mode_my"] % 2) % 2
    capped = manybody.FockBasis(27, 6, 3).occupations.astype(np.int64)
    sector = sum(int(row @ dump["mode_kx"] == 0 and row @ (dump["mode_my"] % 2) % 2 == 0)
                 for row in capped)
    assert sector == 158 and len(capped) == 3654
    assert int(dump["max_excitations"]) == 3 and dump["occupations"].shape == (sector, 27)
    assert np.all(momentum == 0) and np.all(parity == 0)
    capsys.readouterr()
    assert main(["alpha", str(tmp_path / "state_final.npz")]) == 0
    data = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert len(data["probs"]) == 7
    assert sum(data["probs"]) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("fault", ["repeated row", "extra particle", "missing amplitude",
                                   "no file", "not an npz", "an npy array", "no time",
                                   "no occupations", "no amplitudes", "mode -1", "mode 9"])
def test_alpha_refuses_malformed_dump(capsys, tmp_path, fault):
    fock = manybody.FockBasis(4, 3, 2)
    occupations = fock.occupations.copy()
    amplitudes = np.full(fock.dim - (fault == "missing amplitude"), fock.dim ** -0.5)
    if fault == "repeated row":
        occupations[1] = occupations[0]
    elif fault == "extra particle":
        occupations[0, 0] += 1
    arrays = dict(occupations=occupations, amplitudes=amplitudes, time=0.0,
                  mode_my=np.zeros(4, dtype=np.int64), max_excitations=2)
    arrays.pop(fault.removeprefix("no "), None)
    path = tmp_path / "bad.npz"
    if fault == "not an npz":
        path.write_text("t,norm\n0,1\n")
    elif fault == "an npy array":
        with open(path, "wb") as fh:
            np.save(fh, amplitudes)
    elif fault != "no file":
        np.savez(path, **arrays)
    mode = ["--mode", fault.removeprefix("mode ")] if fault.startswith("mode ") else []
    assert main(["alpha", str(path), *mode]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_manybody_evolve_matches_shared_setup(tmp_path):
    from dimred import harness, scaling

    text = FAST_SWEEP.replace("interaction.profile = uniform_ball",
                              "interaction.profile = gaussian_bump")
    path = tmp_path / "bump.cfg"
    path.write_text(text)
    out = tmp_path / "out"
    rc = main(["manybody-evolve", "--config", str(path), "--n", "3", "--outputs", "1",
               "--dump-state", "--out", str(out)])
    assert rc == 0
    dump = np.load(out / "state_final.npz")
    env = ExperimentConfig.from_text(text)
    assert env.profile_height == 3.0
    point = scaling.make_point(3, 3.0 ** -env.gamma, env.beta)
    setup = harness.point_setup(env, point, harness.sweep_inputs(env))
    profile = setup.basis.scaled.profile
    assert (profile.name, profile.radial_profile(0.0), profile.support_radius) == (
        "gaussian_bump", 3.0, 1.0)
    psi_t = setup.evolve(env, 1).final
    assert np.array_equal(dump["occupations"], setup.psi0.fock.occupations)
    assert np.max(np.abs(dump["amplitudes"] - psi_t.amplitudes)) < 1e-12


def test_manybody_evolve_csv_profile(tmp_path):
    table = tmp_path / "ball.csv"
    table.write_text("# r,w\n0.0,3.0\n0.5,3.0\n1.0,1.0\n")
    path = tmp_path / "table.cfg"
    path.write_text(FAST_SWEEP.replace("interaction.profile = uniform_ball",
                                       f"interaction.profile = {table}"))
    rc = main(["manybody-evolve", "--config", str(path), "--n", "2", "--outputs", "1",
               "--out", str(tmp_path / "out")])
    assert rc == 0
    assert len((tmp_path / "out" / "manybody.csv").read_text().splitlines()) == 3


def test_manybody_evolve_explicit_points(tmp_path):
    path = tmp_path / "points.cfg"
    path.write_text(FAST_SWEEP.replace("sequence.gamma = 1.0\nsequence.n_values = 2, 3",
                                       "sequence.points = 2:0.5, 3:0.3"))
    out = str(tmp_path / "out")
    assert main(["manybody-evolve", "--config", str(path), "--outputs", "1", "--out", out]) == 0
    assert main(["manybody-evolve", "--config", str(path), "--n", "3", "--outputs", "1",
                 "--out", out]) == 0
    # N = 4 is not listed, so its epsilon must be given
    assert main(["manybody-evolve", "--config", str(path), "--n", "4", "--out", out]) == 2
    assert main(["manybody-evolve", "--config", str(path), "--n", "4", "--epsilon", "0.3",
                 "--outputs", "1", "--out", out]) == 0


def test_aux_verify_uses_config_profile(capsys, tmp_path):
    path = tmp_path / "bump.cfg"
    path.write_text("sequence.beta = 0.5\nsequence.gamma = 1.0\nsequence.n_values = 2\n"
                    "interaction.profile = gaussian_bump\n")
    assert main(["aux-verify", "--config", str(path)]) == 0
    bump = json.loads(capsys.readouterr().out)
    assert main(["aux-verify"]) == 0
    ball = json.loads(capsys.readouterr().out)
    assert bump["wbar_l1"] < 0.5 * ball["wbar_l1"]


def coupling_per_particle(cfg_path) -> float:
    """b/N at aux-verify's default point N = 1000 in the config's 1-d trap.

    The oracle for w-bar's L1 norm: int w-bar = intint w_scaled(x, u) T(u) du dx,
    which is int w_scaled * int |chi^eps|^4 = b/N up to the O(mu/eps) spread of T.
    """
    from dimred import potentials, scaling, transverse

    env = ExperimentConfig.from_file(cfg_path)
    point = scaling.make_point(1000, 1000.0 ** -env.gamma, env.beta)
    grid = transverse.TransverseGrid(env.transverse_extent, env.transverse_points)
    mode = transverse.solve_modes(potentials.confinement_by_name(env.confinement_name, 1), grid, 2)
    profile = potentials.profile_by_name(env.profile_name, env.profile_height, env.profile_radius)
    b = potentials.effective_coupling(potentials.scale(profile, point, 1),
                                      mode.quartic / point.epsilon)
    return b / point.n_particles


def test_aux_verify_uses_config_trap(capsys, tmp_path):
    path = tmp_path / "soft.cfg"
    path.write_text(DEFAULT_CFG.read_text().replace("confinement.name = harmonic",
                                                    "confinement.name = softened"))
    assert main(["aux-verify", "--config", str(path)]) == 0
    soft = json.loads(capsys.readouterr().out)
    assert main(["aux-verify", "--config", str(DEFAULT_CFG)]) == 0
    harmonic = json.loads(capsys.readouterr().out)
    assert harmonic["wbar_l1"] == pytest.approx(coupling_per_particle(DEFAULT_CFG), rel=1e-3)
    assert soft["wbar_l1"] == pytest.approx(coupling_per_particle(path), rel=1e-3)
    # only the quasi-1d quantities see the trap
    trapped = {"wbar_l1", "b_over_n", "hbar_residual"}
    assert {k: v for k, v in soft.items() if k not in trapped} == {
        k: v for k, v in harmonic.items() if k not in trapped}


def test_verify_all_seed_falls_back_to_default_table(monkeypatch, tmp_path):
    from dimred import harness

    seeds = []
    monkeypatch.setattr(harness, "verify_all",
                        lambda seed: seeds.append(seed) or harness.VerificationReport())
    path = tmp_path / "noseed.cfg"
    path.write_text("sequence.beta = 0.5\n")
    assert main(["verify-all", "--config", str(path)]) == 0
    seeded = tmp_path / "seed.cfg"
    seeded.write_text("seed = 4\n")
    assert main(["verify-all", "--config", str(seeded)]) == 0
    assert seeds == [12345, 4]


def test_verify_all_refuses_a_negative_seed(capsys, monkeypatch, tmp_path):
    from dimred import harness

    monkeypatch.setattr(harness, "verify_all", lambda seed: pytest.fail("ran verify_all"))
    path = tmp_path / "negative.cfg"
    path.write_text("sequence.beta = 0.5\nseed = -3\n")
    assert main(["verify-all", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: seed must be >= 0") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["sweep", "--seed", "1"],
    ["alpha", "state.npz", "--config", "x.cfg"],
    ["alpha", "state.npz", "--out", "o"],
    ["aux-verify", "--out", "o"],
    ["transverse", "--seed", "1"],
    ["verify-all", "--seed", "1"],
    ["nls-evolve", "--points", "64"],
    ["nls-evolve", "--dt", "0.01"],
    ["nls-evolve", "--t-final", "1"],
    ["nls-evolve", "--potential", "gaussian_well"],
])
def test_unread_flags_are_argparse_errors(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["nls-evolve", "--length", "inf"],
    ["nls-evolve", "--b", "nan"],
    ["nls-evolve", "--width", "nan"],
    ["manybody-evolve", "--epsilon", "inf"],
    ["alpha", "state.npz", "--xi", "nan"],
    ["alpha", "state.npz", "--energy-gap", "inf"],
], ids=["length", "b", "width", "epsilon", "xi", "energy-gap"])
def test_a_non_finite_float_flag_exits_2(capsys, argv):
    # the config's finiteness rule: refused by argparse, before any work, not
    # printed as NaN or Infinity nor run into an InstabilityError
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {argv[-2]}: '{argv[-1]}' is not finite" in capsys.readouterr().err


def test_nls_evolve_names_why_a_nan_coupling_is_refused(capsys):
    # argparse prints the finiteness rule's own reason, not "invalid _float value"
    with pytest.raises(SystemExit) as exc:
        main(["nls-evolve", "--b", "nan"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith("dimred nls-evolve: error: argument --b: 'nan' is not finite\n")
    assert "_float" not in err


def test_nls_evolve_refuses_a_zero_width(capsys, tmp_path):
    cfg = tmp_path / "nls.cfg"
    cfg.write_text("nls.points = 64\ntime.final = 0.01\n")
    assert main(["nls-evolve", "--config", str(cfg), "--out", str(tmp_path / "o"),
                 "--width", "0"]) == 1
    assert capsys.readouterr().err == "error: width must be > 0, got 0.0\n"
    assert list(tmp_path.iterdir()) == [cfg]
