import json
import struct

import numpy as np
import pytest

from dimred import manybody
from dimred.cli import main

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
    cfg.write_text("confinement.name = harmonic\nconfinement.dimension = 1\n"
                   "transverse.extent = 9.0\ntransverse.points = 2001\n")
    rc = main(["transverse", "--config", str(cfg)])
    assert rc == 0
    data = json.loads(capsys.readouterr().out.splitlines()[0])
    assert data["energy0"] == pytest.approx(1.0, abs=1e-4)
    assert data["gap"] == pytest.approx(2.0, abs=1e-3)


def test_transverse_csv_dump(capsys, tmp_path):
    cfg = tmp_path / "t.cfg"
    cfg.write_text("confinement.dimension = 1\ntransverse.points = 501\n"
                   "transverse.extent = 7.0\n")
    rc = main(["transverse", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 0
    lines = (tmp_path / "o" / "chi.csv").read_text().splitlines()
    assert lines[0] == "y,chi"
    assert len(lines) == 502


def test_nls_evolve_outputs(tmp_path):
    rc = main(["nls-evolve", "--out", str(tmp_path), "--points", "64",
               "--length", "25.13", "--dt", "0.002", "--t-final", "0.2",
               "--b", "1.0", "--initial", "gaussian", "--dump-state"])
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
    from dimred.config import Config, ExperimentConfig

    text = FAST_SWEEP.replace("external.name = zero", "external.name = driven_well")
    path = tmp_path / "driven.cfg"
    path.write_text(text)
    out = tmp_path / "out"
    rc = main(["manybody-evolve", "--config", str(path), "--n", "3",
               "--outputs", "2", "--dump-state", "--out", str(out)])
    assert rc == 0
    last = [float(v) for v in (out / "manybody.csv").read_text().splitlines()[-1].split(",")]
    env = ExperimentConfig.from_config(Config.from_text(text))
    point = scaling.make_point(3, 3.0 ** -env.gamma, env.beta)
    conf = potentials.with_dimension(potentials.confinement_by_name("harmonic"), 1)
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


def test_aux_verify(capsys, tmp_path):
    rc = main(["aux-verify", "--n", "1000"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["poisson_max_relative_residual"] < 1e-3
    assert data["theta_midpoint"] == pytest.approx(0.5, abs=1e-12)
    assert data["grad_sup_slope"] == pytest.approx(1.0, abs=0.15)
    assert data["hbar_boundary"] < 1e-10


def test_sweep_command(capsys, sweep_cfg, tmp_path):
    rc = main(["sweep", "--config", str(sweep_cfg)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "2 rows, 0 failures" in out
    csv_path = tmp_path / "out" / "sweep.csv"
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    assert lines[1].startswith("n_particles,epsilon,mu,t,trace_distance")


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


def test_alpha_reads_capped_dump(capsys, tmp_path):
    # the default modes (27) at N = 6 need the dump's cap 3: untruncated, the
    # rebuilt basis would have 906192 states, over the size cap.  Without a
    # field the dump holds only the rows of total momentum K = 0.
    rc = main(["manybody-evolve", "--n", "6", "--outputs", "1", "--dump-state",
               "--out", str(tmp_path)])
    assert rc == 0
    dump = np.load(tmp_path / "state_final.npz")
    momentum = dump["occupations"].astype(np.int64) @ dump["mode_kx"]
    capped = manybody.FockBasis(27, 6, 3).occupations.astype(np.int64)
    sector = sum(int(row @ dump["mode_kx"] == 0) for row in capped)
    assert sector == 298 and len(capped) == 3654
    assert int(dump["max_excitations"]) == 3 and dump["occupations"].shape == (sector, 27)
    assert np.all(momentum == 0)
    capsys.readouterr()
    assert main(["alpha", str(tmp_path / "state_final.npz")]) == 0
    data = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert len(data["probs"]) == 7
    assert sum(data["probs"]) == pytest.approx(1.0, abs=1e-9)


def test_manybody_evolve_matches_shared_setup(tmp_path):
    from dimred import harness, scaling
    from dimred.config import Config, ExperimentConfig

    text = FAST_SWEEP.replace("interaction.profile = uniform_ball",
                              "interaction.profile = gaussian_bump")
    path = tmp_path / "bump.cfg"
    path.write_text(text)
    out = tmp_path / "out"
    rc = main(["manybody-evolve", "--config", str(path), "--n", "3", "--outputs", "1",
               "--dump-state", "--out", str(out)])
    assert rc == 0
    dump = np.load(out / "state_final.npz")
    env = ExperimentConfig.from_config(Config.from_text(text))
    assert env.profile_height == 3.0
    point = scaling.make_point(3, 3.0 ** -env.gamma, env.beta)
    setup = harness.point_setup(env, point, harness.sweep_inputs(env))
    profile = setup.basis.scaled.profile
    assert (profile.name, profile.sup_bound, profile.support_radius) == ("gaussian_bump", 3.0, 1.0)
    psi_t = setup.evolve(env, 1).final
    assert np.array_equal(dump["occupations"], setup.fock.occupations)
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


@pytest.mark.slow
def test_aux_verify_uses_config_profile(capsys, tmp_path):
    path = tmp_path / "bump.cfg"
    path.write_text("sequence.beta = 0.5\nsequence.gamma = 1.0\nsequence.n_values = 2\n"
                    "interaction.profile = gaussian_bump\n")
    assert main(["aux-verify", "--config", str(path)]) == 0
    bump = json.loads(capsys.readouterr().out)
    assert main(["aux-verify"]) == 0
    ball = json.loads(capsys.readouterr().out)
    assert bump["wbar_l1"] < 0.5 * ball["wbar_l1"]


def test_verify_all_seed_falls_back_to_default_table(monkeypatch, tmp_path):
    from dimred import harness

    seeds = []
    monkeypatch.setattr(harness, "verify_all",
                        lambda seed: seeds.append(seed) or harness.VerificationReport())
    path = tmp_path / "noseed.cfg"
    path.write_text("sequence.beta = 0.5\n")
    assert main(["verify-all", "--config", str(path)]) == 0
    assert main(["verify-all", "--seed", "4"]) == 0
    assert seeds == [12345, 4]


@pytest.mark.parametrize("argv", [
    ["sweep", "--seed", "1"],
    ["alpha", "state.npz", "--config", "x.cfg"],
    ["alpha", "state.npz", "--out", "o"],
    ["aux-verify", "--out", "o"],
    ["transverse", "--seed", "1"],
])
def test_unread_flags_are_argparse_errors(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
