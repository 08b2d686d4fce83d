"""Command-line interface.

    dimred transverse|nls-evolve|manybody-evolve|alpha|aux-verify|sweep|verify-all
           [command flags]

Each command accepts only the flags it reads (README, "CLI").  A config key
the file leaves out takes its value from config.DEFAULT_CONFIG_TEXT.

Exit codes: 0 success, 1 assertion/verification failure, 2 configuration
error, 3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import struct
import sys

import numpy as np

from . import auxiliary, harness, manybody, nls, potentials, projectors, scaling, transverse
from .config import DEFAULT_CONFIG_TEXT, Config, ExperimentConfig
from .errors import ConfigError, DimredError, SizeError


def _add_common(p, out: bool = True):
    p.add_argument("--config", help="key=value config file")
    if out:
        p.add_argument("--out", default=None, help="output directory")


def _load_config(args) -> Config:
    return Config.from_file(args.config) if args.config else Config.from_text(DEFAULT_CONFIG_TEXT)


def _outdir(args, cfg: Config) -> str:
    out = args.out or cfg.get("output.dir")
    os.makedirs(out, exist_ok=True)
    return out


def _point(env: ExperimentConfig, n: int | None, epsilon: float | None) -> scaling.ScalingPoint:
    """The point of --n/--epsilon.  Without --n: N of the config's first
    sequence point; without --epsilon: N^-gamma, or the listed point's epsilon."""
    listed = {p.n_particles: p.epsilon for p in env.points()}
    n = env.points()[0].n_particles if n is None else n
    if epsilon is None and env.gamma is None and n not in listed:
        raise ConfigError(f"--epsilon is needed: N = {n} is not in sequence.points")
    if epsilon is None:
        epsilon = float(n) ** -env.gamma if env.gamma is not None else listed[n]
    return scaling.make_point(n, epsilon, env.beta)


def cmd_transverse(args) -> int:
    cfg = _load_config(args)
    dim = cfg.get_int("confinement.dimension", 1)
    conf = potentials.with_dimension(
        potentials.confinement_by_name(cfg.get("confinement.name")), dim)
    extent = cfg.get_float("transverse.extent", 9.0 if dim == 1 else 6.5)
    points = cfg.get_int("transverse.points", 4001 if dim == 1 else 421)
    mode = transverse.solve_modes(conf, transverse.TransverseGrid(extent, points), 2)
    print(json.dumps({"energy0": mode.energy0, "gap": mode.gap, "quartic": mode.quartic}))
    if args.out:
        out = _outdir(args, cfg)
        path = os.path.join(out, "chi.csv")
        with open(path, "w") as fh:
            if dim == 1:
                fh.write("y,chi\n")
                for y, c in zip(mode.axis, mode.chi):
                    fh.write(f"{y:.17g},{c:.17g}\n")
            else:
                fh.write("y1,y2,chi\n")
                for i, y1 in enumerate(mode.axis):
                    for j, y2 in enumerate(mode.axis):
                        fh.write(f"{y1:.17g},{y2:.17g},{mode.chi[i, j]:.17g}\n")
        print(f"wrote {path}")
    return 0


def cmd_nls_evolve(args) -> int:
    cfg = _load_config(args)
    length = args.length if args.length is not None else cfg.get_float("nls.length", 16 * math.pi)
    points = args.points if args.points is not None else cfg.get_int("nls.points")
    dt = args.dt if args.dt is not None else cfg.get_float("nls.dt")
    t_final = args.t_final if args.t_final is not None else cfg.get_float("time.final")
    b = args.b if args.b is not None else cfg.get_float("nls.b", 1.0)
    pot_name = args.potential or cfg.get("external.name")
    external = None if pot_name == "zero" else potentials.external_by_name(pot_name)
    grid = nls.Grid1D(length, points)
    if args.initial == "plane":
        state = nls.plane_wave(grid, args.mode)
    else:
        state = nls.gaussian_state(grid, width=args.width)
    traj = nls.evolve(state, external, b, dt, t_final, n_outputs=args.outputs)
    out = _outdir(args, cfg)
    path = os.path.join(out, "nls.csv")
    with open(path, "w") as fh:
        fh.write("t,l2,h1,h2,sup,energy\n")
        for s in traj.states:
            r = nls.norm_report(s)
            en = nls.effective_energy(s, external, b)
            fh.write(f"{s.time:.17g},{r.l2:.17g},{r.h1:.17g},{r.h2:.17g},"
                     f"{r.sup:.17g},{en:.17g}\n")
    print(f"wrote {path}")
    if args.dump_state:
        spath = os.path.join(out, "phi_final.bin")
        with open(spath, "wb") as fh:
            fh.write(struct.pack("<Id", points, length))
            fh.write(traj.final.values.astype("<c8").tobytes())
        print(f"wrote {spath}")
    return 0


def cmd_manybody_evolve(args) -> int:
    cfg = _load_config(args)
    env = ExperimentConfig.from_config(cfg)
    point = _point(env, args.n, args.epsilon)
    setup = harness.point_setup(env, point, harness.sweep_inputs(env))
    basis, fock = setup.basis, setup.fock
    traj = setup.evolve(env, args.outputs)
    out = _outdir(args, cfg)
    path = os.path.join(out, "manybody.csv")
    proj = projectors.basis_mode_projector(basis.n_modes, 0, basis.mode_my)
    with open(path, "w") as fh:
        fh.write("t,norm,energy,E_renormalized,condensate_fraction,"
                 "trace_distance_to_condensate\n")
        for s in traj.states:
            e_ren = manybody.renormalized_energy(s, basis, s.time, h=setup.hamiltonian(s.time))
            e_abs = e_ren + basis.e0_scaled
            occ = manybody.number_expectations(s)
            frac = occ[0] / fock.n_particles
            gamma = manybody.reduced_density(s, 1).matrix
            p = np.outer(proj.coeffs, np.conj(proj.coeffs))
            td = projectors.trace_distance(gamma, p)
            fh.write(f"{s.time:.17g},{s.norm:.17g},{e_abs:.17g},{e_ren:.17g},"
                     f"{frac:.17g},{td:.17g}\n")
    print(f"wrote {path}")
    if args.dump_state:
        spath = os.path.join(out, "state_final.npz")
        np.savez(spath, occupations=traj.final.fock.occupations,
                 amplitudes=traj.final.amplitudes, time=traj.final.time,
                 mode_kx=basis.mode_kx, mode_my=basis.mode_my,
                 box_length=basis.box_length, epsilon=point.epsilon,
                 max_excitations=fock.max_excitations)
        print(f"wrote {spath}")
    return 0


def cmd_alpha(args) -> int:
    data = np.load(args.state)
    occupations = data["occupations"]
    amplitudes = data["amplitudes"]
    n_modes = occupations.shape[1]
    n_particles = int(occupations[0].sum())
    max_exc = int(data["max_excitations"]) if "max_excitations" in data else None
    fock = manybody.FockBasis(n_modes, n_particles, max_exc)
    # align the dump with the freshly enumerated (sorted) basis
    idx = fock.lookup(occupations)
    amps = np.zeros(fock.dim, dtype=complex)
    amps[idx] = amplitudes
    state = manybody.ManyBodyState(fock, amps, float(data["time"]))
    mode_my = data["mode_my"] if "mode_my" in data else np.zeros(n_modes, dtype=np.int64)
    proj = projectors.basis_mode_projector(n_modes, args.mode, mode_my)
    dist = projectors.counting_distribution(state, proj)
    a_n2 = projectors.alpha(state, projectors.make_weight("n2", n_particles), proj)
    a_xi = projectors.alpha_xi(state, proj, args.energy_gap, 0.0, args.xi)
    bridge = projectors.rate_bridge(state, proj)
    print(json.dumps({
        "alpha_n2": a_n2,
        "alpha_m": a_xi.alpha_m,
        "alpha_xi": a_xi.total,
        "trace_distance": bridge.trace_dist,
        "sandwich_holds": bridge.holds,
        "probs": dist.probs.tolist(),
    }))
    return 0


def cmd_aux_verify(args) -> int:
    env = ExperimentConfig.from_config(_load_config(args))
    beta = env.beta
    point = _point(env, args.n, args.epsilon)
    profile = harness.interaction_profile(env)
    scaled = potentials.scale(profile, point)
    report = {}
    h_uni = auxiliary.build_h_epsilon(scaled, n_samples=4096, grid="uniform")
    poisson = auxiliary.verify_poisson(h_uni, scaled)
    report["poisson_max_relative_residual"] = poisson.max_relative_residual
    report["h_boundary_value"] = poisson.boundary_value
    _, trep = auxiliary.theta(scaled.range, point.epsilon)
    report["theta_midpoint"] = trep.midpoint
    report["theta_grad_sup_times_eps"] = trep.grad_sup * point.epsilon
    # the sup-gradient predictor is constant at beta = 1/2 (both sides scale
    # as (N/eps^2)^0); run the regression diagnostic at a non-degenerate beta
    beta_fit = beta if abs(beta - 0.5) > 0.01 else 0.4
    seq = [scaling.make_point(m, float(m) ** -1.0, beta_fit)
           for m in (10**3, 10**4, 10**5, 10**6)]
    fit = auxiliary.gradient_scaling_fit(seq, profile)
    report["grad_fit_beta"] = beta_fit
    report["grad_sup_slope"] = fit.sup_fit.slope
    report["grad_l2_slope"] = fit.l2_fit.slope
    conf = potentials.harmonic_confinement(dimension=1)
    # unscaled spacing must resolve the interaction range after rescaling:
    # spacing <= (mu/eps)/10 in units of the unscaled axis
    extent = 8.0
    needed = int(min(max(481, 20.0 * extent / (point.mu_over_eps / scaled.profile.support_radius)),
                     20001))
    tgrid = transverse.TransverseGrid(extent, needed | 1)
    unscaled = transverse.solve_modes(conf, tgrid, 2)
    tmode = transverse.rescale(unscaled, point.epsilon)
    wbar = auxiliary.quasi1d(scaled, tmode)
    report["wbar_evenness"] = wbar.evenness_defect()
    report["wbar_l1"] = wbar.l1()
    hbar, _, hrep = auxiliary.build_h_bar(wbar, beta1=beta / 2.0,
                                          n_particles=point.n_particles, mu=scaled.range)
    report["hbar_boundary"] = max(hrep.boundary_left, hrep.boundary_right)
    report["hbar_sup_slope"] = hrep.sup_slope
    report["hbar_wbar_l1"] = hrep.wbar_l1
    report["green_symmetry"] = hrep.green_symmetry
    print(json.dumps(report, indent=2))
    ok = (poisson.max_relative_residual < 1e-3
          and abs(trep.midpoint - 0.5) < 1e-12
          and abs(fit.sup_fit.slope - 1.0) < 0.15)
    return 0 if ok else 1


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
    env = ExperimentConfig.from_config(cfg)
    out = _outdir(args, cfg)
    path = os.path.join(out, "sweep.csv")
    result = harness.run_sweep(env, out_path=path)
    print(f"wrote {path} ({len(result.rows)} rows, {len(result.failures)} failures)")
    for failure in result.failures:
        print(f"  FAILED N={failure[0]} eps={failure[1]}: {failure[2]}: {failure[3]}")
    if len(result.rows) >= 4:
        try:
            fit = harness.fit_rate(result.rows)
            print(f"rate fit: constant={fit.constant:.4g} slope={fit.slope:.4g} "
                  f"r2={fit.r_squared:.4g}")
        except DimredError as exc:
            print(f"rate fit skipped: {exc}")
    return 0 if result.ok else 1


def cmd_verify_all(args) -> int:
    cfg = _load_config(args)
    seed = args.seed if args.seed is not None else cfg.get_int("seed")
    report = harness.verify_all(seed=seed)
    print(json.dumps(report.as_dict(), indent=2))
    if args.out:
        out = _outdir(args, cfg)
        with open(os.path.join(out, "verify.json"), "w") as fh:
            json.dump(report.as_dict(), fh, indent=2)
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="dimred",
                                 description="quasi-1D condensate dynamics laboratory")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transverse", help="solve the confined eigenproblem")
    _add_common(p)
    p.set_defaults(fn=cmd_transverse)

    p = sub.add_parser("nls-evolve", help="run the effective 1D equation")
    _add_common(p)
    p.add_argument("--length", type=float, default=None)
    p.add_argument("--points", type=int, default=None)
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--t-final", dest="t_final", type=float, default=None)
    p.add_argument("--b", type=float, default=None)
    p.add_argument("--potential", default=None)
    p.add_argument("--initial", choices=["gaussian", "plane"], default="gaussian")
    p.add_argument("--width", type=float, default=2.0)
    p.add_argument("--mode", type=int, default=0)
    p.add_argument("--outputs", type=int, default=10)
    p.add_argument("--dump-state", action="store_true")
    p.set_defaults(fn=cmd_nls_evolve)

    p = sub.add_parser("manybody-evolve", help="run the N-boson dynamics")
    _add_common(p)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--outputs", type=int, default=5)
    p.add_argument("--dump-state", action="store_true")
    p.set_defaults(fn=cmd_manybody_evolve)

    p = sub.add_parser("alpha", help="counting functionals of a state dump")
    p.add_argument("state", help="state .npz produced by manybody-evolve")
    p.add_argument("--mode", type=int, default=0, help="condensate basis mode")
    p.add_argument("--xi", type=float, default=0.1)
    p.add_argument("--energy-gap", dest="energy_gap", type=float, default=0.0)
    p.set_defaults(fn=cmd_alpha)

    p = sub.add_parser("aux-verify", help="integration-by-parts battery")
    _add_common(p, out=False)
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--epsilon", type=float, default=None)
    p.set_defaults(fn=cmd_aux_verify)

    p = sub.add_parser("sweep", help="convergence sweep over a scaling sequence")
    _add_common(p)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("verify-all", help="cross-module verification battery")
    _add_common(p)
    p.add_argument("--seed", type=int, default=None, help="RNG seed override")
    p.set_defaults(fn=cmd_verify_all)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except SizeError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 3
    except DimredError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
