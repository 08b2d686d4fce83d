"""Command-line interface.

    dimred transverse|nls-evolve|manybody-evolve|alpha|aux-verify|sweep|verify-all
           [command flags]

Each command accepts only the flags it reads (README, "CLI").  Every command
reads its settings from the typed ``config.ExperimentConfig`` (the default
table without --config) and names no config key itself.  A command that reads
the scaling sequence or a rate input calls ``ExperimentConfig.points()``
before any work, so an incomplete sequence exits 2 before anything is written.

Exit codes: 0 success, 1 assertion/verification failure, 2 configuration
error, 3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import struct
import sys

import numpy as np

from . import auxiliary, harness, manybody, nls, potentials, projectors, scaling, transverse
from .config import DEFAULTS, ExperimentConfig, _float
from .errors import ConfigError, DimredError, DomainError, SizeError


def _float_flag(raw: str) -> float:
    """``config._float`` as an argparse type: a refused flag prints its reason."""
    try:
        return _float(raw)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_common(p, out: bool = True):
    p.add_argument("--config", help="key=value config file")
    if out:
        p.add_argument("--out", default=None, help="output directory")


def _load_config(args) -> ExperimentConfig:
    return ExperimentConfig.from_file(args.config) if args.config else DEFAULTS


def _outdir(args, env: ExperimentConfig) -> str:
    out = args.out or env.output_dir
    os.makedirs(out, exist_ok=True)
    return out


def _point(env: ExperimentConfig, n: int | None, epsilon: float | None) -> scaling.ScalingPoint:
    """The point of --n/--epsilon.  Without --n: N of the config's first
    sequence point; without --epsilon: N^-gamma, or the listed point's epsilon."""
    points = env.points()
    listed = {p.n_particles: p.epsilon for p in points}
    n = points[0].n_particles if n is None else n
    if epsilon is None and env.gamma is None and n not in listed:
        raise ConfigError(f"--epsilon is needed: N = {n} is not in sequence.points")
    if epsilon is None:
        epsilon = float(n) ** -env.gamma if env.gamma is not None else listed[n]
    return scaling.make_point(n, epsilon, env.beta)


def cmd_transverse(args) -> int:
    """The unscaled transverse mode on the config's grid, the one every sweep
    point of the config rescales (``harness.sweep_inputs``)."""
    env = _load_config(args)
    mode = harness.sweep_inputs(env).unscaled_mode
    print(json.dumps({"energy0": mode.energy0, "gap": mode.gap, "quartic": mode.quartic}))
    if args.out:
        path = os.path.join(_outdir(args, env), "chi.csv")
        with open(path, "w") as fh:
            if mode.dimension == 1:
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
    env = _load_config(args)
    external = potentials.external_by_name(env.external_name)
    grid = nls.Grid1D(args.length, env.nls_points)
    if args.initial == "plane":
        state = nls.plane_wave(grid, args.mode)
    else:
        state = nls.gaussian_state(grid, width=args.width)
    traj = nls.evolve(state, external, args.b, env.nls_dt, env.t_final, n_outputs=args.outputs)
    out = _outdir(args, env)
    path = os.path.join(out, "nls.csv")
    with open(path, "w") as fh:
        fh.write("t,l2,h1,h2,sup,energy\n")
        for s in traj.states:
            r = nls.norm_report(s)
            en = nls.effective_energy(s, external, args.b)
            fh.write(f"{s.time:.17g},{r.l2:.17g},{r.h1:.17g},{r.h2:.17g},"
                     f"{r.sup:.17g},{en:.17g}\n")
    print(f"wrote {path}")
    if args.dump_state:
        spath = os.path.join(out, "phi_final.bin")
        with open(spath, "wb") as fh:
            fh.write(struct.pack("<Id", env.nls_points, args.length))
            fh.write(traj.final.values.astype("<c8").tobytes())
        print(f"wrote {spath}")
    return 0


def cmd_manybody_evolve(args) -> int:
    env = _load_config(args)
    point = _point(env, args.n, args.epsilon)
    setup = harness.point_setup(env, point, harness.sweep_inputs(env))
    basis = setup.basis
    traj = setup.evolve(env, args.outputs)
    out = _outdir(args, env)
    path = os.path.join(out, "manybody.csv")
    proj = projectors.basis_mode_projector(basis.n_modes)
    with open(path, "w") as fh:
        fh.write("t,norm,energy,E_renormalized,condensate_fraction,"
                 "trace_distance_to_condensate\n")
        for s, e_ren in zip(traj.states, traj.energies):
            e_abs = e_ren + basis.e0_scaled
            bridge = projectors.rate_bridge(manybody.reduced_density(s, 1).matrix, proj)
            fh.write(f"{s.time:.17g},{s.norm:.17g},{e_abs:.17g},{e_ren:.17g},"
                     f"{1.0 - bridge.alpha_n2:.17g},{bridge.trace_dist:.17g}\n")
    print(f"wrote {path}")
    if args.dump_state:
        spath = os.path.join(out, "state_final.npz")
        np.savez(spath, occupations=traj.final.fock.occupations,
                 amplitudes=traj.final.amplitudes, time=traj.final.time,
                 mode_kx=basis.mode_kx, mode_my=basis.mode_my,
                 box_length=basis.box_length, epsilon=point.epsilon,
                 max_excitations=env.max_excitations)
        print(f"wrote {spath}")
    return 0


def cmd_alpha(args) -> int:
    try:
        with np.load(args.state) as data:
            time = float(data["time"])
            occupations, amplitudes = data["occupations"], data["amplitudes"]
    except (OSError, EOFError, KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"cannot read state dump {args.state!r}: {exc}") from exc
    fock = manybody.FockBasis.from_rows(occupations)
    if amplitudes.shape != (fock.dim,):
        raise DomainError(f"dump holds {amplitudes.shape} amplitudes for {fock.dim} rows")
    amps = np.zeros(fock.dim, dtype=complex)
    amps[fock.lookup(occupations)] = amplitudes
    state = manybody.ManyBodyState(fock, amps, time)
    proj = projectors.basis_mode_projector(fock.n_modes, args.mode)
    dist = projectors.counting_distribution(state, proj)
    a_m = float(np.sum(projectors.make_weight("m", fock.n_particles, args.xi) * dist.probs))
    bridge = projectors.rate_bridge(manybody.reduced_density(state, 1).matrix, proj)
    print(json.dumps({
        "alpha_n2": bridge.alpha_n2,
        "alpha_m": a_m,
        "alpha_xi": a_m + abs(args.energy_gap),
        "trace_distance": bridge.trace_dist,
        "sandwich_holds": bridge.holds,
        "probs": dist.probs.tolist(),
    }))
    return 0


def cmd_aux_verify(args) -> int:
    """The auxiliary objects at the config's point, in the config's trap on the
    config's grid, solved in one transverse dimension: exit 1 unless the Poisson
    residual of h_eps is below 1e-3 and int w-bar is b/N to within the
    paper's O(mu/eps)."""
    env = _load_config(args)
    point = _point(env, args.n, args.epsilon)
    inputs = harness.sweep_inputs(dataclasses.replace(env, d_perp=1))
    scaled = potentials.scale(inputs.profile, point)
    report = {}
    h_uni = auxiliary.build_h_epsilon(scaled, n_samples=4096)
    poisson = auxiliary.verify_poisson(h_uni, scaled)
    report["poisson_max_relative_residual"] = poisson
    grad_sup = auxiliary.theta(scaled.range, point.epsilon)
    report["theta_grad_sup_times_eps"] = grad_sup * point.epsilon
    seq = [scaling.make_point(m, float(m) ** -1.0, env.beta)
           for m in (10**3, 10**4, 10**5, 10**6)]
    report["grad_l2_slope"] = auxiliary.gradient_scaling_fit(seq, inputs.profile).slope
    tmode = transverse.rescale(inputs.unscaled_mode, point.epsilon)
    trapped = potentials.scale(inputs.profile, point, 1)
    wbar = auxiliary.quasi1d(trapped, tmode)
    wbar_l1 = wbar.l1()
    b_over_n = inputs.b_eff / point.n_particles
    report["wbar_l1"] = wbar_l1
    report["b_over_n"] = b_over_n
    report["hbar_residual"] = auxiliary.build_h_bar(wbar, beta1=env.beta1,
                                                    n_particles=point.n_particles).residual
    print(json.dumps(report, indent=2))
    ok = poisson < 1e-3 and abs(wbar_l1 - b_over_n) <= point.mu_over_eps * b_over_n
    return 0 if ok else 1


def cmd_sweep(args) -> int:
    env = _load_config(args)
    path = os.path.join(args.out or env.output_dir, "sweep.csv")
    result = harness.run_sweep(env, out_path=path)
    print(f"wrote {path} ({len(result.rows)} rows, {len(result.failures)} failures)")
    for failure in result.failures:
        print(f"  FAILED N={failure[0]} eps={failure[1]}: {failure[2]}: {failure[3]}")
    if len(result.rows) >= 4:
        try:
            fit = harness.fit_rate(result.rows)
            print(f"rate fit: constant={math.exp(fit.log_constant):.4g} slope={fit.slope:.4g} "
                  f"r2={fit.r_squared:.4g}")
        except DimredError as exc:
            print(f"rate fit skipped: {exc}")
    try:
        verdict = scaling.classify(env.points())
        low, high = scaling.power_law_window(env.beta)
        bounded = sum(r.excited_fraction <= r.envelope * r.epsilon for r in result.rows)
        ratio = max((r.excited_fraction / (r.envelope * r.epsilon) for r in result.rows),
                    default=math.nan)
        print(f"family: admissible={verdict.admissible} "
              f"moderately_confining={verdict.moderately_confining} "
              f"gamma={env.gamma} window=({low:g}, {high:g}) "
              f"excited_fraction<=envelope*eps: {bounded}/{len(result.rows)} rows "
              f"(max ratio {ratio:.3g})")
    except DimredError as exc:
        print(f"family check skipped: {exc}")
    return 0 if result.ok else 1


def cmd_verify_all(args) -> int:
    env = _load_config(args)
    report = harness.verify_all(seed=env.seed)
    print(json.dumps(report.as_dict(), indent=2))
    if args.out:
        out = _outdir(args, env)
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
    p.add_argument("--length", type=_float_flag, default=16 * math.pi)
    p.add_argument("--b", type=_float_flag, default=1.0)
    p.add_argument("--initial", choices=["gaussian", "plane"], default="gaussian")
    p.add_argument("--width", type=_float_flag, default=2.0)
    p.add_argument("--mode", type=int, default=0)
    p.add_argument("--outputs", type=int, default=10)
    p.add_argument("--dump-state", action="store_true")
    p.set_defaults(fn=cmd_nls_evolve)

    p = sub.add_parser("manybody-evolve", help="run the N-boson dynamics")
    _add_common(p)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--epsilon", type=_float_flag, default=None)
    p.add_argument("--outputs", type=int, default=5)
    p.add_argument("--dump-state", action="store_true")
    p.set_defaults(fn=cmd_manybody_evolve)

    p = sub.add_parser("alpha", help="counting functionals of a state dump")
    p.add_argument("state", help="state .npz produced by manybody-evolve")
    p.add_argument("--mode", type=int, default=0, help="condensate basis mode")
    p.add_argument("--xi", type=_float_flag, default=DEFAULTS.xi)
    p.add_argument("--energy-gap", dest="energy_gap", type=_float_flag, default=0.0)
    p.set_defaults(fn=cmd_alpha)

    p = sub.add_parser("aux-verify", help="integration-by-parts battery")
    _add_common(p, out=False)
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--epsilon", type=_float_flag, default=None)
    p.set_defaults(fn=cmd_aux_verify)

    p = sub.add_parser("sweep", help="convergence sweep over a scaling sequence")
    _add_common(p)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("verify-all", help="cross-module verification battery")
    _add_common(p)
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
