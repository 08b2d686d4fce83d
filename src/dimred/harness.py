"""Convergence-sweep experiments and the cross-module verification battery.

A sweep walks a scaling sequence: at each point it prepares the product
condensate on its sector's rows, evolves the N-body state there under the H(t)
that ``manybody.evolve`` builds from the sector's plans, and the effective
equation to the same time, and records the trace distance to the evolved
condensate together with the counting functionals, the energy gap, and the
theoretical rate.  The effective equation has the paper's b, free of N and eps,
so it is integrated once per sweep: ``nls.evolve``'s memo serves every later
point.  Rows go to CSV atomically (temp file + rename) with the config hash in
the header; identical config + seed reproduces the file byte for byte.
"""

from __future__ import annotations

import math
import os
import tempfile
from dataclasses import dataclass, field, fields

import numpy as np
import scipy.sparse as sp

from . import auxiliary, manybody, nls, potentials, projectors, scaling, transverse
from .config import DEFAULTS, ExperimentConfig
from .errors import DimredError, InsufficientDataError


@dataclass(frozen=True)
class SweepRow:
    n_particles: int
    epsilon: float
    mu: float
    t: float
    trace_distance: float
    alpha_n2: float
    alpha_m: float
    alpha_xi: float
    energy_gap: float
    theoretical_rate: float
    excited_fraction: float
    envelope: float
    gronwall: float
    gamma_discrepancy: float

    def __post_init__(self):
        for name in ("trace_distance", "alpha_n2", "alpha_m", "alpha_xi",
                     "energy_gap", "theoretical_rate", "excited_fraction"):
            if getattr(self, name) < 0:
                raise DimredError(f"sweep row field {name} is negative")
        if self.trace_distance > 2.0 + 1e-9:
            raise DimredError("trace distance exceeds 2")

    def as_csv(self) -> str:
        vals = [str(self.n_particles)] + [
            format(getattr(self, c), ".17g") for c in CSV_COLUMNS[1:]
        ]
        return ",".join(vals)


CSV_COLUMNS = tuple(f.name for f in fields(SweepRow))


@dataclass
class SweepResult:
    rows: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    config_hash: str = ""

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass(frozen=True)
class SweepInputs:
    """What every point of a sweep shares; it depends on the config alone."""

    confinement: potentials.ConfinementPotential
    external: potentials.ExternalPotential | None
    unscaled_mode: transverse.TransverseMode
    profile: potentials.InteractionProfile
    b_eff: float        # the paper's b = int w * int |chi|^4, free of N and eps
    sectors: dict = field(default_factory=dict, compare=False)    # ``point_setup``'s plans


def sweep_inputs(cfg: ExperimentConfig) -> SweepInputs:
    """The shared inputs of a sweep: the trap, the field, the interaction
    profile, the unscaled transverse modes on the config's grid and b."""
    conf = potentials.confinement_by_name(cfg.confinement_name, cfg.d_perp)
    tgrid = transverse.TransverseGrid(cfg.transverse_extent, cfg.transverse_points)
    mode = transverse.solve_modes(conf, tgrid, n_modes=max(cfg.m_y, 2))
    profile = potentials.profile_by_name(cfg.profile_name, cfg.profile_height,
                                         cfg.profile_radius)
    return SweepInputs(conf, potentials.external_by_name(cfg.external_name), mode, profile,
                       b_eff=profile.shell_integral(1 + cfg.d_perp) * mode.quartic)


@dataclass(frozen=True)
class PointSetup:
    """One scaling point's N-body problem: the condensate on its sector's rows, and their plans."""

    basis: manybody.ModeBasis
    psi0: manybody.ManyBodyState
    plans: manybody.SectorPlans

    def evolve(self, cfg: ExperimentConfig, n_outputs: int) -> manybody.ManyBodyTrajectory:
        return manybody.evolve(self.psi0, self.basis, cfg.manybody_dt, cfg.t_final,
                               n_outputs=n_outputs, krylov_tol=cfg.krylov_tol, plans=self.plans)


def point_setup(cfg: ExperimentConfig, point: scaling.ScalingPoint,
                inputs: SweepInputs) -> PointSetup:
    scaled = potentials.scale(inputs.profile, point, d_perp=cfg.d_perp)
    basis = manybody.build_basis(
        point, inputs.confinement, inputs.external, scaled, cfg.m_x, cfg.m_y,
        cfg.box_length, unscaled_mode=inputs.unscaled_mode,
    )
    # each N from the cap up has the same rows but for n_0 = N - excitations: one
    # sector and its plans serve them all, planned where every row holds n_0 >= 2
    n, cap = point.n_particles, cfg.max_excitations
    key = n if n < cap else min(cap + 2, 255)
    if key not in inputs.sectors:
        full = manybody.FockBasis(basis.n_modes, key, cap, cfg.dim_cap)
        # keep the sector of the conserved charges that holds the condensate row
        condensate = full.occupations[:, 0] == key
        rows = next(r for r in manybody.sectors(basis, full) if condensate[r].any())
        inputs.sectors[key] = manybody.SectorPlans(basis, full.subset(rows))
    plans = inputs.sectors[key]
    fock = plans.fock.with_particles(n)
    psi0 = manybody.product_state(fock, np.eye(fock.n_modes)[0])
    return PointSetup(basis, psi0, plans)


def run_point(cfg: ExperimentConfig, point: scaling.ScalingPoint,
              inputs: SweepInputs) -> SweepRow:
    """Full pipeline for one scaling point (see module docstring)."""
    setup = point_setup(cfg, point, inputs)
    basis, external, b_eff = setup.basis, inputs.external, inputs.b_eff

    # effective dynamics: uniform condensate on the box
    grid = nls.Grid1D(cfg.box_length, cfg.nls_points)
    phi0 = nls.plane_wave(grid, 0)
    traj = nls.evolve(phi0, external, b_eff, cfg.nls_dt, cfg.t_final, n_outputs=1)
    phi_t = traj.final
    e_phi0 = nls.effective_energy(phi0, external, b_eff, 0.0)
    e_phi_t = nls.effective_energy(phi_t, external, b_eff, cfg.t_final)

    # N-body dynamics from the matching product state, with its energies at 0 and T
    mtraj = setup.evolve(cfg, 1)
    psi_t, (e_psi0, e_psi_t) = mtraj.final, mtraj.energies

    # condensate projector at time T from the evolved NLS state; alpha_n2, the
    # trace distance and the excited fraction read the one-body density
    proj = projectors.condensate_projector(basis, phi_t)
    gamma = manybody.reduced_density(psi_t, 1, setup.plans).matrix
    bridge = projectors.rate_bridge(gamma, proj)
    a_m = projectors.alpha(psi_t, projectors.make_weight("m", point.n_particles, cfg.xi), proj)
    gap = abs(e_psi_t - e_phi_t)

    env = nls.envelope(external, e_psi0, e_phi0, cfg.t_final)
    rate = scaling.theoretical_rate(point, cfg.eta)
    gamma_disc = auxiliary.discrepancy_gamma(basis.scaled, phi_t, basis.transverse).l2_norm

    return SweepRow(
        n_particles=point.n_particles,
        epsilon=point.epsilon,
        mu=point.mu,
        t=cfg.t_final,
        trace_distance=bridge.trace_dist,
        alpha_n2=bridge.alpha_n2,
        alpha_m=a_m,
        alpha_xi=a_m + gap,
        energy_gap=gap,
        theoretical_rate=rate.total,
        excited_fraction=manybody.transverse_excited_fraction(gamma, basis),
        envelope=env,
        gronwall=nls.gronwall_envelope(env, cfg.t_final),
        gamma_discrepancy=gamma_disc,
    )


def run_sweep(cfg: ExperimentConfig, out_path: str | None = None) -> SweepResult:
    points = cfg.points()
    inputs = sweep_inputs(cfg)
    result = SweepResult(config_hash=cfg.config_hash)
    for point in points:
        try:
            result.rows.append(run_point(cfg, point, inputs))
        except DimredError as exc:
            result.failures.append((point.n_particles, point.epsilon,
                                    type(exc).__name__, str(exc)))
    if out_path is not None:
        write_csv(result, out_path)
    return result


def write_csv(result: SweepResult, path: str) -> None:
    """Atomic CSV write: header carries the config hash."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(f"# config_hash={result.config_hash}\n")
            fh.write(",".join(CSV_COLUMNS) + "\n")
            for row in result.rows:
                fh.write(row.as_csv() + "\n")
            for failure in result.failures:
                fh.write(f"# FAILED N={failure[0]} eps={failure[1]}: "
                         f"{failure[2]}: {failure[3]}\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def fit_rate(rows) -> auxiliary.ScalingFit:
    """Regress log(trace distance) on log(sqrt(theoretical rate))."""
    rows = list(rows)
    if len(rows) < 4:
        raise InsufficientDataError(f"rate fit needs >= 4 rows, got {len(rows)}")
    td = np.array([r.trace_distance for r in rows])
    rt = np.array([r.theoretical_rate for r in rows])
    if np.all(td < 1e-14):
        raise InsufficientDataError(
            "all trace distances vanish (non-interacting data); rate fit refused")
    mask = td > 1e-14
    if mask.sum() < 4:
        raise InsufficientDataError("fewer than 4 non-degenerate rows after filtering")
    return auxiliary._loglog_fit(np.sqrt(rt[mask]), td[mask])


# ---------------------------------------------------------------------------
# verification battery
# ---------------------------------------------------------------------------


@dataclass
class Check:
    module: str
    name: str
    measured: float
    bound: float
    passed: bool


@dataclass
class VerificationReport:
    checks: list = field(default_factory=list)

    def add(self, module, name, measured, bound, passed=None):
        if passed is None:
            passed = measured <= bound
        self.checks.append(Check(module, name, float(measured), float(bound), bool(passed)))

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "checks": [
                {"module": c.module, "name": c.name, "measured": c.measured,
                 "bound": c.bound, "passed": c.passed}
                for c in self.checks
            ],
        }


def verify_all(seed: int = 0) -> VerificationReport:
    """Fast cross-module battery: projector identities, weight norms, the rate
    bridge, NLS conservation and order, transverse analytics, the ball Green
    toolkit, coupling invariance, and the N = 2 oracle comparison."""
    rng = np.random.default_rng(seed)
    rep = VerificationReport()

    # projector identities on random dense systems
    worst = {"sum_pk": 0.0, "qj_pk": 0.0, "fqq": 0.0, "alpha_q1": 0.0, "factor": 0.0}
    for _ in range(8):
        dx = int(rng.integers(2, 4))
        dy = int(rng.integers(2, 3))
        n = int(rng.integers(2, 5))
        sys_ = projectors.DenseSystem(dx, dy, n, rng=rng)
        psi = sys_.random_state(rng, condensate_weight=1.0)
        worst["sum_pk"] = max(worst["sum_pk"], sys_.residual_sum_pk(psi))
        worst["qj_pk"] = max(worst["qj_pk"],
                             max(sys_.residual_qj_pk(psi, k) for k in range(n + 1)))
        worst["fqq"] = max(worst["fqq"], sys_.residual_fqq(psi))
        probs = sys_.counting_probs(psi)
        a_n2 = float(np.sum(np.arange(n + 1) / n * probs))
        worst["alpha_q1"] = max(worst["alpha_q1"], abs(a_n2 - sys_.q1_norm_sq(psi)))
        worst["factor"] = max(worst["factor"], sys_.residual_factorization())
    for name, val in worst.items():
        rep.add("projectors", name, val, 1e-10)

    # weight norms
    for n in (100, 1000, 10000):
        for xi in (0.05, 0.1, 0.2):
            w = projectors.weight_norm_checks(n, xi)
            rep.add("projectors", f"l_norm N={n} xi={xi}", w.l_norm, w.l_bound)
            rep.add("projectors", f"l_n_norm N={n} xi={xi}", w.l_n_norm, 4.0)

    # rate bridge on random occupation states
    fock = manybody.FockBasis(4, 4)
    proj = projectors.basis_mode_projector(4)
    worst_gap = -math.inf
    for _ in range(20):
        amp = rng.normal(size=fock.dim) + 1j * rng.normal(size=fock.dim)
        state = manybody.ManyBodyState(fock, amp / np.linalg.norm(amp))
        br = projectors.rate_bridge(manybody.reduced_density(state, 1).matrix, proj)
        worst_gap = max(worst_gap,
                        max(br.alpha_n2 - br.trace_dist, br.trace_dist - br.upper))
    rep.add("projectors", "rate_bridge_sandwich", worst_gap, 1e-10)

    # NLS conservation and order
    grid = nls.Grid1D(16.0 * math.pi, 256)
    state = nls.gaussian_state(grid, width=2.0)
    traj = nls.evolve(state, None, 1.0, 1e-3, 0.25, n_outputs=5)
    mass_drift = max(abs(s.l2 - 1.0) for s in traj.states)
    e0 = nls.effective_energy(traj.states[0], None, 1.0)
    e_drift = max(abs(nls.effective_energy(s, None, 1.0) - e0) for s in traj.states)
    rep.add("nls", "mass_drift", mass_drift, 1e-10)
    rep.add("nls", "energy_drift", e_drift, 1e-8)
    finals = []
    for dt in (4e-3, 2e-3, 1e-3):
        t = nls.evolve(state, None, 1.0, dt, 0.2, n_outputs=1)
        finals.append(t.final.values)
    e1 = np.linalg.norm(finals[0] - finals[1])
    e2 = np.linalg.norm(finals[1] - finals[2])
    order = math.log2(e1 / e2) if e2 > 0 else 2.0
    rep.add("nls", "strang_order", abs(order - 2.0), 0.2, abs(order - 2.0) <= 0.2)

    # transverse analytics (1d harmonic)
    conf = potentials.harmonic_confinement(dimension=1)
    mode = transverse.solve_modes(conf, transverse.TransverseGrid(9.0, 4001), 2)
    rep.add("transverse", "harmonic_e0", abs(mode.energy0 - 1.0), 1e-10)
    rep.add("transverse", "harmonic_gap", abs(mode.gap - 2.0), 1e-11)
    rep.add("transverse", "harmonic_quartic",
            abs(mode.quartic - 1.0 / math.sqrt(2.0 * math.pi)), 1e-12)
    # the density correlation T(u) = exp(-u^2/2) T(0) off the grid offsets,
    # relative to T(0) = 1/sqrt(2 pi) in 1d and 1/(2 pi) in 2d
    u = np.linspace(0.05, 2.95, 30)
    rep.add("transverse", "harmonic_correlation",
            np.max(np.abs(mode.correlation(u, 1)[0, 0, 0, 0] * math.sqrt(2.0 * math.pi)
                          - np.exp(-u**2 / 2.0))), 1e-12)
    # 2d harmonic: E0 = gap = 2; 61^2 points miss them by 2.4e-6 and 9.3e-6
    mode = transverse.solve_modes(potentials.harmonic_confinement(dimension=2),
                                  transverse.TransverseGrid(6.5, 61), 2)
    rep.add("transverse", "harmonic_2d_e0", abs(mode.energy0 - 2.0), 5e-6)
    rep.add("transverse", "harmonic_2d_gap", abs(mode.gap - 2.0), 2e-5)
    rep.add("transverse", "harmonic_2d_correlation",
            np.max(np.abs(mode.correlation(u, 1)[0, 0, 0, 0] * 2.0 * math.pi
                          - np.exp(-u**2 / 2.0))), 1e-5)

    # ball Green toolkit on the closed-form case
    point = scaling.make_point(1000, 0.1, 0.5)
    prof = potentials.uniform_ball()
    sc = potentials.scale(prof, point)
    data = auxiliary.BallGreenData(sc, point.epsilon)
    c = sc.amplitude
    mu = sc.range
    a_const = 4.0 * math.pi / 3.0 * c * mu**3
    h0_exact = -c * mu**2 / 6.0 - a_const / (4.0 * math.pi) * (1.0 / mu - 1.0 / point.epsilon)
    rep.add("auxiliary", "h0_closed_form",
            abs(float(data.value(np.array([0.0]))[0]) - h0_exact) / abs(h0_exact), 1e-8)
    rep.add("auxiliary", "sup_grad_closed_form",
            abs(data.sup_gradient() - c * mu / 3.0) / (c * mu / 3.0), 1e-8)

    # coupling invariance: each default point's scaled b, built as vq is, against the sweep's b
    inputs = sweep_inputs(DEFAULTS)
    b_vals = [potentials.effective_coupling(
                  potentials.scale(inputs.profile, p, d_perp=DEFAULTS.d_perp),
                  transverse.rescale(inputs.unscaled_mode, p.epsilon).quartic)
              for p in DEFAULTS.points()]
    rep.add("potentials", "coupling_invariance",
            max(abs(b - inputs.b_eff) for b in b_vals), 1e-12 * abs(inputs.b_eff))

    # N = 2 oracle comparison (compact: coarse grid, short time)
    pt2 = scaling.make_point(2, 0.5, 0.5)
    conf1 = potentials.harmonic_confinement(dimension=1)
    bump = potentials.gaussian_bump(height=2.0, radius=4.0, width=1.5)
    sc2 = potentials.scale(bump, pt2, d_perp=1)
    n_x, n_y, y_span, box = 10, 8, 6.0, 2.0 * math.pi
    basis2 = manybody.build_grid_matched_basis(pt2, conf1, sc2, n_x, n_y, box, y_span)
    oracle = manybody.GridOracle(pt2, conf1, sc2, box, n_x, n_y, y_span)
    phi_x = np.exp(-oracle.x**2 / 2.0) * np.exp(0.5j * oracle.x)
    u = manybody.modes_on_grid(basis2, oracle)
    orb = phi_x[:, None] * oracle.tau[None, :]
    orb = orb / math.sqrt(float(np.sum(np.abs(orb) ** 2) * oracle.weight()))
    coeffs = u.conj().T @ (orb.ravel() * math.sqrt(oracle.weight()))
    fock2 = manybody.FockBasis(basis2.n_modes, 2, dim_cap=10**5)
    st2 = manybody.product_state(fock2, coeffs)
    traj2 = manybody.evolve(st2, basis2, 0.01, 0.2, n_outputs=1, krylov_tol=1e-11)
    psi_t = oracle.evolve(oracle.product_state(phi_x), 2e-4, 0.2)
    g_grid = oracle.gamma1(psi_t)
    g_modes = manybody.gamma_modes_to_grid(
        basis2, manybody.reduced_density(traj2.final, 1).matrix, oracle)
    td2 = projectors.trace_distance(g_grid, g_modes)
    rep.add("manybody", "two_body_oracle_trace_distance", td2, 1e-6)
    rep.add("manybody", "dropped_sector_norm", traj2.dropped_norm, 1e-11,
            passed=traj2.dropped_norm <= 1e-11 and td2 <= 1e-6)

    # its (K, Pi) sectors partition the rows, and their blocks, each built
    # alone, hold all of the sparse H
    rows_of = manybody.sectors(basis2, fock2)
    frob_h = sp.linalg.norm(manybody.hamiltonian(basis2, fock2)) ** 2
    defect = abs(sum(sp.linalg.norm(manybody.hamiltonian(basis2, fock2.subset(rows))) ** 2
                     for rows in rows_of) - frob_h) / frob_h
    partition = np.array_equal(np.sort(np.concatenate(rows_of)), np.arange(fock2.dim))
    rep.add("manybody", "sector_blocks_partition_h", defect, 1e-12,
            passed=partition and defect <= 1e-12)

    return rep
