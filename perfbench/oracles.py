"""Oracle checks of a traced sweep: independent references, not stored outputs.

Per point (a point fails if it misses any check):

  point_error     run_sweep recorded a DimredError for the point
  state_oracle    static fields only: the final N-body state against
                  scipy's expm_multiply (Al-Mohy & Higham 2011) applied to the
                  sparse manybody.hamiltonian at t = 0
  energy_at_T     the CSV energy_gap against |<psi_T, H(T) psi_T>/N - E_Phi(T)|,
                  with H built at the final time T
  alpha_xi_at_T   the CSV alpha_xi against alpha_m + that energy gap
  sandwich        acceptance 8's alpha_n2 <= trace_distance <= sqrt(8 alpha_n2)
"""

from __future__ import annotations

import math

import numpy as np
from scipy.sparse.linalg import expm_multiply

STATE_TOL = 1e-8          # Krylov tol is 1e-10 per step; zero field gives ~1e-13
ENERGY_RTOL = 1e-9
SANDWICH_SLACK = 1e-9     # as in tests/test_acceptance.py criterion 8


def parse_csv(text: str):
    """(rows by N, {N: error text}) from a sweep CSV."""
    rows, errors, header = {}, {}, None
    for line in text.splitlines():
        if line.startswith("# FAILED N="):
            n = int(line[len("# FAILED N="):].split()[0])
            errors[n] = line.split(": ", 1)[1]
        elif line.startswith("#") or not line:
            continue
        elif header is None:
            header = line.split(",")
        else:
            vals = dict(zip(header, line.split(",")))
            rows[int(vals["n_particles"])] = {k: float(v) for k, v in vals.items()}
    return rows, errors


def _check(name: str, measured: float, bound: float, passed: bool | None = None) -> dict:
    if passed is None:
        passed = bool(measured <= bound)
    return {"name": name, "measured": float(measured), "bound": float(bound),
            "passed": bool(passed)}


def sweep_checks(points: list, csv_text: str) -> dict:
    """{N: [check, ...]} for every point the traced sweep attempted."""
    from dimred import manybody, nls

    rows, errors = parse_csv(csv_text)
    out = {}
    for point in points:
        n = point["n"]
        if n in errors:
            out[n] = [_check("point_error: " + errors[n], 1.0, 0.0, passed=False)]
            continue
        row, basis, fock = rows[n], point["basis"], point["fock"]
        t_final = point["t_final"]
        static = basis.external is None or not basis.external.time_dependent
        checks = []
        if static:
            ref = expm_multiply(-1j * t_final * point["h0"], point["psi0"])
            checks.append(_check("state_oracle", np.linalg.norm(point["psi_t"] - ref),
                                 STATE_TOL))
        h_t = point["h0"] if static else manybody.hamiltonian(basis, fock, t_final)
        state_t = manybody.ManyBodyState(fock, point["psi_t"], t_final)
        e_psi = manybody.renormalized_energy(state_t, basis, t_final, h=h_t)
        e_phi = nls.effective_energy(point["phi_t"], point["external"], point["b_eff"],
                                     t_final)
        gap = abs(e_psi - e_phi)
        checks.append(_check("energy_at_T", abs(row["energy_gap"] - gap),
                             ENERGY_RTOL * max(1.0, gap)))
        a_xi = row["alpha_m"] + gap
        checks.append(_check("alpha_xi_at_T", abs(row["alpha_xi"] - a_xi),
                             ENERGY_RTOL * max(1.0, a_xi)))
        low = row["alpha_n2"] - row["trace_distance"]
        high = row["trace_distance"] - math.sqrt(8.0 * row["alpha_n2"])
        checks.append(_check("sandwich", max(low, high), SANDWICH_SLACK))
        out[n] = checks
    return out
