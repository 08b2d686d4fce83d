"""Counting projectors, weighted counting operators, and alpha functionals.

P_k projects an N-boson state onto the subspace with exactly k particles
outside the condensate orbital.  Three evaluation routes are implemented:

* sector readout, exact, when the orbital is occupation mode 0;
* a Lanczos spectral measure of the condensate number operator for a general
  orbital in the occupation representation (the measure has at most N+1
  integer atoms, so Lanczos with full reorthogonalization recovers it
  exactly);
* a dense tensor-space oracle (`DenseSystem`) for small systems, expanding
  P_k literally as the symmetrized sum over q/p factor placements.

The weighted operators are diagonal in the counting decomposition, so all
weight algebra (shifts, the operator max in l, norms) reduces to tables
indexed by k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import DomainError, SizeError, ToleranceError
from .manybody import (
    ManyBodyState,
    ModeBasis,
    _lanczos,
    condensate_coefficients,
    one_body_operator,
    reduced_density,
)

# ---------------------------------------------------------------------------
# weight functions
# ---------------------------------------------------------------------------


def _m_scalar(k: float, n: int, xi: float) -> float:
    if k >= float(n) ** (1.0 - 2.0 * xi):
        return math.sqrt(k / n)
    return 0.5 * (float(n) ** (-1.0 + xi) * k + float(n) ** (-xi))


def _m_diff(k: np.ndarray, j: int, n: int, xi: float) -> np.ndarray:
    """m(k) - m(k+j), evaluated branch-aware to avoid cancellation.

    The linear branch is tangent to sqrt(k/N) at the cut N^(1-2 xi), so the
    magnitude never exceeds j * sup|m'| = j/2 * N^(xi-1); the stable forms
    below preserve that ceiling in floating point.
    """
    k = np.asarray(k, dtype=float)
    thr = float(n) ** (1.0 - 2.0 * xi)
    slope = 0.5 * float(n) ** (xi - 1.0)
    sqrt_n = math.sqrt(float(n))
    out = np.empty_like(k)
    hi = k >= thr                      # both arguments on the sqrt branch
    lo = (k + j) < thr                 # both on the linear branch
    mid = ~hi & ~lo
    out[lo] = -j * slope
    kk = k[hi]
    out[hi] = -j / ((np.sqrt(kk) + np.sqrt(kk + j)) * sqrt_n)
    if np.any(mid):
        km = k[mid] + j
        delta = 0.5 * (float(n) ** (-1.0 + xi) * km + float(n) ** (-xi)) \
            - np.sqrt(km) / sqrt_n
        delta = np.clip(delta, 0.0, j * slope)
        out[mid] = -j * slope + delta
    return out


@dataclass(frozen=True)
class WeightFunction:
    kind: str
    n_particles: int
    values: np.ndarray           # f(k) for k = 0..N
    shift: int = 0
    xi: float | None = None

    def __post_init__(self):
        if len(self.values) != self.n_particles + 1:
            raise DomainError("weight table must have N+1 entries")

    def __call__(self, k) -> np.ndarray:
        """Tabulated weight including the shift: f(k + shift), zero outside."""
        k = np.asarray(k, dtype=np.int64)
        ks = k + self.shift
        inside = (ks >= 0) & (ks <= self.n_particles) & (k >= 0) & (k <= self.n_particles)
        out = np.zeros(k.shape, dtype=float)
        out[inside] = self.values[ks[inside]]
        return out

    def shifted(self, d: int) -> "WeightFunction":
        return WeightFunction(self.kind, self.n_particles, self.values, self.shift + d, self.xi)

    @property
    def operator_norm(self) -> float:
        """sup over admissible sectors, which equals max_k f(k) while any shift
        keeps at least one sector in range."""
        return float(np.max(self(np.arange(self.n_particles + 1))))


def make_weight(kind: str, n_particles: int, xi: float | None = None) -> WeightFunction:
    """Weight tables: n, n2, m(xi), m_a(xi), m_b(xi), l(xi)."""
    n = n_particles
    if n < 1:
        raise DomainError(f"n_particles must be >= 1, got {n}")
    k = np.arange(n + 1, dtype=float)
    if kind == "n":
        vals = np.sqrt(k / n)
    elif kind == "n2":
        vals = k / n
    else:
        if xi is None or not (0.0 < xi < 0.5):
            raise DomainError(f"kind {kind!r} needs xi in (0, 1/2), got {xi!r}")
        if kind == "m":
            vals = np.array([_m_scalar(float(j), n, xi) for j in range(n + 1)])
        elif kind == "m_a":
            vals = _m_diff(k, 1, n, xi)
        elif kind == "m_b":
            vals = _m_diff(k, 2, n, xi)
        elif kind == "l":
            ma = _m_diff(k, 1, n, xi)
            mb = _m_diff(k, 2, n, xi)
            kk = np.arange(n + 1)
            a_part = np.where(kk >= 1, np.abs(ma[np.maximum(kk - 1, 0)]), 0.0)
            b_part = np.where(kk >= 2, np.abs(mb[np.maximum(kk - 2, 0)]), 0.0)
            vals = n * np.maximum(a_part, b_part)
        else:
            raise DomainError(f"unknown weight kind {kind!r}")
    return WeightFunction(kind, n, vals, 0, xi)


def custom_weight(values, n_particles: int) -> WeightFunction:
    vals = np.asarray(values, dtype=float)
    if np.any(vals < 0):
        raise DomainError("custom weights must be non-negative")
    return WeightFunction("custom", n_particles, vals)


@dataclass(frozen=True)
class WeightNormReport:
    n_particles: int
    xi: float
    l_norm: float
    l_bound: float           # N^xi, exact ceiling
    l_n_norm: float
    l_norm_ok: bool


def weight_norm_checks(n_particles: int, xi: float) -> WeightNormReport:
    """Exhaustive-k evaluation of |l| and |l n| against the stated ceilings."""
    lw = make_weight("l", n_particles, xi)
    nw = make_weight("n", n_particles)
    k = np.arange(n_particles + 1)
    l_norm = float(np.max(lw(k)))
    l_n = float(np.max(lw(k) * nw(k)))
    bound = float(n_particles) ** xi
    return WeightNormReport(n_particles, xi, l_norm, bound, l_n,
                            l_norm <= bound * (1 + 1e-12))


# ---------------------------------------------------------------------------
# condensate projector and counting distributions (occupation representation)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CondensateProjector:
    """Reference orbital in the active mode basis, with its longitudinal and
    transverse factors retained for p^Phi / p^chi questions."""

    coeffs: np.ndarray            # unit vector over the flat modes
    mode_my: np.ndarray           # transverse index per mode (chi factor is my = 0)
    basis_mode: int | None = None  # set when the orbital IS a basis mode

    def __post_init__(self):
        nrm = np.linalg.norm(self.coeffs)
        if abs(nrm - 1.0) > 1e-10:
            raise DomainError(f"reference orbital must be normalized, |phi| = {nrm}")


def basis_mode_projector(n_modes: int, index: int = 0,
                         mode_my: np.ndarray | None = None) -> CondensateProjector:
    c = np.zeros(n_modes, dtype=complex)
    c[index] = 1.0
    my = mode_my if mode_my is not None else np.zeros(n_modes, dtype=np.int64)
    return CondensateProjector(c, my, basis_mode=index)


def condensate_projector(basis: ModeBasis, phi_x_coeffs: np.ndarray) -> CondensateProjector:
    """Projector onto Phi (x) chi^eps_0 given plane-wave coefficients of Phi."""
    coeffs = condensate_coefficients(basis, phi_x_coeffs)
    nz = np.nonzero(np.abs(coeffs) > 1e-14)[0]
    mode = int(nz[0]) if len(nz) == 1 else None
    return CondensateProjector(coeffs, basis.mode_my, basis_mode=mode)


@dataclass(frozen=True)
class CountingDistribution:
    probs: np.ndarray
    source: str
    raw_sum: float

    def __post_init__(self):
        if np.any(self.probs < -1e-12):
            raise DomainError("counting probabilities must be >= -1e-12")


def _counting_sector(state: ManyBodyState, mode: int) -> np.ndarray:
    occ0 = state.fock.occupations[:, mode].astype(np.int64)
    k = state.fock.n_particles - occ0
    probs = np.zeros(state.fock.n_particles + 1)
    np.add.at(probs, k, np.abs(state.amplitudes) ** 2)
    return probs


def _embed_for_counting(state: ManyBodyState, margin: int = 2,
                        dim_budget: int = 400_000):
    """Re-express the state in a basis whose excitation cap is raised by up to
    ``margin``.  A truncated subspace is not invariant under the condensate
    number operator of a general orbital, so its projected spectrum is not
    exactly integer; the enlarged cap suppresses that leakage geometrically.
    """
    from .manybody import FockBasis, symmetric_dimension

    fock = state.fock
    cap = fock.max_excitations
    if cap is None or cap >= fock.n_particles:
        return state
    for extra in range(margin, 0, -1):
        new_cap = min(cap + extra, fock.n_particles)
        if symmetric_dimension(fock.n_modes, fock.n_particles, new_cap) <= dim_budget:
            big = FockBasis(fock.n_modes, fock.n_particles, new_cap,
                            dim_cap=dim_budget)
            amps = np.zeros(big.dim, dtype=complex)
            amps[big.lookup(fock.occupations)] = state.amplitudes
            return ManyBodyState(big, amps, state.time)
    return state


def _counting_lanczos(state: ManyBodyState, projector: CondensateProjector) -> np.ndarray:
    """Spectral measure of the condensate number operator from the state.

    n_phi = sum phi_a phi_b^* adag_a a_b has spectrum {0..N}; the measure of
    psi has at most N+1 atoms, so Lanczos with full reorthogonalization
    terminates after at most N+1 steps with the exact atoms and weights.
    """
    n = state.fock.n_particles
    if n > 64:
        raise SizeError("general-orbital counting is limited to N <= 64")
    state = _embed_for_counting(state)
    h = np.outer(projector.coeffs, np.conj(projector.coeffs))
    op = one_body_operator(state.fock, h)
    v = state.amplitudes / np.linalg.norm(state.amplitudes)
    _, alphas, betas = _lanczos(lambda x: op @ x, v, n + 1, 1e-12)
    tmat = np.diag(alphas) + np.diag(betas[:-1], 1) + np.diag(betas[:-1], -1)
    evals, evecs = np.linalg.eigh(tmat)
    weights = np.abs(evecs[0, :]) ** 2
    probs = np.zeros(n + 1)
    for val, wgt in zip(evals, weights):
        k_cond = int(round(val))
        if abs(val - k_cond) > 1e-6 or not (0 <= k_cond <= n):
            # sectors with negligible weight surface as misplaced noise atoms
            if wgt < 1e-8:
                continue
            raise ToleranceError(
                f"counting spectrum atom {val:.6f} (weight {wgt:.2e}) "
                f"is not an integer in [0, {n}]"
            )
        probs[n - k_cond] += wgt
    return probs


def counting_distribution(state: ManyBodyState, projector: CondensateProjector,
                          method: str = "auto") -> CountingDistribution:
    if method == "auto":
        method = "sector" if projector.basis_mode is not None else "lanczos"
    if method == "sector":
        if projector.basis_mode is None:
            raise DomainError("sector readout needs a basis-mode orbital")
        probs = _counting_sector(state, projector.basis_mode)
        source = "sector"
    elif method == "lanczos":
        probs = _counting_lanczos(state, projector)
        source = "lanczos"
    else:
        raise DomainError(f"unknown counting method {method!r}")
    raw = float(probs.sum())
    probs = np.maximum(probs, 0.0)
    if raw > 0:
        probs = probs / probs.sum()
    return CountingDistribution(probs, source, raw)


def alpha(state: ManyBodyState, weight: WeightFunction, projector: CondensateProjector,
          method: str = "auto") -> float:
    """alpha_f = sum_k f(k) <psi, P_k psi>."""
    if weight.n_particles != state.fock.n_particles:
        raise DomainError("weight table and state disagree on N")
    dist = counting_distribution(state, projector, method)
    k = np.arange(state.fock.n_particles + 1)
    return float(np.sum(weight(k) * dist.probs))


@dataclass(frozen=True)
class AlphaXi:
    total: float
    alpha_m: float
    energy_gap: float


def alpha_xi(state: ManyBodyState, projector: CondensateProjector,
             e_psi: float, e_phi: float, xi: float, method: str = "auto") -> AlphaXi:
    """alpha_xi = alpha_m + |E^psi - E^Phi| (the Gronwall quantity)."""
    am = alpha(state, make_weight("m", state.fock.n_particles, xi), projector, method)
    gap = abs(e_psi - e_phi)
    return AlphaXi(am + gap, am, gap)


def alpha_n2_expectation(state: ManyBodyState, projector: CondensateProjector) -> float:
    """<n-hat^2> = 1 - <n_phi>/N via one matvec (no sector grouping)."""
    if projector.basis_mode is not None:
        occ = state.fock.occupations[:, projector.basis_mode].astype(float)
        mean = float(np.sum(occ * np.abs(state.amplitudes) ** 2))
    else:
        h = np.outer(projector.coeffs, np.conj(projector.coeffs))
        op = one_body_operator(state.fock, h)
        mean = float(np.real(np.vdot(state.amplitudes, op @ state.amplitudes)))
    return 1.0 - mean / state.fock.n_particles


# ---------------------------------------------------------------------------
# trace distances and the alpha <-> trace-norm bridge
# ---------------------------------------------------------------------------


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Sum of absolute eigenvalues of the Hermitian difference."""
    diff = a - b
    diff = (diff + diff.conj().T) / 2.0
    return float(np.sum(np.abs(np.linalg.eigvalsh(diff))))


@dataclass(frozen=True)
class RateBridge:
    alpha_n2: float
    trace_dist: float
    upper: float                 # sqrt(8 alpha_n2)
    holds: bool


def rate_bridge(state: ManyBodyState, projector: CondensateProjector,
                slack: float = 1e-10) -> RateBridge:
    """Sandwich alpha_n2 <= Tr|gamma - p| <= sqrt(8 alpha_n2)."""
    a2 = alpha_n2_expectation(state, projector)
    gamma = reduced_density(state, 1).matrix
    p = np.outer(projector.coeffs, np.conj(projector.coeffs))
    td = trace_distance(gamma, p)
    upper = math.sqrt(max(8.0 * a2, 0.0))
    holds = (a2 <= td + slack) and (td <= upper + slack)
    return RateBridge(a2, td, upper, holds)


# ---------------------------------------------------------------------------
# dense tensor-space oracle for small systems
# ---------------------------------------------------------------------------


class DenseSystem:
    """N distinguishable slots of a (dx * dy)-dimensional one-body space with a
    product reference orbital; all projector algebra evaluated literally.

    States are complex tensors of shape (d,)*N.  This is the slow, obviously
    correct route used to validate the occupation-space machinery and the
    projector algebra identities on random systems.
    """

    def __init__(self, dx: int, dy: int, n_particles: int, phi_x=None, chi_y=None,
                 rng: np.random.Generator | None = None, dim_cap: int = 2**22):
        if dx < 1 or dy < 1 or n_particles < 1:
            raise DomainError("dx, dy, n_particles must be positive")
        d = dx * dy
        if d**n_particles > dim_cap:
            raise SizeError(f"tensor space of size {d**n_particles} exceeds the cap")
        rng = rng or np.random.default_rng(0)
        self.dx, self.dy, self.n = dx, dy, n_particles
        self.d = d
        self.phi_x = self._unit(phi_x if phi_x is not None else
                                rng.normal(size=dx) + 1j * rng.normal(size=dx))
        self.chi_y = self._unit(chi_y if chi_y is not None else
                                rng.normal(size=dy) + 1j * rng.normal(size=dy))
        self.phi = np.kron(self.phi_x, self.chi_y)
        eye_x, eye_y = np.eye(dx), np.eye(dy)
        self.p_phi = np.kron(np.outer(self.phi_x, self.phi_x.conj()), eye_y)
        self.p_chi = np.kron(eye_x, np.outer(self.chi_y, self.chi_y.conj()))
        self.p = np.outer(self.phi, self.phi.conj())
        self.q = np.eye(d) - self.p
        self.q_phi = np.kron(eye_x, eye_y) - self.p_phi
        self.q_chi = np.kron(eye_x, eye_y) - self.p_chi

    @staticmethod
    def _unit(v):
        v = np.asarray(v, dtype=complex)
        return v / np.linalg.norm(v)

    # -- states ---------------------------------------------------------

    def random_state(self, rng: np.random.Generator, symmetric: bool = True,
                     condensate_weight: float = 0.0) -> np.ndarray:
        shape = (self.d,) * self.n
        psi = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        if symmetric:
            psi = self.symmetrize(psi)
        if condensate_weight > 0.0:
            cond = self.phi
            for _ in range(self.n - 1):
                cond = np.tensordot(cond, self.phi, axes=0)
            psi = psi / np.linalg.norm(psi) + condensate_weight * cond
        return psi / np.linalg.norm(psi)

    def symmetrize(self, psi: np.ndarray) -> np.ndarray:
        from itertools import permutations

        out = np.zeros_like(psi)
        count = 0
        for perm in permutations(range(self.n)):
            out = out + psi.transpose(perm)
            count += 1
        return out / count

    def condensate(self) -> np.ndarray:
        psi = self.phi
        for _ in range(self.n - 1):
            psi = np.tensordot(psi, self.phi, axes=0)
        return psi

    # -- one-body actions -------------------------------------------------

    def apply_one(self, op: np.ndarray, psi: np.ndarray, slot: int) -> np.ndarray:
        out = np.tensordot(op, psi, axes=([1], [slot]))
        return np.moveaxis(out, 0, slot)

    def apply_p(self, psi, slot):
        return self.apply_one(self.p, psi, slot)

    def apply_q(self, psi, slot):
        return self.apply_one(self.q, psi, slot)

    # -- counting projectors ----------------------------------------------

    def project_k(self, psi: np.ndarray, k: int) -> np.ndarray:
        """P_k psi as the sum over |J| = k of prod_(j in J) q_j prod_(l notin J) p_l."""
        if k < 0 or k > self.n:
            return np.zeros_like(psi)
        out = np.zeros_like(psi)
        for subset in combinations(range(self.n), k):
            term = psi
            for slot in range(self.n):
                term = self.apply_q(term, slot) if slot in subset else self.apply_p(term, slot)
            out = out + term
        return out

    def counting_probs(self, psi: np.ndarray) -> np.ndarray:
        return np.array([
            float(np.real(np.vdot(psi, self.project_k(psi, k)))) for k in range(self.n + 1)
        ])

    def q1_norm_sq(self, psi: np.ndarray) -> float:
        return float(np.linalg.norm(self.apply_q(psi, 0)) ** 2)

    def gamma1(self, psi: np.ndarray) -> np.ndarray:
        flat = psi.reshape(self.d, -1)
        g = flat @ flat.conj().T
        return g / np.real(np.trace(g))

    # -- identity residuals ------------------------------------------------

    def residual_sum_pk(self, psi: np.ndarray) -> float:
        """|| (sum_k P_k - 1) psi ||."""
        acc = np.zeros_like(psi)
        for k in range(self.n + 1):
            acc = acc + self.project_k(psi, k)
        return float(np.linalg.norm(acc - psi))

    def residual_qj_pk(self, psi: np.ndarray, k: int) -> float:
        """|| (sum_j q_j P_k - k P_k) psi ||."""
        pk = self.project_k(psi, k)
        acc = np.zeros_like(psi)
        for j in range(self.n):
            acc = acc + self.apply_q(pk, j)
        return float(np.linalg.norm(acc - k * pk))

    def residual_fqq(self, psi: np.ndarray) -> float:
        """|| (n-hat^2 - (1/N) sum_j q_j) psi ||."""
        nhat2 = np.zeros_like(psi)
        for k in range(self.n + 1):
            nhat2 = nhat2 + (k / self.n) * self.project_k(psi, k)
        acc = np.zeros_like(psi)
        for j in range(self.n):
            acc = acc + self.apply_q(psi, j)
        return float(np.linalg.norm(nhat2 - acc / self.n))

    def residual_factorization(self) -> float:
        """max over the one-body identities p = p^Phi p^chi and
        q = q^chi + q^Phi p^chi (matrix norms)."""
        r1 = np.linalg.norm(self.p - self.p_phi @ self.p_chi)
        r2 = np.linalg.norm(self.q - (self.q_chi + self.q_phi @ self.p_chi))
        r3 = np.linalg.norm(self.q_phi @ self.p)
        r4 = np.linalg.norm(self.p_phi @ self.p - self.p)
        return float(max(r1, r2, r3, r4))
