"""Counting projectors, weight tables, and alpha functionals.

P_k projects an N-boson state onto the subspace with exactly k particles
outside the condensate orbital.  `condensate_projector` builds that orbital,
Phi (x) chi^eps_0, from the NLS state Phi itself; the counting functionals
read its unit coefficient vector alone.  The counting distribution <psi, P_k psi>,
and with it every weighted alpha_f, has three evaluation routes:

* sector readout, exact, when the orbital is an occupation mode;
* factorial moments F_j = |a(phi)^j psi|^2 / j! of the condensate number
  operator for a general orbital, inverted by an alternating binomial sum:
  the exact measure of psi in the untruncated Fock space, since a(phi) only
  lowers occupations and never leaves the capped basis;
* a dense tensor-space oracle (`DenseSystem`) for small systems, expanding
  P_k literally as the symmetrized sum over q/p factor placements.

alpha_n2 = <psi, q_1 psi> = 1 - <phi, gamma phi> and Tr|gamma - |phi><phi||
need only the one-body density gamma: `rate_bridge` reads both from it.

The weighted operators are diagonal in the counting decomposition, so each
weight is a table f(0..N) indexed by k, and its operator norm is the table's
max.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import DomainError, SizeError, ToleranceError
from .manybody import ManyBodyState, ModeBasis, _lowered
from .nls import CondensateState

MOMENTS_ROUNDOFF_LIMIT = 1e-10

# ---------------------------------------------------------------------------
# weight tables
# ---------------------------------------------------------------------------


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


def make_weight(kind: str, n_particles: int, xi: float | None = None) -> np.ndarray:
    """The weight table f(k), k = 0..N, of kind n, m(xi) or l(xi)."""
    n = n_particles
    if n < 1:
        raise DomainError(f"n_particles must be >= 1, got {n}")
    k = np.arange(n + 1, dtype=float)
    if kind == "n":
        return np.sqrt(k / n)
    if xi is None or not (0.0 < xi < 0.5):
        raise DomainError(f"kind {kind!r} needs xi in (0, 1/2), got {xi!r}")
    if kind == "m":
        return np.where(k >= float(n) ** (1.0 - 2.0 * xi), np.sqrt(k / n),
                        0.5 * (float(n) ** (-1.0 + xi) * k + float(n) ** (-xi)))
    if kind == "l":
        ma = _m_diff(k, 1, n, xi)
        mb = _m_diff(k, 2, n, xi)
        kk = np.arange(n + 1)
        a_part = np.where(kk >= 1, np.abs(ma[np.maximum(kk - 1, 0)]), 0.0)
        b_part = np.where(kk >= 2, np.abs(mb[np.maximum(kk - 2, 0)]), 0.0)
        return n * np.maximum(a_part, b_part)
    raise DomainError(f"unknown weight kind {kind!r}")


@dataclass(frozen=True)
class WeightNormReport:
    n_particles: int
    xi: float
    l_norm: float
    l_bound: float           # N^xi with 1e-12 relative float slack: |l| attains N^xi
    l_n_norm: float


def weight_norm_checks(n_particles: int, xi: float) -> WeightNormReport:
    """Exhaustive-k evaluation of |l| and |l n| against the stated ceilings."""
    lw = make_weight("l", n_particles, xi)
    l_norm = float(np.max(lw))
    l_n = float(np.max(lw * make_weight("n", n_particles)))
    return WeightNormReport(n_particles, xi, l_norm, float(n_particles) ** xi * (1 + 1e-12), l_n)


# ---------------------------------------------------------------------------
# condensate projector and counting distributions (occupation representation)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CondensateProjector:
    """Reference orbital as a unit vector over the flat modes of a basis."""

    coeffs: np.ndarray

    def __post_init__(self):
        nrm = np.linalg.norm(self.coeffs)
        if abs(nrm - 1.0) > 1e-10:
            raise DomainError(f"reference orbital must be normalized, |phi| = {nrm}")

    @property
    def basis_mode(self) -> int | None:
        """The mode the orbital is, if it has a single entry above 1e-14;
        the counting functionals then read occupations instead of lowering."""
        nz = np.flatnonzero(np.abs(self.coeffs) > 1e-14)
        return int(nz[0]) if len(nz) == 1 else None


def basis_mode_projector(n_modes: int, index: int = 0) -> CondensateProjector:
    if not 0 <= index < n_modes:
        raise DomainError(f"mode {index} is outside [0, {n_modes})")
    c = np.zeros(n_modes, dtype=complex)
    c[index] = 1.0
    return CondensateProjector(c)


def condensate_projector(basis: ModeBasis, phi: CondensateState) -> CondensateProjector:
    """Projector onto Phi (x) chi^eps_0: Phi's coefficients over the plane
    waves e^(ikx)/sqrt(L) on the transverse ground modes, normalized.

    The DFT runs over grid indices while the box is centred at 0, so the
    index-k coefficient picks up (-1)^k relative to the physical wave.
    """
    ground = basis.mode_my == 0
    k = basis.mode_kx[ground]
    coeffs = np.zeros(basis.n_modes, dtype=complex)
    coeffs[ground] = (phi.coefficients()[k % phi.grid.points] * (-1.0) ** k
                      * math.sqrt(basis.box_length))
    nrm = np.linalg.norm(coeffs)
    if nrm == 0:
        raise DomainError("condensate coefficients vanish")
    return CondensateProjector(coeffs / nrm)


@dataclass(frozen=True)
class CountingDistribution:
    probs: np.ndarray
    source: str                  # "sector" or "moments"
    raw_sum: float


def _counting_sector(state: ManyBodyState, mode: int) -> np.ndarray:
    occ0 = state.fock.occupations[:, mode].astype(np.int64)
    k = state.fock.n_particles - occ0
    probs = np.zeros(state.fock.n_particles + 1)
    np.add.at(probs, k, np.abs(state.amplitudes) ** 2)
    return probs


def _moments_roundoff(n: int) -> float:
    """Bound eps * 3^N on the roundoff of the alternating factorial-moment sum."""
    return float(np.finfo(float).eps) * 3.0**n


def _lower_along(state: ManyBodyState, coeffs: np.ndarray) -> ManyBodyState:
    """a(phi) psi = sum_a conj(phi_a) a_a psi on the (N-1)-particle basis."""
    modes = np.flatnonzero(coeffs)
    sub, vecs = _lowered(state, modes[:, None])
    return ManyBodyState(sub, np.conj(coeffs[modes]) @ vecs, state.time)


def _counting_moments(state: ManyBodyState, projector: CondensateProjector) -> np.ndarray:
    """Counting measure of a general orbital from the factorial moments of n_phi.

    Normal ordering gives C(n_phi, j) = adag(phi)^j a(phi)^j / j!, so
    F_j = |a(phi)^j psi|^2 / j! and P(n_phi = i) = sum_(j >= i) (-1)^(j-i) C(j, i) F_j.
    a(phi) only lowers occupations, so a(phi)^j psi lies in the (N-j)-particle
    basis of the same cap and the result is the exact measure of psi in the
    untruncated Fock space.  The roundoff of the sum is at most
    eps C(N, i) 2^(N-i) <= eps 3^N.
    """
    n = state.fock.n_particles
    bound = _moments_roundoff(n)
    if bound > MOMENTS_ROUNDOFF_LIMIT:
        raise ToleranceError(f"factorial-moment roundoff bound {bound:.1e} at N = {n} "
                             f"exceeds {MOMENTS_ROUNDOFF_LIMIT:.0e}")
    moments = np.zeros(n + 1)
    moments[0] = state.norm**2
    for j in range(1, n + 1):
        state = _lower_along(state, projector.coeffs)
        moments[j] = state.norm**2 / math.factorial(j)
    signed_binom = np.array([[(-1) ** (j - i) * math.comb(j, i) for j in range(n + 1)]
                             for i in range(n + 1)], dtype=float)
    p_cond = signed_binom @ moments          # P(n_phi = i), i = 0..N
    return p_cond[::-1]                      # k = N - i particles outside


def counting_distribution(state: ManyBodyState,
                          projector: CondensateProjector) -> CountingDistribution:
    """P_k weights of the state: the exact occupation histogram for a
    basis-mode orbital, factorial moments for any other orbital."""
    n = state.fock.n_particles
    if projector.basis_mode is not None:
        probs, source = _counting_sector(state, projector.basis_mode), "sector"
        floor = 1e-12
    else:
        probs, source = _counting_moments(state, projector), "moments"
        floor = max(1e-12, _moments_roundoff(n))
    if np.min(probs) < -floor:
        raise ToleranceError(
            f"counting probability {np.min(probs):.2e} is below -{floor:.0e}"
        )
    raw = float(probs.sum())
    probs = np.maximum(probs, 0.0)
    if raw > 0:
        probs = probs / probs.sum()
    return CountingDistribution(probs, source, raw)


def alpha(state: ManyBodyState, weight: np.ndarray,
          projector: CondensateProjector) -> float:
    """alpha_f = sum_k f(k) <psi, P_k psi> for the weight table f(0..N)."""
    if len(weight) != state.fock.n_particles + 1:
        raise DomainError("weight table and state disagree on N")
    return float(np.sum(weight * counting_distribution(state, projector).probs))


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


def rate_bridge(gamma: np.ndarray, projector: CondensateProjector) -> RateBridge:
    """alpha_n2 = 1 - <phi, gamma phi>, clamped at 0 against the roundoff of a
    condensed gamma, and Tr|gamma - |phi><phi|| from the one-body density gamma,
    with the sandwich alpha_n2 <= Tr|.| <= sqrt(8 alpha_n2), to 1e-10."""
    c = projector.coeffs
    a2 = max(1.0 - float(np.real(np.vdot(c, gamma @ c))), 0.0)
    td = trace_distance(gamma, np.outer(c, np.conj(c)))
    upper = math.sqrt(8.0 * a2)
    holds = (a2 <= td + 1e-10) and (td <= upper + 1e-10)
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
                 rng: np.random.Generator | None = None):
        if dx < 1 or dy < 1 or n_particles < 1:
            raise DomainError("dx, dy, n_particles must be positive")
        d = dx * dy
        if d**n_particles > 2**22:
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

    def random_state(self, rng: np.random.Generator, condensate_weight: float = 0.0) -> np.ndarray:
        shape = (self.d,) * self.n
        psi = self.symmetrize(rng.normal(size=shape) + 1j * rng.normal(size=shape))
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
