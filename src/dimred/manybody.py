"""Second-quantized N-boson dynamics in a plane-wave x transverse-mode basis.

The one-body modes are products of periodic plane waves (integer momenta) and
the lowest eigenmodes of the rescaled transverse trap.  Pair matrix elements
exploit the structure of w(z - z'): longitudinal momentum is conserved
exactly, so the two-body tensor is stored as V[q, ma, mb, mc, md] with
q = k_a - k_c, assembled from a cosine transform in x and circular
transverse-density correlations in y.

Transverse energies enter shifted by the ground energy E0/eps^2
("renormalized convention"): propagation then happens without the fast
common phase and <H>/N is directly the renormalized energy per particle.

Two propagation paths share the same tensors: a sparse second-quantized
Hamiltonian driven by a Lanczos exponential for general N, and dense
momentum blocks for N = 2 without an external field when no prebuilt H is
given (a field couples different momenta, which the blocks cannot hold).  An
independent position-grid split-step solver for two particles
(``grid_oracle``) validates both.

Without a field H conserves the total momentum K = sum_a n_a k_a, so a
``FockBasis`` may hold a single K sector.  The sweep (``harness.point_setup``)
runs every field-free point in the sector of its condensate, K = 0, which
holds the initial state, H and the whole trajectory.

Both paths propagate with one fully reorthogonalized Lanczos exponential
(``lanczos_expm``); scipy's ``expm_multiply`` is only a test oracle.
``_lowered`` applies the annihilators a_a, which the reduced densities and
the factorial-moment counting in ``projectors`` share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations_with_replacement

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh, eigh_tridiagonal
from scipy.special import comb

from .config import Config
from .errors import DomainError, InstabilityError, ResolutionError, SizeError, ToleranceError
from .potentials import ConfinementPotential, ExternalPotential, ScaledInteraction
from .scaling import ScalingPoint
from .transverse import TransverseMode, _normalize_and_sign, rescale, wrapped_offsets

DEFAULT_DIM_CAP = Config({}).get_int("manybody.dim_cap")    # from the default table
GRID_CAP = 2**28
MIN_POINTS_PER_RANGE = 8
TWO_BODY_BATCH_BYTES = 1 << 23


# ---------------------------------------------------------------------------
# occupation bookkeeping
# ---------------------------------------------------------------------------

def symmetric_dimension(n_modes: int, n_particles: int, max_excitations: int | None = None) -> int:
    if max_excitations is None or max_excitations >= n_particles:
        return int(comb(n_modes + n_particles - 1, n_particles, exact=True))
    return sum(int(comb(k + n_modes - 2, k, exact=True)) for k in range(max_excitations + 1))


class FockBasis:
    """Symmetric occupation basis over M modes, mode 0 distinguished as the
    condensate; optionally truncated at a maximal number of excited particles.

    `momentum = (mode_kx, modulus, K)` keeps only the rows of total momentum
    sum_a n_a k_a = K (mod `modulus` unless it is None): a sector that H holds
    invariant when no external field breaks translation invariance.  The cap
    applies to `unrestricted_dim`, the count of rows enumerated before the
    filter.
    """

    def __init__(self, n_modes: int, n_particles: int,
                 max_excitations: int | None = None, dim_cap: int = DEFAULT_DIM_CAP,
                 momentum: tuple | None = None):
        if n_particles < 1:
            raise DomainError(f"n_particles must be >= 1, got {n_particles}")
        if n_modes < 2:
            raise DomainError(f"need at least 2 modes, got {n_modes}")
        dim = symmetric_dimension(n_modes, n_particles, max_excitations)
        if dim > dim_cap:
            raise SizeError(
                f"symmetric sector has dimension {dim} > cap {dim_cap}; "
                f"reduce the mode count, N, or the excitation truncation"
            )
        self.n_modes = n_modes
        self.n_particles = n_particles
        self.max_excitations = max_excitations
        self.unrestricted_dim = dim
        cap = n_particles if max_excitations is None else min(max_excitations, n_particles)
        # one excited mode at a time: repeat each row over the occupations that fit
        occ = np.zeros((1, 0), dtype=np.uint8)
        used = np.zeros(1, dtype=np.int64)
        for _ in range(n_modes - 1):
            reps = cap - used + 1
            row = np.repeat(np.arange(len(used)), reps)
            extra = np.arange(len(row)) - np.repeat(np.cumsum(reps) - reps, reps)
            occ = np.column_stack([occ[row], extra.astype(np.uint8)])
            used = used[row] + extra
        occ = np.column_stack([(n_particles - used).astype(np.uint8), occ])
        if momentum is not None:
            mode_kx, modulus, k_total = momentum
            off = occ.astype(np.int64) @ np.asarray(mode_kx, dtype=np.int64) - k_total
            occ = occ[(off == 0) if modulus is None else (off % modulus == 0)]
            if len(occ) == 0:
                raise DomainError(f"no occupation row has total momentum {k_total}")
        order = np.argsort(self._pack(occ))
        self.occupations = np.ascontiguousarray(occ[order])
        self._packed = self._pack(self.occupations)
        self.dim = len(self.occupations)

    @staticmethod
    def _pack(occ: np.ndarray) -> np.ndarray:
        occ = np.ascontiguousarray(occ, dtype=np.uint8)
        return occ.view(np.dtype((np.void, occ.shape[1]))).ravel()

    def lookup(self, occ: np.ndarray) -> np.ndarray:
        """Indices of occupation rows; -1 where a row is not in the basis."""
        packed = self._pack(occ.astype(np.uint8))
        pos = np.searchsorted(self._packed, packed)
        pos_c = np.minimum(pos, self.dim - 1)
        hit = self._packed[pos_c] == packed
        return np.where(hit, pos_c, -1).astype(np.int64)


@dataclass
class ManyBodyState:
    fock: FockBasis
    amplitudes: np.ndarray
    time: float = 0.0

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def product_state(fock: FockBasis, coeffs: np.ndarray, time: float = 0.0) -> ManyBodyState:
    """Condensate (phi)^(x N) for a one-body coefficient vector phi.

    With an excitation truncation the state is the renormalized restriction;
    the discarded weight is tiny for condensate-like phi and is checked.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    if coeffs.shape != (fock.n_modes,):
        raise DomainError("coefficient vector length must match the mode count")
    nrm = np.linalg.norm(coeffs)
    if abs(nrm - 1.0) > 1e-8:
        coeffs = coeffs / nrm
    n = fock.n_particles
    occ = fock.occupations.astype(np.int64)
    log_fact = np.cumsum(np.concatenate(([0.0], np.log(np.arange(1, n + 1)))))
    log_multinomial = log_fact[n] - log_fact[occ].sum(axis=1)
    mag = np.abs(coeffs)
    log_mag = np.log(np.where(mag > 0, mag, 1.0))
    amp = np.exp(0.5 * log_multinomial + occ @ log_mag) * np.exp(1j * (occ @ np.angle(coeffs)))
    # rows that occupy a mode phi leaves empty
    amp[(occ[:, mag == 0] > 0).any(axis=1)] = 0.0
    retained = np.linalg.norm(amp)
    if retained < 0.9:
        raise ResolutionError(
            f"excitation truncation retains only {retained**2:.3f} of the product state"
        )
    return ManyBodyState(fock, amp / retained, time)


# ---------------------------------------------------------------------------
# mode basis and matrix elements
# ---------------------------------------------------------------------------

@dataclass
class ModeBasis:
    """One- and two-body matrix elements over plane-wave x transverse modes."""

    point: ScalingPoint
    scaled: ScaledInteraction
    box_length: float
    kx: np.ndarray                # integer momentum per longitudinal mode, ascending
    transverse: TransverseMode    # rescaled; `modes` starts with the M_y basis eigenfunctions
    mode_kx: np.ndarray           # per flat mode: integer momentum
    mode_my: np.ndarray           # per flat mode: transverse index
    energies: np.ndarray          # shifted one-body energies kx_phys^2 + (E_m - E_0)/eps^2
    e0_scaled: float              # E_0 / eps^2
    vq: np.ndarray                # (n_q, My, My, My, My) transverse interaction factors
    q_of_m: dict                  # integer momentum difference -> vq row
    momentum_modulus: int | None  # n_x for grid-matched bases (conservation mod n), else None
    external: ExternalPotential | None = None
    _vpar_cache: dict = field(default_factory=dict, repr=False)

    @property
    def n_modes(self) -> int:
        return len(self.mode_kx)

    @property
    def m_x(self) -> int:
        return len(self.kx)

    @property
    def m_y(self) -> int:
        return int(self.mode_my.max()) + 1

    @property
    def time_dependent(self) -> bool:
        return self.external is not None and self.external.time_dependent

    def mode_index(self, kx_int: int, my: int) -> int:
        hit = np.where((self.mode_kx == kx_int) & (self.mode_my == my))[0]
        if len(hit) == 0:
            raise DomainError(f"mode (kx={kx_int}, my={my}) not in basis")
        return int(hit[0])

    def w_element(self, a: int, b: int, c: int, d: int) -> complex:
        """<ab|w|cd>; zero unless longitudinal momentum is conserved."""
        ktot = self.mode_kx[c] + self.mode_kx[d] - self.mode_kx[a] - self.mode_kx[b]
        if self.momentum_modulus is not None:
            if ktot % self.momentum_modulus != 0:
                return 0.0
        elif ktot != 0:
            return 0.0
        q = int(self.mode_kx[a] - self.mode_kx[c])
        if self.momentum_modulus is not None:
            q %= self.momentum_modulus
        row = self.q_of_m.get(q)
        if row is None:
            return 0.0
        return self.vq[row, self.mode_my[a], self.mode_my[b],
                       self.mode_my[c], self.mode_my[d]] / self.box_length

    def one_body(self, t: float = 0.0) -> np.ndarray:
        """Shifted one-body matrix including the external field at time t."""
        h = np.diag(self.energies.astype(complex))
        if self.external is not None:
            h = h + self._vpar_matrix(t)
        return h

    def _vpar_matrix(self, t: float) -> np.ndarray:
        key = None if self.external.time_dependent else "static"
        if key is not None and key in self._vpar_cache:
            return self._vpar_cache[key]
        n_aux = max(8 * self.m_x, 1024)
        x = np.arange(n_aux) * self.box_length / n_aux - self.box_length / 2.0
        tau = self.transverse.modes[:self.m_y]
        y = self.transverse.axis
        wy = self.transverse.weight
        if self.transverse.dimension == 1:
            vxy = np.asarray(self.external.evaluator(t, x[:, None], y[None, :], 0.0), dtype=float)
        else:
            yy1, yy2 = np.meshgrid(y, y, indexing="ij")
            vxy = np.asarray(
                self.external.evaluator(t, x[:, None, None], yy1[None], yy2[None]), dtype=float
            ).reshape(n_aux, -1)
            tau = tau.reshape(self.m_y, -1)
        # transverse quadrature: (n_aux, My, My)
        v_t = np.einsum("xg,mg,ng->xmn", vxy, tau, tau) * wy
        # (1/L) int e^{i dk (2 pi/L) x} V dx over the centered box: the inverse
        # FFT gives the +dk coefficients and (-1)^dk restores the -L/2 origin
        ft = np.fft.ifft(v_t, axis=0)
        dk = self.mode_kx[None, :] - self.mode_kx[:, None]
        my = self.mode_my
        h = ft[dk % n_aux, my[:, None], my[None, :]] * (-1.0) ** dk
        if key is not None:
            self._vpar_cache[key] = h
        return h


def _pair_products(modes: np.ndarray) -> np.ndarray:
    """f[m, n, ...] = tau_m * tau_n pointwise."""
    return modes[:, None] * modes[None, :]


def _correlations(pairs: np.ndarray, weight: float, dim: int) -> np.ndarray:
    """Circular correlations S[P, Q, u] = w * sum_y f_P(y) f_Q(y - u)."""
    my = pairs.shape[0]
    flat = pairs.reshape(my * my, *pairs.shape[2:])
    if dim == 1:
        f = np.fft.fft(flat, axis=-1)
        corr = np.fft.ifft(f[:, None, :] * np.conj(f[None, :, :]), axis=-1).real
    else:
        f = np.fft.fft2(flat, axes=(-2, -1))
        corr = np.fft.ifft2(f[:, None] * np.conj(f[None, :]), axes=(-2, -1)).real
    return weight * corr.reshape(my, my, my, my, *pairs.shape[2:])


def _cosine_transform_x(scaled: ScaledInteraction, q_values: np.ndarray,
                        u_norms: np.ndarray, n_gl: int = 48) -> np.ndarray:
    """W[qi, u] = int w(sqrt(s^2 + |u|^2)) e^(-i q s) ds by Gauss-Legendre in s."""
    r = scaled.range
    out = np.zeros((len(q_values), len(u_norms)))
    inside = u_norms < r
    if not np.any(inside):
        return out
    smax = np.sqrt(np.maximum(r**2 - u_norms[inside] ** 2, 0.0))
    nodes, weights = np.polynomial.legendre.leggauss(n_gl)
    s = 0.5 * smax[None, :] * (nodes[:, None] + 1.0)          # (n_gl, n_u_in)
    wgt = 0.5 * smax[None, :] * weights[:, None]
    rad = np.sqrt(s**2 + u_norms[inside][None, :] ** 2)
    wv = scaled(rad)
    cosqs = np.cos(q_values[:, None, None] * s[None, :, :])   # (n_q, n_gl, n_u_in)
    out[:, inside] = 2.0 * np.einsum("qgu,gu->qu", cosqs, wv * wgt)
    return out


def _grid_transform_x(scaled: ScaledInteraction, box_length: float, n_x: int,
                      u_norms: np.ndarray) -> np.ndarray:
    """Grid-matched cosine transform: h_x * FFT over wrapped x offsets."""
    h_x = box_length / n_x
    s = (np.arange(n_x) * h_x + box_length / 2.0) % box_length - box_length / 2.0
    rad = np.sqrt(s[:, None] ** 2 + u_norms[None, :] ** 2)
    wv = scaled(rad)
    return h_x * np.fft.fft(wv, axis=0).real


def _assemble_vq_grid(scaled, transverse: TransverseMode, x_transform) -> np.ndarray:
    """V[qi, ma, mb, mc, md] = w_u sum_u What(q, u) S_(ma mc),(mb md)(u) on the
    literal grid offsets (the exact pairing the position-grid dynamics uses)."""
    axis = transverse.axis
    dim = transverse.dimension
    if dim == 1:
        offs = wrapped_offsets(axis)
        u_norms = np.abs(offs)
        weight_u = transverse.spacing
    else:
        o = wrapped_offsets(axis)
        u1, u2 = np.meshgrid(o, o, indexing="ij")
        u_norms = np.sqrt(u1**2 + u2**2).ravel()
        weight_u = transverse.spacing**2
    what = x_transform(u_norms)                      # (n_q, n_u)
    pairs = _pair_products(transverse.modes)
    corr = _correlations(pairs, transverse.weight, dim)
    my = transverse.modes.shape[0]
    corr = corr.reshape(my, my, my, my, -1)          # index order (ma, mc, mb, md, u)
    return weight_u * np.einsum("qu,acbdu->qabcd", what, corr)


def _assemble_vq_continuum(scaled, transverse: TransverseMode, my: int, x_transform,
                           n_gl: int = 64) -> np.ndarray:
    """Continuum variant over the first `my` transverse modes: spline the exact
    grid correlations in the offset and Gauss-integrate against What over the
    interaction support, which handles the square-root edge of compactly
    supported profiles far better than a trapezoid sum at the grid spacing."""
    from scipy.interpolate import CubicSpline

    axis = transverse.axis
    dim = transverse.dimension
    r = scaled.range
    pairs = _pair_products(transverse.modes[:my])
    corr = _correlations(pairs, transverse.weight, dim)
    nodes, weights = np.polynomial.legendre.leggauss(n_gl)
    if dim == 1:
        offs = wrapped_offsets(axis)
        order = np.argsort(offs)
        corr_flat = corr.reshape(my**4, -1)[:, order]
        splines = CubicSpline(offs[order], corr_flat, axis=1)
        u = r * nodes
        uw = r * weights
        s_at = splines(u)                            # (my^4, n_gl)
    else:
        o = wrapped_offsets(axis)
        order = np.argsort(o)
        corr_sorted = corr.reshape(my**4, len(o), len(o))[:, order][:, :, order]
        # radial offsets: interpolate on the sorted 2-d offset grid
        from scipy.interpolate import RegularGridInterpolator

        u = 0.5 * r * (nodes + 1.0)
        uw = 0.5 * r * weights * 2.0 * math.pi * u
        theta = np.linspace(0.0, 2.0 * math.pi, 33)[:-1]
        pts = np.stack([np.outer(u, np.cos(theta)).ravel(),
                        np.outer(u, np.sin(theta)).ravel()], axis=1)
        s_at = np.empty((my**4, len(u)))
        for idx in range(my**4):
            interp = RegularGridInterpolator((o[order], o[order]), corr_sorted[idx],
                                             bounds_error=False, fill_value=0.0)
            vals = interp(pts).reshape(len(u), len(theta))
            s_at[idx] = vals.mean(axis=1)
    what = x_transform(np.abs(u))                    # (n_q, n_gl)
    vq = np.einsum("qg,pg,g->qp", what, s_at, uw)
    # flattened correlation index order is (ma, mc, mb, md); emit (ma, mb, mc, md)
    return vq.reshape(-1, my, my, my, my).transpose(0, 1, 3, 2, 4)


def build_basis(
    point: ScalingPoint,
    confinement: ConfinementPotential,
    external: ExternalPotential | None,
    scaled: ScaledInteraction,
    m_x: int,
    m_y: int,
    box_length: float,
    unscaled_mode: TransverseMode,
) -> ModeBasis:
    """Continuum mode basis: m_x symmetric plane waves x the first m_y trap
    eigenmodes of `unscaled_mode`, rescaled to the point's epsilon."""
    if m_x % 2 == 0:
        raise DomainError("m_x must be odd so the plane-wave set is symmetric around 0")
    if scaled.d_perp != confinement.dimension:
        raise DomainError("interaction d_perp must match the confinement dimension")
    if unscaled_mode.modes.shape[0] < m_y:
        raise DomainError("unscaled_mode holds fewer than m_y eigenmodes")
    tmode = rescale(unscaled_mode, point.epsilon)
    ppr = scaled.range / tmode.spacing
    if ppr < MIN_POINTS_PER_RANGE:
        raise ResolutionError(
            f"transverse grid has {ppr:.1f} points across the interaction range "
            f"(need >= {MIN_POINTS_PER_RANGE}); refine the unscaled grid"
        )
    half = m_x // 2
    kx = np.arange(-half, half + 1, dtype=np.int64)
    mode_kx = np.repeat(kx, m_y)
    mode_my = np.tile(np.arange(m_y, dtype=np.int64), m_x)
    # condensate mode (kx=0, my=0) first
    order = np.lexsort((mode_my, mode_kx, (mode_kx != 0) | (mode_my != 0)))
    mode_kx, mode_my = mode_kx[order], mode_my[order]
    e_t = tmode.energies[:m_y] - tmode.energies[0]
    energies = (2.0 * math.pi * mode_kx / box_length) ** 2 + e_t[mode_my]
    q_ints = np.arange(-(m_x - 1), m_x, dtype=np.int64)
    q_phys = 2.0 * math.pi * q_ints / box_length
    vq = _assemble_vq_continuum(scaled, tmode, m_y,
                                lambda u: _cosine_transform_x(scaled, q_phys, u))
    return ModeBasis(
        point=point, scaled=scaled, box_length=box_length, kx=kx,
        transverse=tmode, mode_kx=mode_kx, mode_my=mode_my,
        energies=energies.astype(float), e0_scaled=float(tmode.energies[0]),
        vq=vq, q_of_m={int(q): i for i, q in enumerate(q_ints)},
        momentum_modulus=None, external=external,
    )


def build_grid_matched_basis(
    point: ScalingPoint,
    confinement: ConfinementPotential,
    scaled: ScaledInteraction,
    n_x: int,
    n_y: int,
    box_length: float,
    y_span: float,
) -> ModeBasis:
    """Complete mode basis of the (n_x, n_y) product grid with periodic spectral
    kinetic terms; unitarily equivalent to the grid_oracle discretization."""
    if scaled.d_perp != 1 or confinement.dimension != 1:
        raise DomainError("the grid-matched basis is implemented for d_perp = 1")
    h_y = y_span / n_y
    y = np.arange(n_y) * h_y - y_span / 2.0
    ky = 2.0 * math.pi * np.fft.fftfreq(n_y, d=h_y)
    kin = np.fft.ifft(ky[:, None] ** 2 * np.fft.fft(np.eye(n_y), axis=0), axis=0).real
    v_scaled = confinement.on_grid(y / point.epsilon) / point.epsilon**2
    ham = kin + np.diag(v_scaled)
    vals, vecs = eigh((ham + ham.T) / 2.0)
    modes = np.stack([_normalize_and_sign(vecs[:, i], h_y) for i in range(n_y)])
    tmode = TransverseMode(axis=y, chi=modes[0], modes=modes,
                           energies=vals, dimension=1, epsilon=point.epsilon)
    # no points-per-range gate here: the pair potential is discretized on the
    # shared grid, and the mode basis is complete for exactly that model
    kx = np.sort(np.fft.fftfreq(n_x, d=1.0 / n_x).astype(np.int64))
    mode_kx = np.repeat(kx, n_y)
    mode_my = np.tile(np.arange(n_y, dtype=np.int64), n_x)
    order = np.lexsort((mode_my, mode_kx, (mode_kx != 0) | (mode_my != 0)))
    mode_kx, mode_my = mode_kx[order], mode_my[order]
    energies = (2.0 * math.pi * mode_kx / box_length) ** 2 + (vals - vals[0])[mode_my]
    vq = _assemble_vq_grid(scaled, tmode, lambda u: _grid_transform_x(scaled, box_length, n_x, u))
    q_of_m = {m: m for m in range(n_x)}
    return ModeBasis(
        point=point, scaled=scaled, box_length=box_length, kx=kx,
        transverse=tmode, mode_kx=mode_kx, mode_my=mode_my,
        energies=energies.astype(float), e0_scaled=float(vals[0]),
        vq=vq, q_of_m=q_of_m, momentum_modulus=n_x, external=None,
    )


# ---------------------------------------------------------------------------
# second-quantized operators
# ---------------------------------------------------------------------------

def one_body_operator(fock: FockBasis, h: np.ndarray) -> sp.csr_matrix:
    """Sparse sum_ab h[a,b] adag_a a_b on the occupation basis."""
    occ = fock.occupations
    dim, m = occ.shape
    rows, cols, vals = [], [], []
    diag = occ.astype(float) @ np.real(np.diag(h))
    rows.append(np.arange(dim)); cols.append(np.arange(dim)); vals.append(diag.astype(complex))
    for b in range(m):
        has = np.where(occ[:, b] > 0)[0]
        if len(has) == 0:
            continue
        base = occ[has].astype(np.int16)
        nb = base[:, b].astype(float)
        for a in range(m):
            if a == b or h[a, b] == 0:
                continue
            tgt = base.copy()
            tgt[:, b] -= 1
            tgt[:, a] += 1
            if fock.max_excitations is not None:
                exc = fock.n_particles - tgt[:, 0]
                keep = exc <= fock.max_excitations
            else:
                keep = np.ones(len(has), dtype=bool)
            idx = fock.lookup(tgt[keep])
            ok = idx >= 0
            src = has[keep][ok]
            amp = np.sqrt(nb[keep][ok] * (base[keep][ok, a] + 1.0))
            rows.append(idx[ok]); cols.append(src); vals.append(h[a, b] * amp)
    data = np.concatenate([np.asarray(v, dtype=complex) for v in vals])
    return sp.csr_matrix(
        (data, (np.concatenate(rows), np.concatenate(cols))), shape=(dim, dim)
    )


def number_expectations(state: ManyBodyState) -> np.ndarray:
    """<n_a> for every mode."""
    w = np.abs(state.amplitudes) ** 2
    return state.fock.occupations.astype(float).T @ w


def _w_gather(basis: ModeBasis, a, b, c, d) -> np.ndarray:
    """Vectorized <ab|w|cd> for momentum-conserving index arrays."""
    q = basis.mode_kx[a] - basis.mode_kx[c]
    if basis.momentum_modulus is not None:
        rows = q % basis.momentum_modulus
    else:
        rows = q + (basis.m_x - 1)
    my = basis.mode_my
    flat = (((rows * basis.m_y + my[a]) * basis.m_y + my[b]) * basis.m_y
            + my[c]) * basis.m_y + my[d]
    return basis.vq.reshape(-1)[flat] / basis.box_length


def _interaction_terms(basis: ModeBasis):
    """Index arrays (a, b, c, d) and weights W of every nonzero term of
    1/2 sum W_abcd adag_a adag_b a_d a_c, with a <= b and c <= d.

    adag_a adag_b and a_d a_c are symmetric in their two modes, so the weight
    of each term is <ab|w|cd> summed over the distinct orderings of (a, b) and
    of (c, d).  Terms come sorted by (c, d).  Momentum conservation fixes k_b
    given (a, c, d), so m^3 m_y candidates are gathered from vq.
    """
    m, m_y = basis.n_modes, basis.m_y
    mode_kx = basis.mode_kx
    kmin, kmax = int(basis.kx.min()), int(basis.kx.max())
    # both basis builders take every (k, m_y) pair, so every slot is filled
    mode_at = np.empty((kmax - kmin + 1, m_y), dtype=np.int64)
    mode_at[mode_kx - kmin, basis.mode_my] = np.arange(m)
    c, d, a = (g.ravel() for g in np.meshgrid(np.arange(m), np.arange(m), np.arange(m),
                                              indexing="ij"))
    kb = mode_kx[c] + mode_kx[d] - mode_kx[a]
    if basis.momentum_modulus is not None:
        kb = (kb - kmin) % basis.momentum_modulus + kmin
    inside = (kb >= kmin) & (kb <= kmax)
    a, c, d = (np.repeat(x[inside], m_y) for x in (a, c, d))
    b = mode_at[kb[inside] - kmin].ravel()
    w = _w_gather(basis, a, b, c, d)
    nz = w != 0.0
    a, b, c, d, w = a[nz], b[nz], c[nz], d[nz], w[nz]
    a, b = np.minimum(a, b), np.maximum(a, b)
    c, d = np.minimum(c, d), np.maximum(c, d)
    keys, pos = np.unique(((c * m + d) * m + a) * m + b, return_inverse=True)
    weight = np.zeros(len(keys), dtype=w.dtype)
    np.add.at(weight, pos, w)
    keys, weight = keys[weight != 0.0], weight[weight != 0.0]
    keys, b = np.divmod(keys, m)
    keys, a = np.divmod(keys, m)
    c, d = np.divmod(keys, m)
    return a, b, c, d, weight


def two_body_operator(basis: ModeBasis, fock: FockBasis) -> sp.csr_matrix:
    """Sparse 1/2 sum W_abcd adag_a adag_b a_d a_c on the occupation basis.

    For each (c, d) the source rows are lowered once; the creations of all the
    terms sharing (c, d) are applied to them in batches of at most
    TWO_BODY_BATCH_BYTES of target occupations, each resolved by one lookup.
    """
    a, b, c, d, weight = _interaction_terms(basis)
    occ = fock.occupations
    dim, m = occ.shape
    rows, cols, vals = [], [], []
    starts = np.flatnonzero(np.diff(c * m + d, prepend=-1))
    for lo, hi in zip(starts, np.append(starts[1:], len(c))):
        cc, dd = c[lo], d[lo]
        src = np.flatnonzero((occ[:, cc] >= 1) & (occ[:, dd] >= 1 + (cc == dd)))
        if len(src) == 0:
            continue
        base = occ[src]
        amp_cd = np.sqrt(base[:, cc] * (base[:, dd] - float(cc == dd)))
        base[:, cc] -= 1
        base[:, dd] -= 1
        step = max(1, TWO_BODY_BATCH_BYTES // (len(src) * m))
        for j in range(lo, hi, step):
            stop = min(j + step, hi)
            aa, bb = a[j:stop], b[j:stop]
            n_b = base[:, bb].T.astype(float)
            n_a = base[:, aa].T + (aa == bb)[:, None]
            amp = np.sqrt((n_a + 1.0) * (n_b + 1.0)) * amp_cd
            tgt = np.repeat(base[None], len(aa), axis=0)
            term = np.arange(len(aa))[:, None]
            every = np.arange(len(src))[None, :]
            tgt[term, every, aa[:, None]] += 1
            tgt[term, every, bb[:, None]] += 1
            idx = fock.lookup(tgt.reshape(-1, m)).reshape(len(aa), len(src))
            hit = idx >= 0
            rows.append(idx[hit])
            cols.append(np.broadcast_to(src, idx.shape)[hit])
            vals.append((0.5 * weight[j:stop, None] * amp)[hit])
    if not rows:
        return sp.csr_matrix((dim, dim), dtype=complex)
    data = np.concatenate(vals).astype(complex)
    return sp.csr_matrix((data, (np.concatenate(rows), np.concatenate(cols))),
                         shape=(dim, dim))


def hamiltonian(basis: ModeBasis, fock: FockBasis, t: float = 0.0) -> sp.csr_matrix:
    """Sparse H(t) = sum h_ab adag_a a_b + 1/2 sum W_abcd adag_a adag_b a_d a_c."""
    return one_body_operator(fock, basis.one_body(t)) + two_body_operator(basis, fock)


# ---------------------------------------------------------------------------
# N = 2 dense momentum-block Hamiltonian
# ---------------------------------------------------------------------------

@dataclass
class PairBlocks:
    pair_indices: list          # per block: (n_pairs, 2) mode indices (a <= b)
    state_rows: list            # per block: row indices into the Fock basis
    h_blocks: list              # per block: dense Hermitian matrix


def pair_blocks(basis: ModeBasis, fock: FockBasis) -> PairBlocks:
    if fock.n_particles != 2:
        raise DomainError("pair blocks require N = 2")
    if basis.external is not None:
        raise DomainError("pair blocks require momentum conservation: no external field")
    occ = fock.occupations
    pairs = np.zeros((fock.dim, 2), dtype=np.int64)
    for i in range(fock.dim):
        nz = np.nonzero(occ[i])[0]
        pairs[i] = (nz[0], nz[0]) if len(nz) == 1 else (nz[0], nz[1])
    ktot = basis.mode_kx[pairs[:, 0]] + basis.mode_kx[pairs[:, 1]]
    if basis.momentum_modulus is not None:
        ktot = ktot % basis.momentum_modulus
    h1 = basis.one_body()
    blocks = PairBlocks([], [], [])
    for kval in np.unique(ktot):
        sel = np.where(ktot == kval)[0]
        plist = pairs[sel]
        a = plist[:, 0][:, None]
        b = plist[:, 1][:, None]
        c = plist[:, 0][None, :]
        d = plist[:, 1][None, :]
        one = (np.where(b == d, h1[a, c], 0.0) + np.where(b == c, h1[a, d], 0.0)
               + np.where(a == d, h1[b, c], 0.0) + np.where(a == c, h1[b, d], 0.0))
        w_part = _w_gather(basis, a, b, c, d) + _w_gather(basis, a, b, d, c)
        eta = 1.0 / np.sqrt(1.0 + (plist[:, 0] == plist[:, 1]).astype(float))
        hmat = eta[:, None] * eta[None, :] * (one + w_part)
        hmat = (hmat + hmat.conj().T) / 2.0
        blocks.pair_indices.append(plist)
        blocks.state_rows.append(sel)
        blocks.h_blocks.append(hmat)
    return blocks


# ---------------------------------------------------------------------------
# Lanczos propagation
# ---------------------------------------------------------------------------

def lanczos_expm(apply_h, v: np.ndarray, dt: float, tol: float = 1e-10,
                 m_max: int = 40) -> np.ndarray:
    """exp(-1j dt H) v for Hermitian H given by its action.

    Each Krylov space (at most m_max vectors, fully reorthogonalized) grows
    until it breaks down or reaches the error budget tol * h / dt for the rest
    h of the interval.  If it does not reach it, it advances by the largest
    h = rest / 2^k it does reach, and the next space starts from the advanced
    vector: a shorter step reuses the basis.
    """
    def expm_e1(alphas, betas, h):
        # exp(-1j h T) e_1, and whether the estimate |beta_m h y_m| is in budget
        evals, evecs = eigh_tridiagonal(np.asarray(alphas), np.asarray(betas[:-1]))
        y = evecs @ (np.exp(-1j * h * evals) * evecs[0])
        return y, betas[-1] < 1e-14 or abs(betas[-1] * h * y[-1]) < tol * (h / dt)

    if np.linalg.norm(v) == 0.0:
        return v.copy()
    rest = dt
    while True:
        nrm = np.linalg.norm(v)
        vecs = [v / nrm]
        alphas, betas = [], []
        while True:
            w = apply_h(vecs[-1])
            alphas.append(float(np.real(np.vdot(vecs[-1], w))))
            w = w - alphas[-1] * vecs[-1]
            if betas:
                w = w - betas[-1] * vecs[-2]
            # full reorthogonalization: cheap at these Krylov sizes, prevents ghosts
            for u in vecs:
                w = w - np.vdot(u, w) * u
            betas.append(float(np.linalg.norm(w)))
            if len(alphas) == m_max or expm_e1(alphas, betas, rest)[1]:
                break
            vecs.append(w / betas[-1])
        for k in range(31):
            h = rest / 2**k
            y, reached = expm_e1(alphas, betas, h)
            if reached:
                break
        else:
            raise ToleranceError("Lanczos propagator failed to converge after 30 halvings")
        out = np.zeros_like(v)
        for coeff, u in zip(y, vecs):
            out += coeff * u
        v = nrm * out
        if h == rest:
            return v
        rest -= h


@dataclass
class ManyBodyTrajectory:
    times: list = field(default_factory=list)
    states: list = field(default_factory=list)
    norm_drift: float = 0.0

    def record(self, state: ManyBodyState) -> None:
        self.times.append(state.time)
        self.states.append(state)

    @property
    def final(self) -> ManyBodyState:
        return self.states[-1]


def evolve(state: ManyBodyState, basis: ModeBasis, dt: float, t_final: float,
           n_outputs: int = 5, krylov_tol: float = 1e-10,
           h: sp.spmatrix | None = None) -> ManyBodyTrajectory:
    """Propagate under H(t), recording n_outputs + 1 equally spaced states.

    Time-independent Hamiltonians take one Krylov step per output interval;
    time-dependent ones take midpoint-frozen steps of dt, and each output
    interval must be a whole number of them.

    `h` is a prebuilt static H (``hamiltonian(basis, state.fock)``), so callers
    that already hold it do not pay for a second assembly; it is used at every
    N.  A time-dependent field rebuilds only its one-body part per step and
    takes no `h`.  Without `h`, N = 2 without a field runs on the dense
    momentum blocks.
    """
    if t_final <= state.time:
        raise DomainError("t_final must exceed the state time")
    time_dep = basis.time_dependent
    if time_dep and h is not None:
        raise DomainError("a prebuilt h needs a static field")
    fock = state.fock
    out_dt = (t_final - state.time) / n_outputs
    if h is None and fock.n_particles == 2 and basis.external is None:
        blocks = pair_blocks(basis, fock)

        def advance(psi, t):
            new = np.zeros_like(psi)
            for sel, hmat in zip(blocks.state_rows, blocks.h_blocks):
                new[sel] = lanczos_expm(lambda x, H=hmat: H @ x, psi[sel], out_dt,
                                        tol=krylov_tol)
            return new
    elif time_dep:
        steps = int(round(out_dt / dt))
        if abs(steps * dt - out_dt) > 1e-9 * max(1.0, t_final):
            raise DomainError("each output interval must be a whole number of dt steps")
        v2 = two_body_operator(basis, fock)

        def advance(psi, t):
            for s in range(steps):
                h_mid = v2 + one_body_operator(fock, basis.one_body(t + (s + 0.5) * dt))
                psi = lanczos_expm(lambda x: h_mid @ x, psi, dt, tol=krylov_tol)
            return psi
    else:
        if h is None:
            h = hamiltonian(basis, fock, state.time)

        def advance(psi, t):
            return lanczos_expm(lambda x: h @ x, psi, out_dt, tol=krylov_tol)
    traj = ManyBodyTrajectory()
    traj.record(state)
    psi = state.amplitudes.copy()
    for j in range(1, n_outputs + 1):
        psi = advance(psi, traj.times[-1])
        t = state.time + j * out_dt
        if not np.all(np.isfinite(psi.view(float))):
            raise InstabilityError(f"non-finite amplitudes at t = {t:.6g}")
        traj.norm_drift = max(traj.norm_drift, abs(np.linalg.norm(psi) - 1.0))
        psi = psi / np.linalg.norm(psi)
        traj.record(ManyBodyState(fock, psi.copy(), t))
    return traj


# ---------------------------------------------------------------------------
# observables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReducedDensity:
    order: int
    matrix: np.ndarray

    @property
    def trace(self) -> float:
        return float(np.real(np.trace(self.matrix)))

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.matrix)[0])


def _lowered(state: ManyBodyState, modes: list[int]) -> tuple[FockBasis, np.ndarray]:
    """One column per listed mode a: the (N-1)-particle vector a_a psi."""
    fock = state.fock
    sub = FockBasis(fock.n_modes, fock.n_particles - 1, fock.max_excitations,
                    dim_cap=max(DEFAULT_DIM_CAP, fock.unrestricted_dim))
    vecs = np.zeros((len(modes), sub.dim), dtype=complex)
    for col, a in enumerate(modes):
        has = np.where(fock.occupations[:, a] > 0)[0]
        tgt = fock.occupations[has].astype(np.int16)
        amp = np.sqrt(tgt[:, a].astype(float))
        tgt[:, a] -= 1
        idx = sub.lookup(tgt)
        ok = idx >= 0
        np.add.at(vecs[col], idx[ok], amp[ok] * state.amplitudes[has[ok]])
    return sub, vecs


def reduced_density(state: ManyBodyState, k: int = 1) -> ReducedDensity:
    """gamma^(k), trace-normalized to 1 (k in {1, 2})."""
    fock = state.fock
    if k not in (1, 2):
        raise DomainError(f"k must be 1 or 2, got {k}")
    if fock.n_particles < k:
        raise DomainError("need at least k particles")
    m = fock.n_modes
    if k == 1:
        _, vecs = _lowered(state, list(range(m)))
        gamma = (vecs @ vecs.conj().T) / fock.n_particles
    else:
        n = fock.n_particles
        pair_list = list(combinations_with_replacement(range(m), 2))
        sub2 = FockBasis(m, n - 2, fock.max_excitations,
                         dim_cap=max(DEFAULT_DIM_CAP, fock.unrestricted_dim))
        lowered = np.zeros((len(pair_list), sub2.dim), dtype=complex)
        occ = fock.occupations
        for col, (a, b) in enumerate(pair_list):
            need_a = 1 + (1 if a == b else 0)
            has = np.where((occ[:, a] >= (2 if a == b else 1)) & (occ[:, b] >= 1))[0]
            if len(has) == 0:
                continue
            tgt = occ[has].astype(np.int16)
            amp = np.sqrt(tgt[:, a].astype(float))
            tgt[:, a] -= 1
            amp *= np.sqrt(tgt[:, b].astype(float))
            tgt[:, b] -= 1
            idx = sub2.lookup(tgt)
            ok = idx >= 0
            np.add.at(lowered[col], idx[ok], amp[ok] * state.amplitudes[has[ok]])
        small = (lowered @ lowered.conj().T) / (n * (n - 1))
        gamma = np.zeros((m * m, m * m), dtype=complex)
        for i, (a, b) in enumerate(pair_list):
            for j, (c, d) in enumerate(pair_list):
                val = small[i, j]
                for (p, q) in {(a, b), (b, a)}:
                    for (r, s) in {(c, d), (d, c)}:
                        gamma[p * m + q, r * m + s] = val
        gamma /= np.real(np.trace(gamma))
    gamma = (gamma + gamma.conj().T) / 2.0
    return ReducedDensity(k, gamma)


def expectation(state: ManyBodyState, op: sp.spmatrix) -> float:
    return float(np.real(np.vdot(state.amplitudes, op @ state.amplitudes)))


def renormalized_energy(state: ManyBodyState, basis: ModeBasis, t: float | None = None,
                        h: sp.spmatrix | None = None) -> float:
    """<psi, H(t) psi>/N - E0/eps^2; the basis stores shifted energies, so this
    is just the expectation of the stored Hamiltonian per particle."""
    t = state.time if t is None else t
    if state.fock.n_particles == 2 and h is None and basis.external is None:
        blocks = pair_blocks(basis, state.fock)
        tot = 0.0
        for sel, hm in zip(blocks.state_rows, blocks.h_blocks):
            seg = state.amplitudes[sel]
            tot += float(np.real(np.vdot(seg, hm @ seg)))
        return tot / 2.0
    if h is None:
        h = hamiltonian(basis, state.fock, t)
    return expectation(state, h) / state.fock.n_particles


def condensate_coefficients(basis: ModeBasis, phi_x_coeffs: np.ndarray) -> np.ndarray:
    """One-body coefficients of Phi (x) chi^eps_0 in the flat mode ordering.

    phi_x_coeffs[j] multiplies the plane wave with integer momentum basis.kx[j].
    """
    c = np.zeros(basis.n_modes, dtype=complex)
    for j, kint in enumerate(basis.kx):
        c[basis.mode_index(int(kint), 0)] = phi_x_coeffs[j]
    nrm = np.linalg.norm(c)
    if nrm == 0:
        raise DomainError("condensate coefficients vanish")
    return c / nrm


def transverse_excited_fraction(state: ManyBodyState, basis: ModeBasis) -> float:
    """||q^chi_1 psi|| = sqrt(sum_(my != 0) <n_a> / N)."""
    occ_exp = number_expectations(state)
    frac = occ_exp[basis.mode_my != 0].sum() / state.fock.n_particles
    return math.sqrt(max(frac, 0.0))


# ---------------------------------------------------------------------------
# two-particle position-grid oracle (d_perp = 1)
# ---------------------------------------------------------------------------

@dataclass
class GridOracle:
    """Split-step propagation of psi(x1, y1, x2, y2) on a periodic product grid."""

    point: ScalingPoint
    confinement: ConfinementPotential
    scaled: ScaledInteraction
    box_length: float
    n_x: int
    n_y: int
    y_span: float
    external: ExternalPotential | None = None

    def __post_init__(self):
        if self.scaled.d_perp != 1 or self.confinement.dimension != 1:
            raise DomainError("grid oracle is implemented for d_perp = 1")
        total = (self.n_x * self.n_y) ** 2
        if total > GRID_CAP:
            raise SizeError(f"grid holds {total} points > cap {GRID_CAP}")
        self.h_x = self.box_length / self.n_x
        self.h_y = self.y_span / self.n_y
        self.x = np.arange(self.n_x) * self.h_x - self.box_length / 2.0
        self.y = np.arange(self.n_y) * self.h_y - self.y_span / 2.0
        kx = 2.0 * math.pi * np.fft.fftfreq(self.n_x, d=self.h_x)
        ky = 2.0 * math.pi * np.fft.fftfreq(self.n_y, d=self.h_y)
        self.kin = (
            kx[:, None, None, None] ** 2 + ky[None, :, None, None] ** 2
            + kx[None, None, :, None] ** 2 + ky[None, None, None, :] ** 2
        )
        eps = self.point.epsilon
        v1 = self.confinement.on_grid(self.y / eps) / eps**2
        self.e0, self.tau = self._transverse_eig(v1)
        self.v_one = v1 - self.e0
        dx = _minimal_image(self.x[:, None] - self.x[None, :], self.box_length)
        dy = _minimal_image(self.y[:, None] - self.y[None, :], self.y_span)
        rad = np.sqrt(dx[:, None, :, None] ** 2 + dy[None, :, None, :] ** 2)
        self.w_pair = self.scaled(rad)

    def _transverse_eig(self, v1):
        ky = 2.0 * math.pi * np.fft.fftfreq(self.n_y, d=self.h_y)
        kin = np.fft.ifft(ky[:, None] ** 2 * np.fft.fft(np.eye(self.n_y), axis=0), axis=0).real
        ham = kin + np.diag(v1)
        vals, vecs = eigh((ham + ham.T) / 2.0)
        tau0 = vecs[:, 0] / math.sqrt(np.sum(vecs[:, 0] ** 2) * self.h_y)
        if tau0[np.argmax(np.abs(tau0))] < 0:
            tau0 = -tau0
        return float(vals[0]), tau0

    def weight(self) -> float:
        return self.h_x * self.h_y

    def product_state(self, phi_x: np.ndarray) -> np.ndarray:
        orb = np.asarray(phi_x, dtype=complex)[:, None] * self.tau[None, :]
        orb = orb / math.sqrt(float(np.sum(np.abs(orb) ** 2) * self.weight()))
        psi = np.einsum("ab,cd->abcd", orb, orb)
        return psi / math.sqrt(float(np.sum(np.abs(psi) ** 2) * self.weight() ** 2))

    def potential(self, t: float) -> np.ndarray:
        v = (self.v_one[None, :, None, None] + self.v_one[None, None, None, :]).astype(float)
        v = v + self.w_pair
        if self.external is not None:
            vx1 = np.asarray(self.external.evaluator(t, self.x[:, None], self.y[None, :], 0.0),
                             dtype=float)
            v = v + vx1[:, :, None, None] + vx1[None, None, :, :]
        return v

    def evolve(self, psi: np.ndarray, dt: float, t_final: float, t0: float = 0.0) -> np.ndarray:
        steps = int(round((t_final - t0) / dt))
        if abs(steps * dt - (t_final - t0)) > 1e-9 * max(1.0, t_final):
            raise DomainError("t_final - t0 must be an integer number of steps")
        kin_phase = np.exp(-1j * dt * self.kin)
        t = t0
        static = self.external is None or not self.external.time_dependent
        v = self.potential(t0) if static else None
        for s in range(steps):
            if not static:
                v = self.potential(t + 0.5 * dt)
            psi = psi * np.exp(-0.5j * dt * v)
            psi = np.fft.ifftn(np.fft.fftn(psi) * kin_phase)
            psi = psi * np.exp(-0.5j * dt * v)
            t += dt
            if (s % 200 == 0 or s == steps - 1) and not np.all(np.isfinite(psi.view(float))):
                raise InstabilityError(f"grid oracle produced non-finite values at t = {t:.6g}")
        return psi

    def gamma1(self, psi: np.ndarray) -> np.ndarray:
        """One-particle density matrix in an orthonormal grid basis; trace 1."""
        g = self.n_x * self.n_y
        mat = psi.reshape(g, g) * self.weight()
        gamma = mat @ mat.conj().T
        return gamma / np.real(np.trace(gamma))

    def energy(self, psi: np.ndarray, t: float = 0.0) -> float:
        """Renormalized energy per particle on the grid."""
        ft = np.fft.fftn(psi)
        kin = float(np.real(np.sum(self.kin * np.abs(ft) ** 2))) / psi.size * self.weight() ** 2
        pot = float(np.real(np.sum(self.potential(t) * np.abs(psi) ** 2))) * self.weight() ** 2
        return (kin + pot) / 2.0

    def symmetry_defect(self, psi: np.ndarray) -> float:
        return float(np.linalg.norm(psi - psi.transpose(2, 3, 0, 1)) /
                     np.linalg.norm(psi))


def _minimal_image(delta: np.ndarray, span: float) -> np.ndarray:
    return (delta + span / 2.0) % span - span / 2.0


def modes_on_grid(basis: ModeBasis, oracle: GridOracle) -> np.ndarray:
    """Columns: grid samples of every basis mode, weighted to be orthonormal."""
    phases = np.exp(1j * 2.0 * math.pi * np.outer(oracle.x, basis.mode_kx) / basis.box_length)
    phases /= math.sqrt(basis.box_length)
    tau = basis.transverse.modes
    g = oracle.n_x * oracle.n_y
    u = np.zeros((g, basis.n_modes), dtype=complex)
    for j in range(basis.n_modes):
        col = phases[:, j][:, None] * tau[basis.mode_my[j]][None, :]
        u[:, j] = col.ravel()
    return u * math.sqrt(oracle.weight())


def gamma_modes_to_grid(basis: ModeBasis, gamma: np.ndarray, oracle: GridOracle) -> np.ndarray:
    u = modes_on_grid(basis, oracle)
    return u @ gamma @ u.conj().T
