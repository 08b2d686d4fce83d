"""Second-quantized N-boson dynamics in a plane-wave x transverse-mode basis.

The one-body modes are products of periodic plane waves (integer momenta) and
the lowest eigenmodes of the rescaled transverse trap.  Pair matrix elements
exploit the structure of w(z - z'): longitudinal momentum is conserved
exactly, so the two-body tensor is stored as V[q, ma, mb, mc, md] with
q = k_a - k_c, assembled by one ``_assemble_vq`` from a cosine transform in x
and the transverse mode correlations in y, ``TransverseMode.correlation``,
over one set of offsets: the grid offsets (``wrapped_offsets``), where it is
the circular correlation, for the grid-matched basis, and Gauss nodes for
the continuum basis, which read the one spectrum of the unscaled mode a
sweep shares.

Transverse energies enter shifted by the ground energy E0/eps^2
("renormalized convention"): propagation then happens without the fast
common phase and <H>/N is directly the renormalized energy per particle.

One sparse second-quantized Hamiltonian serves every N; ``GridOracle``, a
two-particle position-grid split-step solver, validates it (its kinetic step
is one dense propagator matrix per grid axis; a static field's adjacent
half-step phases are fused).  Without a field H conserves the total momentum
K = sum_a n_a k_a (mod n_x on a grid-matched basis) and, for an even trap and
a radial w, the transverse parity Pi = (-1)^(sum_a n_a p_a)
(``ModeBasis.mode_parity``; both builders zero the pair elements that change
Pi), so each (K, Pi) sector is an exact block of H.  ``evolve`` propagates
each sector above the Krylov floor, and reads its energies, on its own H(t) =
B + (f(t) - f_B) G, the one home of a field f(t) g (``_sector_hamiltonian``),
by Lanczos exponentials (``lanczos_expm``: one Krylov space of up to 128
vectors per step where that meets the budget; ``expm_multiply`` is a test oracle).

One kernel, ``_ladder``, applies every ladder operator of H and ``_lowered``:
it lowers each row by each lower set its occupied entries hold and raises
each distinct intermediate row once per create set, with a dense weight
block per class, and yields the elements in batches of LADDER_BATCH_BYTES;
a field-free block over a third full is summed into a dense array as they
come (``_operator``).  No kernel widens or copies a whole occupation table:
on acceptance 7 (18528 x 192) ``FockBasis``, ``product_state``, the largest
sector block and ``reduced_density`` peak at 4.0, 2.0, 9.3 and 4.6 MB traced.
A ``FockBasis`` is a sorted set of occupation rows: the capped enumeration,
a (K, Pi) sector of it (``sectors``), or the rows a lowering reaches.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import chain, combinations_with_replacement

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh
from scipy.linalg.lapack import dstev

from .config import DEFAULTS
from .errors import DomainError, InstabilityError, ResolutionError, SizeError, ToleranceError
from .nls import Trajectory, whole_steps
from .potentials import ConfinementPotential, ExternalPotential, ScaledInteraction, gauss_legendre
from .scaling import ScalingPoint
from .transverse import (TransverseMode, _normalize_and_sign, offset_rule, rescale,
                         wrapped_offsets)

GRID_CAP = 2**28
LADDER_BATCH_BYTES = 1 << 20
PARITY_TOL = 1e-8


# ---------------------------------------------------------------------------
# occupation bookkeeping
# ---------------------------------------------------------------------------

def symmetric_dimension(n_modes: int, n_particles: int, max_excitations: int | None = None) -> int:
    if max_excitations is None or max_excitations >= n_particles:
        return math.comb(n_modes + n_particles - 1, n_particles)
    return sum(math.comb(k + n_modes - 2, k) for k in range(max_excitations + 1))


def _nonzero(occ: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(row, mode, count) of every occupied entry of an occupation table, row by
    row, from boolean masks of LADDER_BATCH_BYTES (a uint8 nonzero is up to 6x slower)."""
    m, step = occ.shape[1], max(1, LADDER_BATCH_BYTES // occ.shape[1])
    rows, modes = np.divmod(np.concatenate([np.flatnonzero(occ[a:a + step] > 0) + a * m
                                            for a in range(0, max(len(occ), 1), step)]), m)
    return rows, modes, occ[rows, modes]


def _row_sums(occ: np.ndarray, values: np.ndarray) -> np.ndarray:
    """sum_a n_a v_a of every occupation row, added over its occupied modes in order."""
    rows, modes, counts = _nonzero(occ)
    return np.bincount(rows, counts * np.asarray(values, dtype=float)[modes], minlength=len(occ))


class FockBasis:
    """A set of occupation rows over M modes, mode 0 distinguished as the
    condensate, held sorted by their bytes (``lookup`` bisects them).

    The constructor enumerates the symmetric rows of N particles with at most
    `max_excitations` outside the condensate; ``from_rows`` takes given rows,
    such as those a lowering reaches, and ``subset`` keeps some rows, such as
    a (K, Pi) sector (``sectors``).
    """

    def __init__(self, n_modes: int, n_particles: int,
                 max_excitations: int | None = None, dim_cap: int = DEFAULTS.dim_cap):
        if not 0 <= n_particles <= 255:    # the rows are uint8
            raise DomainError(f"n_particles must lie in 0..255, got {n_particles}")
        if n_modes < 2:
            raise DomainError(f"need at least 2 modes, got {n_modes}")
        dim = symmetric_dimension(n_modes, n_particles, max_excitations)
        if dim > dim_cap:
            raise SizeError(
                f"symmetric sector has dimension {dim} > cap {dim_cap}; "
                f"reduce the mode count, N, or the excitation truncation"
            )
        self.n_modes, self.n_particles = n_modes, n_particles
        cap = n_particles if max_excitations is None else min(max_excitations, n_particles)
        # byte order puts k = cap excitations first, each k in reverse lexicographic
        # order of its excited-mode multisets: fill each k's rows from its last one up
        self.occupations, self.dim, end = np.zeros((dim, n_modes), dtype=np.uint8), dim, dim
        for k in range(cap + 1):
            count = math.comb(n_modes - 2 + k, k)
            multisets = combinations_with_replacement(range(1, n_modes), k)
            sets = np.fromiter(chain.from_iterable(multisets), np.int64, count * k).reshape(count, k)
            rows, end = np.arange(end - 1, end - count - 1, -1), end - count
            self.occupations[rows, 0] = n_particles - k
            for mode in sets.T:
                self.occupations[rows, mode] += 1

    @classmethod
    def from_rows(cls, rows: np.ndarray, n_particles: int | None = None) -> FockBasis:
        """The basis of the given occupation rows; DomainError unless they are
        distinct and each hold n_particles (by default the first row's count)."""
        occ = np.asarray(rows)
        if occ.ndim != 2 or occ.shape[1] < 2 or not np.array_equal(occ, occ.astype(np.uint8)):
            raise DomainError(f"need rows of counts 0..255 over >= 2 modes, got {occ.shape}")
        counts = occ.sum(axis=1, dtype=np.int64)
        n_particles = int(counts[0]) if n_particles is None and len(occ) else n_particles
        if n_particles is None or np.any(counts != n_particles):
            raise DomainError(f"occupation rows hold {sorted(set(counts.tolist()))} particles")
        # strictly ascending rows are sorted and distinct: only others are sorted
        step = np.diff(occ.astype(np.int16), axis=0)
        if not np.all(step[np.arange(len(step)), np.argmax(step != 0, axis=1)] > 0):
            occ = occ[np.argsort(cls._pack(occ))]
            if np.any(np.all(occ[1:] == occ[:-1], axis=1)):
                raise DomainError("occupation rows repeat")
        fock = cls.__new__(cls)
        fock.n_modes, fock.n_particles, fock.dim = occ.shape[1], n_particles, len(occ)
        fock.occupations = np.array(occ, dtype=np.uint8, order="C")    # not the caller's array
        return fock

    @staticmethod
    def _pack(occ: np.ndarray) -> np.ndarray:
        occ = np.ascontiguousarray(occ, dtype=np.uint8)
        return occ.view(np.dtype((np.void, occ.shape[1]))).ravel()

    @property
    def _packed(self) -> np.ndarray:    # the rows as byte strings, a view of occupations
        return self._pack(self.occupations)

    def subset(self, rows: np.ndarray) -> FockBasis:
        """The basis of the given rows, an ascending index array, in their order."""
        sub = copy.copy(self)
        sub.occupations, sub.dim = self.occupations[rows], len(rows)
        return sub

    def lookup(self, occ: np.ndarray) -> np.ndarray:
        """Indices of occupation rows; -1 where a row is not in the basis."""
        packed = self._pack(occ)
        pos = np.minimum(np.searchsorted(self._packed, packed), self.dim - 1)
        return np.where(self._packed[pos] == packed, pos, -1)


@dataclass
class ManyBodyState:
    fock: FockBasis
    amplitudes: np.ndarray
    time: float = 0.0

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def product_state(fock: FockBasis, coeffs: np.ndarray) -> ManyBodyState:
    """Condensate (phi)^(x N) for a one-body coefficient vector phi.

    With an excitation truncation the state is the renormalized restriction.
    The discarded weight is tiny for condensate-like phi; a kept weight
    (squared norm) below 0.81 raises ResolutionError.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    if coeffs.shape != (fock.n_modes,):
        raise DomainError("coefficient vector length must match the mode count")
    nrm = np.linalg.norm(coeffs)
    if abs(nrm - 1.0) > 1e-8:
        coeffs = coeffs / nrm
    n = fock.n_particles
    rows, modes, counts = _nonzero(fock.occupations)
    log_fact = np.cumsum(np.concatenate(([0.0], np.log(np.arange(1, n + 1)))))
    mag = np.abs(coeffs)
    log_multinomial, log_mag, phase = (np.bincount(rows, w, minlength=fock.dim) for w in (
        log_fact[counts], counts * np.log(np.where(mag > 0, mag, 1.0))[modes],
        counts * np.angle(coeffs)[modes]))
    amp = np.exp(0.5 * (log_fact[n] - log_multinomial) + log_mag) * np.exp(1j * phase)
    # rows that occupy a mode phi leaves empty
    amp[rows[mag[modes] == 0]] = 0.0
    retained = np.linalg.norm(amp)
    if retained < 0.9:
        raise ResolutionError(
            f"excitation truncation retains only {retained**2:.3f} of the product state's weight (< 0.81)"
        )
    return ManyBodyState(fock, amp / retained)


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
    mode_parity: np.ndarray       # per flat mode: 1 if its transverse function is odd, else 0
    energies: np.ndarray          # shifted one-body energies kx_phys^2 + (E_m - E_0)/eps^2
    e0_scaled: float              # E_0 / eps^2
    vq: np.ndarray                # (n_q, My, My, My, My) real transverse interaction factors
    q_of_m: dict                  # integer momentum difference -> vq row
    momentum_modulus: int | None  # n_x for grid-matched bases (conservation mod n), else None
    external: ExternalPotential | None = None

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

    @cached_property
    def pair_classes(self) -> tuple:
        """The mode pairs a <= b sorted by class, their (K, Pi) charge (K mod
        n_x on a grid-matched basis), and the class of each: w conserves both."""
        a, b = np.triu_indices(self.n_modes)
        k = self.mode_kx[a] + self.mode_kx[b]
        k = k % self.momentum_modulus if self.momentum_modulus is not None else k
        label = 2 * (k - k.min()) + (self.mode_parity[a] + self.mode_parity[b]) % 2
        order = np.argsort(label, kind="stable")
        return np.column_stack([a, b])[order], label[order]

    def w_element(self, a: int, b: int, c: int, d: int) -> complex:
        """<ab|w|cd>; zero unless longitudinal momentum is conserved."""
        ktot = int(self.mode_kx[c] + self.mode_kx[d] - self.mode_kx[a] - self.mode_kx[b])
        q = int(self.mode_kx[a] - self.mode_kx[c])
        if self.momentum_modulus is not None:
            ktot, q = ktot % self.momentum_modulus, q % self.momentum_modulus
        row = self.q_of_m.get(q)
        if ktot != 0 or row is None:
            return 0.0
        return self.vq[row, self.mode_my[a], self.mode_my[b],
                       self.mode_my[c], self.mode_my[d]] / self.box_length

    def one_body(self, t: float = 0.0) -> np.ndarray:
        """Shifted one-body matrix including the external field f(t) g."""
        h = np.diag(self.energies.astype(complex))
        if self.external is not None:
            h = h + self.external.strength(t) * self.field_matrix
        return h

    @cached_property
    def field_matrix(self) -> np.ndarray:
        """<a|g|b>, the matrix of the field profile g; ``one_body(t)`` scales it by f(t)."""
        n_aux = max(8 * self.m_x, 1024)
        x = np.arange(n_aux) * self.box_length / n_aux - self.box_length / 2.0
        tau = self.transverse.modes[:self.m_y].reshape(self.m_y, -1)
        # the transverse grid in the (y1, y2) plane, on the line y2 = 0 in 1d
        axes = [self.transverse.axis] * self.transverse.dimension + [np.zeros(1)]
        y1, y2 = (a.ravel() for a in np.meshgrid(*axes[:2], indexing="ij"))
        vxy = np.asarray(self.external.profile(x[:, None], y1[None], y2[None]), dtype=float)
        # transverse integral on the grid: (n_aux, My, My)
        v_t = np.einsum("xg,mg,ng->xmn", vxy, tau, tau) * self.transverse.weight
        # (1/L) int e^{i dk (2 pi/L) x} V dx over the centered box: the inverse
        # FFT gives the +dk coefficients and (-1)^dk restores the -L/2 origin
        ft = np.fft.ifft(v_t, axis=0)
        dk = self.mode_kx[None, :] - self.mode_kx[:, None]
        my = self.mode_my
        return ft[dk % n_aux, my[:, None], my[None, :]] * (-1.0) ** dk


def _cosine_transform_x(scaled: ScaledInteraction, q_values: np.ndarray,
                        u_norms: np.ndarray) -> np.ndarray:
    """W[qi, u] = int w(sqrt(s^2 + |u|^2)) e^(-i q s) ds = 2 int_0^smax cos(q s) w ds
    by a 48-node `gauss_legendre` rule on [0, smax(u)]."""
    r = scaled.range
    out = np.zeros((len(q_values), len(u_norms)))
    inside = u_norms < r
    if not np.any(inside):
        return out
    smax = np.sqrt(np.maximum(r**2 - u_norms[inside] ** 2, 0.0))
    # nodes on the first axis, so einsum adds the 48 terms of each W in node order
    s, wgt = (np.ascontiguousarray(a.T) for a in gauss_legendre(0.0, smax, 48))
    wv = scaled(np.sqrt(s**2 + u_norms[inside] ** 2))
    cosqs = np.cos(q_values[:, None, None] * s)               # (n_q, 48, n_u_in)
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


def _periodic_modes(confinement: ConfinementPotential, epsilon: float, n_y: int,
                    y_span: float) -> TransverseMode:
    """All eigenmodes of -d^2/dy^2 + V_perp(y/eps)/eps^2 with the periodic
    spectral Laplacian on n_y points across y_span (``GridOracle``'s grid)."""
    h_y = y_span / n_y
    y = np.arange(n_y) * h_y - y_span / 2.0
    ky2 = (2.0 * math.pi * np.fft.fftfreq(n_y, d=h_y)) ** 2
    kin = np.fft.ifft(ky2[:, None] * np.fft.fft(np.eye(n_y), axis=0), axis=0).real
    ham = kin + np.diag(confinement.on_grid(y / epsilon) / epsilon**2)
    vals, vecs = eigh((ham + ham.T) / 2.0)
    modes = np.stack([_normalize_and_sign(vecs[:, i], h_y) for i in range(n_y)])
    return TransverseMode(axis=y, chi=modes[0], modes=modes, energies=vals, dimension=1,
                          epsilon=epsilon)


def _assemble_vq(what: np.ndarray, s: np.ndarray, weights) -> np.ndarray:
    """V[qi, ma, mb, mc, md] = sum_u weights_u What[qi, u] S_(ma mc),(mb md)(u) over
    the offsets u of one rule, S in the index order (ma, mc, mb, md, u)."""
    my = s.shape[0]
    vq = np.einsum("qu,pu,u->qp", what, s.reshape(my**4, -1),
                   np.broadcast_to(weights, what.shape[1:]))
    return vq.reshape(-1, my, my, my, my).transpose(0, 1, 3, 2, 4)


def _transverse_parity(modes: np.ndarray, periodic: bool) -> np.ndarray:
    """Parity bit per transverse mode (0 even, 1 odd) from its overlap with its
    reflection y -> -y about the grid centre, which inverts every transverse
    axis and wraps around on a periodic grid.  If any mode is not a parity
    eigenfunction to PARITY_TOL, every bit is 0: one sector."""
    axes = tuple(range(1, modes.ndim))
    mirrored = np.flip(modes, axis=axes)
    if periodic:
        # the centre y = 0 is a grid point: index j goes to -j mod n
        mirrored = np.roll(mirrored, 1, axis=axes)
    flat = modes.reshape(len(modes), -1)
    overlap = np.sum(flat * mirrored.reshape(len(modes), -1), axis=1) / np.sum(flat**2, axis=1)
    if np.max(np.abs(np.abs(overlap) - 1.0)) > PARITY_TOL:
        return np.zeros(len(modes), dtype=np.int64)
    return (overlap < 0).astype(np.int64)


def _parity_selection(vq: np.ndarray, parity: np.ndarray) -> np.ndarray:
    """vq with exact zeros wherever the four transverse parities have an odd
    sum: a radial w and an even trap make those elements vanish."""
    pairs = np.add.outer(parity, parity)
    vq = np.ascontiguousarray(vq)
    vq[:, np.add.outer(pairs, pairs) % 2 == 1] = 0.0
    return vq


def _mode_basis(point: ScalingPoint, scaled: ScaledInteraction, box_length: float,
                kx: np.ndarray, tmode: TransverseMode, vq: np.ndarray, q_ints: np.ndarray,
                momentum_modulus: int | None, external: ExternalPotential | None) -> ModeBasis:
    """The plane waves kx x the first vq.shape[1] modes of `tmode`, condensate
    (kx = 0, my = 0) first, with their shifted energies and parity bits; vq
    row i belongs to the momentum difference q_ints[i]."""
    m_y = vq.shape[1]
    mode_kx = np.repeat(kx, m_y)
    mode_my = np.tile(np.arange(m_y, dtype=np.int64), len(kx))
    order = np.lexsort((mode_my, mode_kx, (mode_kx != 0) | (mode_my != 0)))
    mode_kx, mode_my = mode_kx[order], mode_my[order]
    e_t = tmode.energies[:m_y] - tmode.energies[0]
    energies = (2.0 * math.pi * mode_kx / box_length) ** 2 + e_t[mode_my]
    parity = _transverse_parity(tmode.modes[:m_y], periodic=momentum_modulus is not None)
    return ModeBasis(
        point=point, scaled=scaled, box_length=box_length, kx=kx,
        transverse=tmode, mode_kx=mode_kx, mode_my=mode_my, mode_parity=parity[mode_my],
        energies=energies.astype(float), e0_scaled=float(tmode.energies[0]),
        vq=_parity_selection(vq, parity), q_of_m={int(q): i for i, q in enumerate(q_ints)},
        momentum_modulus=momentum_modulus, external=external,
    )


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
    eigenmodes of `unscaled_mode`, rescaled to the point's epsilon.  Gauss nodes
    over the support |u| < range resolve the square-root edge of a compact w."""
    if m_x % 2 == 0:
        raise DomainError("m_x must be odd so the plane-wave set is symmetric around 0")
    if scaled.d_perp != confinement.dimension:
        raise DomainError("interaction d_perp must match the confinement dimension")
    if unscaled_mode.modes.shape[0] < m_y:
        raise DomainError("unscaled_mode holds fewer than m_y eigenmodes")
    tmode = rescale(unscaled_mode, point.epsilon)
    q_ints = np.arange(-(m_x - 1), m_x, dtype=np.int64)
    u, weights = offset_rule(scaled.range, tmode.dimension, 64)
    what = _cosine_transform_x(scaled, 2.0 * math.pi * q_ints / box_length, np.abs(u))
    vq = _assemble_vq(what, tmode.correlation(u, m_y), weights)
    kx = np.arange(-(m_x // 2), m_x // 2 + 1, dtype=np.int64)
    return _mode_basis(point, scaled, box_length, kx, tmode, vq, q_ints, None, external)


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
    kinetic terms; unitarily equivalent to the ``GridOracle`` discretization,
    whose pairs meet at the literal grid offsets the pair factors sum over."""
    if scaled.d_perp != 1 or confinement.dimension != 1:
        raise DomainError("the grid-matched basis is implemented for d_perp = 1")
    tmode = _periodic_modes(confinement, point.epsilon, n_y, y_span)
    u = wrapped_offsets(tmode.axis)
    what = _grid_transform_x(scaled, box_length, n_x, np.abs(u))
    vq = _assemble_vq(what, tmode.correlation(u, n_y), tmode.weight)
    kx = np.sort(np.fft.fftfreq(n_x, d=1.0 / n_x).astype(np.int64))
    return _mode_basis(point, scaled, box_length, kx, tmode, vq, np.arange(n_x), n_x, None)


# ---------------------------------------------------------------------------
# second-quantized operators
# ---------------------------------------------------------------------------

def _ladder(fock: FockBasis, target: FockBasis | None, lower: np.ndarray, create: np.ndarray,
            lower_class: np.ndarray, create_class: np.ndarray, weights):
    """Nonzero elements of W[c, l] adag_(c_k) ... adag_(c_1) a_(l_j) ... a_(l_1) from
    `fock` into `target` for every lower set l (a row of `lower`, distinct and
    ascending) and create set c (a row of `create`) of one class; both class
    arrays ascend, and W = weights(create sets, lower sets of the class).  A
    lowering alone (empty create sets) may pass `target` None for the rows it reaches.

    Each source row is lowered by each lower set its occupied entries hold;
    each distinct (class, intermediate row) is raised by every create set of
    its class, resolved by one lookup.  The amplitude is sqrt(product of the
    counts before each annihilation and after each creation); zero weights are
    dropped.  Yields the target and the number of candidates, then (lower set,
    target row, source row, value) in batches of LADDER_BATCH_BYTES (as are
    the intermediate rows) by target row, then class, intermediate and source
    row, an order a block of rows closed under the terms gets alone as in more rows.
    """
    m = fock.n_modes
    # step 1: every sorted lower set each source row holds, from the left, as
    # positions `at` in the list of occupied entries (row, mode, count)
    row, mode, count = _nonzero(fock.occupations)
    row_end, at = np.searchsorted(row, row, side="right"), np.arange(len(row))
    amp_lower, key, left = count.astype(float), mode, count - 1
    for _ in range(lower.shape[1] - 1):
        start = at + (left == 0)    # the same entry while it holds a particle, or a later one
        n_next = row_end[at] - start
        prev = np.repeat(np.arange(len(at)), n_next)
        nxt = np.arange(len(prev)) + np.repeat(start - np.cumsum(n_next) + n_next, n_next)
        before = np.where(nxt == at[prev], left[prev], count[nxt])
        amp_lower, left = amp_lower[prev] * before, before - 1
        key, at = key[prev] * m + mode[nxt], nxt
    table = np.full(m ** lower.shape[1], -1, dtype=np.int32)
    table[(lower * m ** np.arange(lower.shape[1])[::-1]).sum(axis=1)] = np.arange(len(lower))
    term = table[key]
    held = term >= 0
    term, src, amp_lower = term[held], row[at[held]], np.sqrt(amp_lower[held])
    # the distinct intermediate rows, in lexicographic order, a batch at a time
    step, found, local = max(1, LADDER_BATCH_BYTES // (2 * m)), [], []
    for a in range(0, max(len(src), 1), step):
        rest = fock.occupations[src[a:a + step]]
        for col in lower[term[a:a + step]].T:
            rest[np.arange(len(rest)), col] -= 1
        batch, back = np.unique(FockBasis._pack(rest), return_inverse=True)
        found, local = found + [batch], local + [back + sum(map(len, found))]
    mids, back = np.unique(np.concatenate(found), return_inverse=True)
    mid, mids = back[np.concatenate(local)], mids.view(np.uint8).reshape(-1, m)
    if target is None:
        target = FockBasis.from_rows(mids, fock.n_particles - lower.shape[1])
    del row, mode, count, row_end, key, left, found, local, rest, back    # else held while yielding
    klass = lower_class[term]
    order = np.lexsort((src, mid, klass))
    term, src, amp_lower, klass, mid = (x[order] for x in (term, src, amp_lower, klass, mid))
    first = (np.diff(klass, prepend=-1) != 0) | (np.diff(mid, prepend=-1) != 0)
    group = np.cumsum(first) - 1
    # the classes reached: their create and lower sets, and their weights
    reached, at = np.unique(klass[first], return_inverse=True)
    l0, l1 = (np.searchsorted(lower_class, reached, side=s) for s in ("left", "right"))
    c0, c1 = (np.searchsorted(create_class, reached, side=s) for s in ("left", "right"))
    blocks = [weights(create[i:j], lower[p:q]) for i, j, p, q in zip(c0, c1, l0, l1)]
    flat = (blocks[0].ravel() if len(blocks) == 1
            else np.concatenate([np.zeros(0)] + [w.ravel() for w in blocks]))
    width, sizes = l1 - l0, (c1 - c0) * (l1 - l0)
    base = np.cumsum(sizes) - sizes - c0 * width - l0
    # step 2: raise each group by every create set of its class
    n_raise = (c1 - c0)[at]
    raised = np.repeat(np.arange(len(at)), n_raise)
    made = np.arange(len(raised)) - np.repeat(np.cumsum(n_raise) - n_raise - c0[at], n_raise)
    occ = mids[mid[first]][raised]
    amp_create = np.ones(len(raised))
    every = np.arange(len(raised))
    for mode in create[made].T:
        occ[every, mode] += 1
        amp_create *= occ[every, mode]
    rows = target.lookup(occ).astype(np.int32)
    hit = rows >= 0
    raised, made, rows, amp_create = raised[hit], made[hit], rows[hit], np.sqrt(amp_create[hit])
    # the flat weight index: a part per (source, lower set) and one per raise
    at_entry, at_raise = base[at][group] + term, made * width[at][raised]
    # each raise meets every (source, lower set) of its group; by target row
    n_entry = np.bincount(group)
    seg = np.argsort(rows, kind="stable")
    size = n_entry[raised[seg]]
    skip = (np.cumsum(n_entry) - n_entry)[raised[seg]] - (np.cumsum(size) - size)
    ends = np.cumsum(size)
    yield target, int(ends[-1]) if len(ends) else 0
    step, a = max(1, LADDER_BATCH_BYTES // 64), 0    # ~64 B of temporaries per element
    while a < len(seg):
        b = max(a + 1, int(np.searchsorted(ends, ends[a] - size[a] + step, side="right")))
        pick = np.repeat(seg[a:b], size[a:b])
        entry = np.arange(ends[a] - size[a], ends[b - 1]) + np.repeat(skip[a:b], size[a:b])
        value = amp_create.take(pick) * amp_lower.take(entry)
        w = flat.take(at_entry.take(entry) + at_raise.take(pick))
        if not np.all(w):
            keep = w != 0.0
            entry, pick, value, w = entry[keep], pick[keep], value[keep], w[keep]
        yield term.take(entry), rows.take(pick), src.take(entry), w * value
        a = b


def _operator(fock: FockBasis, sets: np.ndarray, label: np.ndarray, weights, diagonal=None):
    """Sum of W[c, l] adag_c a_l over the sets c, l of each class, W = weights(sets of
    the class, same), the sets sorted by their class `label`: sparse, or, for real
    weights plus a real `diagonal`, a dense float64 array when over a third full."""
    batches = _ladder(fock, fock, sets, sets, label, label, weights)
    n, total = fock.dim, next(batches)[1]
    if diagonal is not None and 3 * (total + n) > n * n:
        block = np.diag(diagonal)
        for _, rows, cols, value in batches:    # into the batch's consecutive rows alone
            part = block[rows[0]:rows[-1] + 1].ravel() if len(rows) else np.zeros(0)
            part += np.bincount((rows - rows[:1]) * np.int64(n) + cols, value, minlength=part.size)
        return block if 3 * np.count_nonzero(block) > n * n else sp.csr_matrix(block)
    rows, cols, data = (np.empty(total, dtype=t) for t in (np.int32, np.int32, complex))
    k = 0
    for _, r, c, value in batches:
        rows[k:k + len(r)], cols[k:k + len(r)], data[k:k + len(r)] = r, c, value
        k += len(r)
    h = sp.csr_matrix((data[:k], cols[:k], np.searchsorted(rows[:k], np.arange(n + 1))), (n, n))
    h.sum_duplicates()
    return h if diagonal is None else h + sp.diags(diagonal.astype(complex), format="csr")


def one_body_operator(fock: FockBasis, h: np.ndarray) -> sp.csr_matrix:
    """Sparse sum_ab h[a,b] adag_a a_b on the occupation basis: the diagonal
    from the occupations, the rest, if any, in one class of the modes it couples."""
    off = np.where(np.eye(len(h), dtype=bool), 0.0, h)
    modes = np.flatnonzero(off.any(axis=0) | off.any(axis=1))
    diag = sp.diags(_row_sums(fock.occupations, np.real(np.diag(h))).astype(complex), format="csr")
    if not len(modes):
        return diag
    return diag + _operator(
        fock, modes[:, None], np.zeros(len(modes), dtype=np.int64),
        lambda c, l: off[np.ix_(c[:, 0], l[:, 0])])


def _pair_weights(basis: ModeBasis, pairs: np.ndarray) -> np.ndarray:
    """1/2 W[(a, b), (c, d)] over the pairs of one class, W_abcd the sum of
    <ab|w|cd> = vq[k_a - k_c, m_a, m_b, m_c, m_d] / L over the distinct
    orderings of (a, b) and (c, d): by <ba|w|dc> = <ab|w|cd> that is
    (<ab|w|cd> + <ab|w|dc> [c != d]) (1 + [a != b])."""
    n, my = basis.m_y, basis.mode_my
    k_values, k_at = np.unique(basis.mode_kx, return_inverse=True)
    q = k_values[:, None] - basis.mode_kx
    q = q % basis.momentum_modulus if basis.momentum_modulus is not None else q + basis.m_x - 1
    a, b = pairs.T
    ab = (my[a] * n**3 + my[b] * n**2)[:, None]

    def gather(c, d, rows):
        # the flat vq index of these rows; its (k_a, c, d) part is read as rows of a small table
        index = (q[:, c] * n**4 + my[c] * n + my[d])[k_at[a[rows]]]
        index += ab[rows]
        return basis.vq.ravel().take(index) / basis.box_length

    # a batch of rows at a time: no index or gathered copy spans the whole table
    same, w = a == b, np.empty((len(a), len(a)), dtype=basis.vq.dtype)
    step = max(1, LADDER_BATCH_BYTES // (16 * len(a)))
    for rows in (slice(i, i + step) for i in range(0, len(a), step)):
        w[rows] = gather(b, a, rows)
        w[rows, same] = 0.0
        w[rows] += gather(a, b, rows)
    w[same] *= 0.5
    return w


def two_body_operator(basis: ModeBasis, fock: FockBasis, diagonal: np.ndarray | None = None):
    """Sparse 1/2 sum W_abcd adag_a adag_b a_d a_c on the occupation basis, with
    one dense weight block per pair class that the rows reach, plus `diagonal` (``_operator``)."""
    pairs, label = basis.pair_classes
    return _operator(fock, pairs, label, lambda c, l: _pair_weights(basis, l), diagonal)


def hamiltonian(basis: ModeBasis, fock: FockBasis, t: float = 0.0) -> sp.csr_matrix:
    """Sparse H(t) = sum h_ab adag_a a_b + 1/2 sum W_abcd adag_a adag_b a_d a_c."""
    return one_body_operator(fock, basis.one_body(t)) + two_body_operator(basis, fock)


# ---------------------------------------------------------------------------
# propagation, one Lanczos step per (K, Pi) sector
# ---------------------------------------------------------------------------

def sectors(basis: ModeBasis, fock: FockBasis) -> list:
    """Row indices of every sector of the charges H conserves: one per
    occupied (K, Pi) value without a field, all rows in one with a field."""
    key = np.zeros(fock.dim, dtype=np.int64)
    charges = [(basis.mode_kx, basis.momentum_modulus), (basis.mode_parity, 2)]
    for mode_charge, modulus in charges if basis.external is None else []:
        total = _row_sums(fock.occupations, mode_charge).astype(np.int64)
        total = total % modulus if modulus is not None else total - total.min()
        key = key * (total.max() + 1) + total
    order = np.argsort(key, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(key[order])) + 1)


def _sector_block(basis: ModeBasis, fock: FockBasis, rows: np.ndarray, h: sp.spmatrix | None):
    """H on the given rows: cut from a prebuilt `h`, or else assembled on them
    alone without the field.  A real block over a third full is a dense float64
    array, into which an assembled one is summed batch by batch (``_operator``):
    acceptance 7's largest, 604 rows, peaks at 7.7 MB traced, 17.0 through CSR."""
    if h is None:
        sector = fock.subset(rows)
        return two_body_operator(basis, sector, _row_sums(sector.occupations, basis.energies))
    block = h[rows][:, rows]
    if 3 * block.nnz > len(rows) ** 2 and not np.any(block.data.imag):
        return block.real.toarray()
    return block


def _real_block_product(hmat: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A real block times a complex vector as one real (n, 2) product."""
    x = np.ascontiguousarray(x, dtype=complex)
    return (hmat @ x.view(float).reshape(-1, 2)).view(complex).ravel()


def lanczos_expm(apply_h, v: np.ndarray, dt: float, tol: float = DEFAULTS.krylov_tol,
                 m_max: int = 128) -> np.ndarray:
    """exp(-1j dt H) v for Hermitian H given by its action.

    Each Krylov space (at most m_max vectors, and never more than len(v))
    grows until it breaks down (beta <= 1e-14 times the largest |H v_j| it has
    seen, a test free of the scale of H) or reaches the error budget
    tol * h / dt for the rest h of the interval, by Saad's a-posteriori
    estimate, tested at m = 4, 8, 12, 16, then each time the space has grown
    by a quarter, at a breakdown and at m_max.  If it does not reach it, it
    advances by the largest h = rest / 2^k it does reach, and the next space
    starts from the advanced vector.  The vectors are the rows of one
    (m_max, n) array, touched as far as used; each new one is
    reorthogonalized against all before it by a block classical Gram-Schmidt
    pass, and by a second if the first leaves less than 1/sqrt(2) of it (DGKS).  LAPACK dstev diagonalizes
    the tridiagonal once per test; every h reuses the last one.
    """
    def expm_e1(m, h):
        # exp(-1j h T) e_1 by the last dstev, and whether |beta_m h y_m| is in budget
        y = evecs @ (np.exp(-1j * h * evals) * evecs[0])
        return y, breakdown or abs(betas[m - 1] * h * y[-1]) < tol * (h / dt)

    if np.linalg.norm(v) == 0.0:
        return v.copy()
    m_max = min(m_max, len(v))
    vecs = np.empty((m_max, len(v)), dtype=complex)
    alphas, betas = np.empty(m_max), np.empty(m_max)
    rest, h_scale = dt, 0.0
    while True:
        nrm = np.linalg.norm(v)
        vecs[0] = v / nrm
        m, test = 0, 4
        while True:
            w = apply_h(vecs[m])
            h_scale = max(h_scale, np.linalg.norm(w))
            alphas[m] = np.real(np.vdot(vecs[m], w))
            w = w - alphas[m] * vecs[m]
            if m:
                w -= betas[m - 1] * vecs[m - 1]
            # full reorthogonalization, twice where once cancels below 1/sqrt(2) (DGKS)
            krylov, limit = vecs[:m + 1], np.linalg.norm(w) / math.sqrt(2)
            for _ in range(2):
                w -= (krylov @ w.conj()).conj() @ krylov
                betas[m] = np.linalg.norm(w)
                if betas[m] >= limit:
                    break
            m += 1
            breakdown = betas[m - 1] <= 1e-14 * h_scale
            if m == test or m == m_max or breakdown:
                evals, evecs, info = dstev(alphas[:m], betas[:max(m - 1, 1)])
                if info:
                    raise ToleranceError(f"dstev failed on the Lanczos tridiagonal (info = {info})")
                if m == m_max or expm_e1(m, rest)[1]:
                    break
                test = m + max(4, m // 4)
            vecs[m] = w / betas[m - 1]
        for k in range(31):
            h = rest / 2**k
            y, reached = expm_e1(m, h)
            if reached:
                break
        else:
            raise ToleranceError("Lanczos propagator failed to converge after 30 halvings")
        v = nrm * (y @ vecs[:m])
        if h == rest:
            return v
        rest -= h


@dataclass
class ManyBodyTrajectory(Trajectory):
    norm_drift: float = 0.0
    dropped_norm: float = 0.0     # l2 norm of the sectors below the Krylov floor (``evolve``)
    energies: list = field(default_factory=list)    # <H(t)>/N per state (``evolve``)


def _sector_hamiltonian(basis: ModeBasis, fock: FockBasis, rows: np.ndarray, h, t0: float):
    """(t, x) -> H(t) x on one sector's rows, H(t) = B + (f(t) - f_B) G: B its block
    (``_sector_block``) with the field at f_B (f(t0) cut from h = H(t0), 0
    assembled) and G its field operator, built only if B lacks f(t) g at some t."""
    block = _sector_block(basis, fock, rows, h)
    apply = block.dot if sp.issparse(block) else partial(_real_block_product, block)
    if basis.external is None or (h is not None and not basis.time_dependent):
        return lambda t, x: apply(x)
    f, g = basis.external.strength, one_body_operator(fock.subset(rows), basis.field_matrix)
    f_block = 0.0 if h is None else f(t0)
    return lambda t, x: apply(x) + (f(t) - f_block) * g.dot(x)


def evolve(state: ManyBodyState, basis: ModeBasis, dt: float, t_final: float,
           n_outputs: int = 5, krylov_tol: float = DEFAULTS.krylov_tol,
           h: sp.spmatrix | None = None) -> ManyBodyTrajectory:
    """Propagate under H(t), recording n_outputs + 1 equally spaced states and
    their energies <psi, H(t) psi>/(N <psi, psi>) from the H(t) they propagate with.

    Each (K, Pi) sector of psi (``sectors``) runs through all outputs on its own
    H(t) (``_sector_hamiltonian``; `h` = H(t0), t0 the state time, if given), one
    Krylov step per interval, or midpoint-frozen steps of dt (whole per
    interval) in a time-dependent field.

    The Krylov budget krylov_tol ||psi|| covers the whole state: a sector of
    norm <= krylov_tol ||psi|| / sqrt(S), S the sector count, is neither built
    nor propagated, reads zero later and adds nothing to the energies.  Blocks
    conserve sector norms, so the dropped norm (``dropped_norm``) is that of
    those sectors, <= krylov_tol ||psi||.
    """
    if t_final <= state.time:
        raise DomainError("t_final must exceed the state time")
    if n_outputs < 1:
        raise DomainError(f"n_outputs must be >= 1, got {n_outputs!r}")
    fock, t0 = state.fock, state.time
    out_dt = (t_final - t0) / n_outputs
    steps, step = 1, out_dt
    if basis.time_dependent:
        steps, step = whole_steps(out_dt, dt, t_final,
                                  "each output interval must be a whole number of dt steps"), dt
    psi, energy = np.zeros((n_outputs + 1, fock.dim), dtype=complex), np.zeros(n_outputs + 1)
    psi[0] = state.amplitudes
    blocks = sectors(basis, fock)
    norms = np.array([np.linalg.norm(psi[0, rows]) for rows in blocks])
    kept = norms > krylov_tol * state.norm / math.sqrt(len(blocks))
    for rows in (rows for rows, keep in zip(blocks, kept) if keep):
        h_at = _sector_hamiltonian(basis, fock, rows, h, t0)
        for j in range(n_outputs + 1):
            t, v = t0 + j * out_dt, psi[j, rows]
            energy[j] += np.vdot(v, h_at(t, v)).real
            if j < n_outputs:
                for s in range(steps):
                    v = lanczos_expm(partial(h_at, t + (s + 0.5) * step), v, step, tol=krylov_tol)
                psi[j + 1, rows] = v
        del h_at    # the block, else held while the next one is built
    traj = ManyBodyTrajectory(dropped_norm=float(np.linalg.norm(norms[~kept])))
    traj.record(state)
    for j in range(1, n_outputs + 1):
        t = t0 + j * out_dt
        if not np.all(np.isfinite(psi[j].view(float))):
            raise InstabilityError(f"non-finite amplitudes at t = {t:.6g}")
        norm = np.linalg.norm(psi[j])
        traj.norm_drift = max(traj.norm_drift, abs(norm / np.linalg.norm(psi[j - 1]) - 1.0))
        traj.record(ManyBodyState(fock, psi[j] / norm, t))
    traj.energies = (energy / np.linalg.norm(psi, axis=1) ** 2 / fock.n_particles).tolist()
    return traj


# ---------------------------------------------------------------------------
# observables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReducedDensity:
    matrix: np.ndarray


def _lowered(state: ManyBodyState, lower: np.ndarray) -> tuple[FockBasis, np.ndarray]:
    """One row per row of `lower` (T, j): the (N-j)-particle vector
    a_(lower[t, j-1]) ... a_(lower[t, 0]) psi on the rows the lowerings reach."""
    zero = np.zeros(len(lower), dtype=np.int64)
    batches = _ladder(state.fock, None, lower, np.zeros((1, 0), dtype=np.int64),
                      zero, zero[:1], lambda c, l: np.ones((1, len(l))))
    sub, _ = next(batches)
    vecs = np.zeros((len(lower), sub.dim), dtype=complex)
    for term, rows, cols, amp in batches:
        vecs[term, rows] = amp * state.amplitudes[cols]
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
        _, vecs = _lowered(state, np.arange(m)[:, None])
        gamma = (vecs @ vecs.conj().T) / fock.n_particles
    else:
        n = fock.n_particles
        a, b = np.triu_indices(m)
        _, lowered = _lowered(state, np.column_stack([a, b]))
        small = (lowered @ lowered.conj().T) / (n * (n - 1))
        # gamma[(p, q), (r, s)] reads the unordered pairs {p, q} and {r, s}
        pair = np.empty((m, m), dtype=np.int64)
        pair[a, b] = pair[b, a] = np.arange(len(a))
        gamma = small[np.ix_(pair.ravel(), pair.ravel())]
        gamma /= np.real(np.trace(gamma))
    gamma = (gamma + gamma.conj().T) / 2.0
    return ReducedDensity(gamma)


def expectation(state: ManyBodyState, op: sp.spmatrix) -> float:
    return float(np.real(np.vdot(state.amplitudes, op @ state.amplitudes)))


def renormalized_energy(state: ManyBodyState, basis: ModeBasis, t: float | None = None,
                        h: sp.spmatrix | None = None) -> float:
    """<psi, H(t) psi>/N - E0/eps^2; the basis stores shifted energies, so this
    is just the expectation of the stored Hamiltonian per particle."""
    if h is None:
        h = hamiltonian(basis, state.fock, state.time if t is None else t)
    return expectation(state, h) / state.fock.n_particles


def transverse_excited_fraction(gamma: np.ndarray, basis: ModeBasis) -> float:
    """||q^chi_1 psi|| = sqrt(sum_(my != 0) gamma_aa), gamma the one-body density."""
    frac = float(np.real(np.diagonal(gamma))[basis.mode_my != 0].sum())
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
        self.kx2 = (2.0 * math.pi * np.fft.fftfreq(self.n_x, d=self.h_x)) ** 2
        self.ky2 = (2.0 * math.pi * np.fft.fftfreq(self.n_y, d=self.h_y)) ** 2
        self.kin = (self.kx2[:, None, None, None] + self.ky2[None, :, None, None]
                    + self.kx2[None, None, :, None] + self.ky2[None, None, None, :])
        eps = self.point.epsilon
        trap = _periodic_modes(self.confinement, eps, self.n_y, self.y_span)
        self.e0, self.tau = trap.energy0, trap.chi
        v_one = self.confinement.on_grid(self.y / eps) / eps**2 - self.e0
        dx = _minimal_image(self.x[:, None] - self.x[None, :], self.box_length)
        dy = _minimal_image(self.y[:, None] - self.y[None, :], self.y_span)
        rad = np.sqrt(dx[:, None, :, None] ** 2 + dy[None, :, None, :] ** 2)
        # the field-free potential (both traps and w), and one particle's field profile g
        self.v_free = v_one[None, :, None, None] + v_one[None, None, None, :] + self.scaled(rad)
        if self.external is not None:
            self.field = self.external.profile(self.x[:, None], self.y[None, :], 0.0)

    def weight(self) -> float:
        return self.h_x * self.h_y

    def product_state(self, phi_x: np.ndarray) -> np.ndarray:
        orb = np.asarray(phi_x, dtype=complex)[:, None] * self.tau[None, :]
        orb = orb / math.sqrt(float(np.sum(np.abs(orb) ** 2) * self.weight()))
        psi = np.einsum("ab,cd->abcd", orb, orb)
        return psi / math.sqrt(float(np.sum(np.abs(psi) ** 2) * self.weight() ** 2))

    def potential(self, t: float) -> np.ndarray:
        v = self.v_free
        if self.external is not None:
            e = self.external.strength(t) * self.field
            v = v + e[:, :, None, None] + e[None, None, :, :]
        return v

    def axis_propagators(self, dt: float) -> tuple[np.ndarray, np.ndarray]:
        """Dense F^-1 e^(-i dt k^2) F on x and on y; e^(-i dt K) applies one per axis."""
        return tuple(np.fft.ifft(np.exp(-1j * dt * k2)[:, None]
                                 * np.fft.fft(np.eye(k2.size), axis=0), axis=0)
                     for k2 in (self.kx2, self.ky2))

    def evolve(self, psi: np.ndarray, dt: float, t_final: float, t0: float = 0.0) -> np.ndarray:
        """Strang steps e^(-i dt V/2) e^(-i dt K) e^(-i dt V/2) with V at each midpoint and
        e^(-i dt K) as one matrix product per axis with ``axis_propagators``; a static field
        fuses adjacent half-step phases into one full step, a driven one multiplies the
        field-free half phase by u(x1, y1) u(x2, y2), u = e^(-i dt f(t_mid) g / 2), per
        step.  `psi` is kept."""
        steps = whole_steps(t_final - t0, dt, t_final,
                            "grid oracle needs dt > 0 and a positive integer number of steps")
        px, py = self.axis_propagators(dt)
        static = self.external is None or not self.external.time_dependent
        if static:
            half = np.exp(-0.5j * dt * self.potential(t0))
            full = half * half
        else:
            free_half = np.exp(-0.5j * dt * self.v_free)
        for s in range(steps):
            if not static:
                u = np.exp(-0.5j * dt * self.external.strength(t0 + (s + 0.5) * dt) * self.field)
                half = free_half * np.multiply.outer(u, u)
            if s == 0 or not static:
                psi = psi * half
            for prop in (px, py, px, py):   # contract the leading axis, append it as the last
                psi = psi.reshape(len(prop), -1).T @ prop.T
            psi = psi.reshape(self.kin.shape)
            psi *= full if static and s < steps - 1 else half
            if (s % 200 == 0 or s == steps - 1) and not np.all(np.isfinite(psi.view(float))):
                raise InstabilityError(
                    f"grid oracle produced non-finite values at t = {t0 + (s + 1) * dt:.6g}")
        return psi

    def gamma1(self, psi: np.ndarray) -> np.ndarray:
        """One-particle density matrix in an orthonormal grid basis; trace 1."""
        g = self.n_x * self.n_y
        mat = psi.reshape(g, g) * self.weight()
        gamma = mat @ mat.conj().T
        return gamma / np.real(np.trace(gamma))


def _minimal_image(delta: np.ndarray, span: float) -> np.ndarray:
    return (delta + span / 2.0) % span - span / 2.0


def modes_on_grid(basis: ModeBasis, oracle: GridOracle) -> np.ndarray:
    """Columns: grid samples of every basis mode, weighted to be orthonormal."""
    phases = np.exp(1j * 2.0 * math.pi * np.outer(oracle.x, basis.mode_kx) / basis.box_length)
    phases /= math.sqrt(basis.box_length)
    tau = basis.transverse.modes[basis.mode_my].T          # (n_y, n_modes)
    u = (phases[:, None, :] * tau[None, :, :]).reshape(oracle.n_x * oracle.n_y, basis.n_modes)
    return u * math.sqrt(oracle.weight())


def gamma_modes_to_grid(basis: ModeBasis, gamma: np.ndarray, oracle: GridOracle) -> np.ndarray:
    u = modes_on_grid(basis, oracle)
    return u @ gamma @ u.conj().T
