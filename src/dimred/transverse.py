"""Ground state of the confined transverse problem -Delta_y + V_perp.

The solver returns the lowest eigenpairs of the finite-difference operator by
shift-invert Lanczos: the 7-point, sixth-order stencil on every transverse
axis, summed over the axes.  Rescaling multiplies the energies, and their
O(h^6) error, by eps^(-2); at sixth order the config's grid keeps them
accurate at every eps a sweep reaches, with no grid refinement.  Rescaling
chi^eps(y) = eps^(-d/2) chi(y/eps) is exact on the discrete level, so the
scaled eigenproblem is never re-solved, and the mode correlations are never
recomputed: S^eps(u) = eps^(-d) S(u/eps) reads the unscaled mode's one
spectrum (``TransverseMode.correlation``), the exact trigonometric
interpolant of the circular grid correlations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, reduce

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import eigsh

from .errors import DegeneracyError, DomainError, ResolutionError
from .potentials import ConfinementPotential, gauss_legendre

BOUNDARY_DECAY = 1e-8
DEGENERACY_GAP = 1e-10


@dataclass(frozen=True)
class TransverseGrid:
    extent: float          # grid covers [-extent, extent] per axis
    points: int

    def __post_init__(self):
        if self.extent <= 0:
            raise DomainError(f"extent must be positive, got {self.extent!r}")
        if self.points < 16:
            raise DomainError(f"points must be >= 16, got {self.points!r}")

    @property
    def axis(self) -> np.ndarray:
        return np.linspace(-self.extent, self.extent, self.points)

    @property
    def spacing(self) -> float:
        return 2.0 * self.extent / (self.points - 1)


@dataclass(frozen=True)
class TransverseMode:
    """Discretized eigendata of -Delta_y + V_perp (or its eps-rescaling)."""

    axis: np.ndarray           # sample positions along one transverse axis
    chi: np.ndarray            # shape (n,) * dimension; mode 0
    modes: np.ndarray          # shape (n_modes, ...) stacked eigenfunctions
    energies: np.ndarray       # corresponding eigenvalues, ascending
    dimension: int
    epsilon: float = 1.0       # 1.0 means the unscaled problem
    unit: TransverseMode | None = field(default=None, repr=False, compare=False)

    @cached_property
    def _spectrum(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The exact trigonometric interpolant of the circular correlations of
        the pair products tau_a tau_c, a <= c, of every mode, from one FFT:
        wavevectors k of shape (K, d); the real and the imaginary parts of the
        coefficients c_k = w F_ac conj(F_bd) / n^d, one row per pair of pairs;
        and the row of each S[a, c, b, d].  Wavevectors whose every coefficient
        lies below roundoff of the largest are dropped."""
        n = len(self.modes)
        a, c = np.triu_indices(n)
        pair = np.empty((n, n), dtype=np.int64)
        pair[a, c] = pair[c, a] = np.arange(len(a))
        axes = tuple(range(1, self.dimension + 1))
        f = np.fft.fftn(self.modes[a] * self.modes[c], axes=axes).reshape(len(a), -1)
        peak = np.max(np.abs(f), axis=0) ** 2      # the largest |c_k| over the pairs, / (w / n^d)
        keep = peak > np.finfo(float).eps * peak.max()
        freqs = 2.0 * math.pi * np.fft.fftfreq(len(self.axis), d=self.spacing)
        k = np.stack(np.meshgrid(*(freqs,) * self.dimension, indexing="ij"), axis=-1)
        f = f[:, keep]
        coef = (self.weight / len(self.axis) ** self.dimension
                * f[:, None] * np.conj(f[None, :])).reshape(len(a) ** 2, -1)
        rows = pair[:, :, None, None] * len(a) + pair
        return k.reshape(-1, self.dimension)[keep], coef.real.copy(), coef.imag.copy(), rows

    def correlation(self, u, n_modes: int):
        """S[a, c, b, d](u) = w sum_y tau_a tau_c(y) tau_b tau_d(y - u) of the
        first `n_modes` modes, shape (n, n, n, n, *u.shape): the exact
        trigonometric interpolant of the circular grid correlations, so equal to
        them at the grid offsets (`wrapped_offsets`).  The transverse-density
        correlation T(u) = int |chi(y)|^2 |chi(y - u)|^2 dy is the (0, 0, 0, 0) entry.

        In one dimension u is the signed offset, S(u) = sum_k Re(c_k e^(iku)).  In
        two, u is the offset radius and S the exact angular mean, sum_k Re(c_k)
        J0(|k| u).  A rescaled mode reads the spectrum of the mode it was
        rescaled from, S^s(u) = s^(-d) S(u/s).  All pairs are evaluated, then
        the first `n_modes` cut, so S of fewer modes is a sub-block bit for bit.
        """
        ref = self.unit or self
        k, re, im, rows = ref._spectrum
        s = self.epsilon / ref.epsilon
        u = np.asarray(u, dtype=float) / s
        if self.dimension == 1:
            ku = np.outer(k[:, 0], u)
            vals = re @ np.cos(ku) - im @ np.sin(ku)
        else:
            from scipy.special import j0  # d_perp = 2 only
            vals = re @ j0(np.outer(np.linalg.norm(k, axis=1), u))
        cut = rows[(slice(n_modes),) * 4]
        return s ** -self.dimension * vals[cut].reshape(*cut.shape, *u.shape)

    @property
    def spacing(self) -> float:
        return float(self.axis[1] - self.axis[0])

    @property
    def weight(self) -> float:
        return self.spacing**self.dimension

    @property
    def energy0(self) -> float:
        return float(self.energies[0])

    @property
    def gap(self) -> float:
        return float(self.energies[1] - self.energies[0])

    @property
    def quartic(self) -> float:
        return float(np.sum(np.abs(self.chi) ** 4) * self.weight)


def _normalize_and_sign(vec: np.ndarray, weight: float) -> np.ndarray:
    vec = vec / np.sqrt(np.sum(np.abs(vec) ** 2) * weight)
    peak = np.unravel_index(np.argmax(np.abs(vec)), vec.shape)
    if vec[peak] < 0:
        vec = -vec
    return vec


def _check_boundary_decay(chi: np.ndarray) -> None:
    edge = max(np.abs(np.take(chi, [0, -1], axis=k)).max() for k in range(chi.ndim))
    if edge > BOUNDARY_DECAY * np.abs(chi).max():
        raise ResolutionError(
            f"ground state does not decay at the boundary "
            f"(edge/peak = {edge / np.abs(chi).max():.2e} > {BOUNDARY_DECAY}); "
            f"increase the grid extent"
        )


# -d^2/dy^2 times h^2 at the offsets -3..3: the centred sixth-order
# second-difference weights (Fornberg, Math. Comp. 51, 699 (1988))
STENCIL = (-1 / 90, 3 / 20, -3 / 2, 49 / 18, -3 / 2, 3 / 20, -1 / 90)


def solve_modes(confinement: ConfinementPotential, grid: TransverseGrid,
                n_modes: int = 2) -> TransverseMode:
    """Lowest ``n_modes`` eigenpairs of the discretized -Delta + V_perp, with
    zero boundary values beyond the grid."""
    if n_modes < 2:
        raise DomainError(f"n_modes must be >= 2 (gap is always reported), got {n_modes}")
    y, h, n, d = grid.axis, grid.spacing, grid.points, confinement.dimension
    offsets = range(-(len(STENCIL) // 2), len(STENCIL) // 2 + 1)
    lap1 = sp.diags([np.full(n - abs(k), c / h**2) for k, c in zip(offsets, STENCIL)],
                    list(offsets), format="csr")
    # -Delta on the d-fold grid: the sum of lap1 on each axis, I x .. x lap1 x .. x I
    lap = reduce(lambda acc, _: sp.kronsum(acc, lap1), range(d - 1), lap1)
    v = confinement.on_grid(*(y,) * d).ravel()
    # a fixed start vector makes the modes reproducible; a random one, so
    # that it is not orthogonal to the odd modes as a symmetric vector is
    v0 = np.random.default_rng(0).standard_normal(n**d)
    vals, vecs = eigsh((lap + sp.diags(v)).tocsc(), k=n_modes, sigma=float(np.min(v)) - 1.0,
                       which="LM", v0=v0)
    order = np.argsort(vals)
    vals = vals[order]
    modes = np.stack([_normalize_and_sign(vecs[:, i].reshape((n,) * d), h**d) for i in order])
    if vals[1] - vals[0] < DEGENERACY_GAP:
        raise DegeneracyError(
            f"lowest eigenpair is degenerate (gap = {vals[1] - vals[0]:.2e})"
        )
    _check_boundary_decay(modes[0])
    return TransverseMode(axis=y, chi=modes[0], modes=modes, energies=vals, dimension=d)


def wrapped_offsets(axis: np.ndarray) -> np.ndarray:
    """Offsets of a uniform grid from its first point, wrapped into one
    period centered at 0: the offsets of a circular correlation, FFT order."""
    h = axis[1] - axis[0]
    span = len(axis) * h
    return (np.arange(len(axis)) * h + span / 2.0) % span - span / 2.0


def offset_rule(u_max, dimension: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point `gauss_legendre` nodes and weights over the transverse offsets
    of length at most u_max (a scalar or an array; nodes on a last axis).

    One dimension: the signed offset on [-u_max, u_max].  Two: the radius on
    [0, u_max], with the polar weight 2 pi u.
    """
    if dimension == 1:
        return gauss_legendre(-u_max, u_max, n)
    u, weights = gauss_legendre(0.0, u_max, n)
    return u, weights * 2.0 * math.pi * u


def rescale(mode: TransverseMode, epsilon: float) -> TransverseMode:
    """chi^eps(y) = eps^(-d/2) chi(y/eps) on the grid eps * axis; exact.

    The prefactor preserves the L2 normalisation in any transverse dimension
    (it is 1/eps for d = 2); the quartic integral picks up eps^(-d) and the
    energies eps^(-2).
    """
    if epsilon <= 0:
        raise DomainError(f"epsilon must be positive, got {epsilon!r}")
    factor = epsilon ** (-mode.dimension / 2.0)
    return TransverseMode(
        axis=mode.axis * epsilon,
        chi=mode.chi * factor,
        modes=mode.modes * factor,
        energies=mode.energies / epsilon**2,
        dimension=mode.dimension,
        epsilon=mode.epsilon * epsilon,
        unit=mode.unit or mode,
    )
