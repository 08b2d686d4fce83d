"""Ground state of the confined transverse problem -Delta_y + V_perp.

The solver returns the lowest eigenpairs of the finite-difference operator:
a dense symmetric tridiagonal solve in one transverse dimension, shift-invert
Lanczos on the sparse 5-point stencil in two.  Rescaling
chi^eps(y) = eps^(-d/2) chi(y/eps) is exact on the discrete level, so the
scaled eigenproblem is never re-solved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh_tridiagonal
from scipy.sparse.linalg import eigsh

from .errors import DegeneracyError, DomainError, ResolutionError
from .potentials import ConfinementPotential

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
    chi: np.ndarray            # shape (n,) for d=1, (n, n) for d=2; mode 0
    modes: np.ndarray          # shape (n_modes, ...) stacked eigenfunctions
    energies: np.ndarray       # corresponding eigenvalues, ascending
    dimension: int
    epsilon: float = 1.0       # 1.0 means the unscaled problem

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

    def norm(self, which: int = 0) -> float:
        return float(np.sqrt(np.sum(np.abs(self.modes[which]) ** 2) * self.weight))


def _normalize_and_sign(vec: np.ndarray, weight: float) -> np.ndarray:
    vec = vec / np.sqrt(np.sum(np.abs(vec) ** 2) * weight)
    peak = np.unravel_index(np.argmax(np.abs(vec)), vec.shape)
    if vec[peak] < 0:
        vec = -vec
    return vec


def _check_boundary_decay(chi: np.ndarray) -> None:
    if chi.ndim == 1:
        edge = max(abs(chi[0]), abs(chi[-1]))
    else:
        edge = max(np.abs(chi[0, :]).max(), np.abs(chi[-1, :]).max(),
                   np.abs(chi[:, 0]).max(), np.abs(chi[:, -1]).max())
    if edge > BOUNDARY_DECAY * np.abs(chi).max():
        raise ResolutionError(
            f"ground state does not decay at the boundary "
            f"(edge/peak = {edge / np.abs(chi).max():.2e} > {BOUNDARY_DECAY}); "
            f"increase the grid extent"
        )


def solve_modes(confinement: ConfinementPotential, grid: TransverseGrid,
                n_modes: int = 2) -> TransverseMode:
    """Lowest ``n_modes`` eigenpairs of the discretized -Delta + V_perp."""
    if n_modes < 2:
        raise DomainError(f"n_modes must be >= 2 (gap is always reported), got {n_modes}")
    y = grid.axis
    h = grid.spacing
    if confinement.dimension == 1:
        v = confinement.on_grid(y)
        diag = 2.0 / h**2 + v
        off = np.full(grid.points - 1, -1.0 / h**2)
        vals, vecs = eigh_tridiagonal(diag, off, select="i",
                                      select_range=(0, n_modes - 1))
        modes = np.stack([_normalize_and_sign(vecs[:, i], h) for i in range(n_modes)])
    else:
        v = confinement.on_grid(y, y).ravel()
        n = grid.points
        lap1 = sp.diags(
            [np.full(n, 2.0 / h**2), np.full(n - 1, -1.0 / h**2), np.full(n - 1, -1.0 / h**2)],
            [0, 1, -1], format="csr",
        )
        eye = sp.identity(n, format="csr")
        ham = (sp.kron(lap1, eye) + sp.kron(eye, lap1) + sp.diags(v)).tocsc()
        sigma = float(np.min(v)) - 1.0
        vals, vecs = eigsh(ham, k=n_modes, sigma=sigma, which="LM")
        order = np.argsort(vals)
        vals = vals[order]
        vecs = vecs[:, order]
        modes = np.stack([
            _normalize_and_sign(vecs[:, i].reshape(n, n), h**2) for i in range(n_modes)
        ])
    if vals[1] - vals[0] < DEGENERACY_GAP:
        raise DegeneracyError(
            f"lowest eigenpair is degenerate (gap = {vals[1] - vals[0]:.2e})"
        )
    _check_boundary_decay(modes[0])
    return TransverseMode(axis=y, chi=modes[0], modes=modes,
                          energies=np.asarray(vals[:n_modes], dtype=float),
                          dimension=confinement.dimension)


def wrapped_offsets(axis: np.ndarray) -> np.ndarray:
    """Offsets of a uniform grid from its first point, wrapped into one
    period centered at 0: the offsets of a circular correlation, FFT order."""
    h = axis[1] - axis[0]
    span = len(axis) * h
    return (np.arange(len(axis)) * h + span / 2.0) % span - span / 2.0


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
    )


def rayleigh_quotient(mode: TransverseMode, confinement: ConfinementPotential,
                      which: int = 0) -> float:
    """Discrete <chi, (-Delta + V) chi> for the stored samples (diagnostic)."""
    chi = mode.modes[which]
    h = mode.spacing
    eps = mode.epsilon
    if mode.dimension == 1:
        lap = np.zeros_like(chi)
        lap[1:-1] = (chi[2:] - 2 * chi[1:-1] + chi[:-2]) / h**2
        v = confinement.on_grid(mode.axis / eps) / eps**2
        return float(np.sum(chi * (-lap + v * chi)) * h)
    lap = np.zeros_like(chi)
    lap[1:-1, :] += (chi[2:, :] - 2 * chi[1:-1, :] + chi[:-2, :]) / h**2
    lap[:, 1:-1] += (chi[:, 2:] - 2 * chi[:, 1:-1] + chi[:, :-2]) / h**2
    v = confinement.on_grid(mode.axis / eps, mode.axis / eps) / eps**2
    return float(np.sum(chi * (-lap + v * chi)) * h**2)


def excited_fraction_bound(epsilon: float, envelope_value: float) -> float:
    """A-priori ceiling envelope * eps on the one-particle transverse excitation norm."""
    if epsilon <= 0:
        raise DomainError(f"epsilon must be positive, got {epsilon!r}")
    if envelope_value < 1.0:
        raise DomainError(f"envelope values are >= 1 by construction, got {envelope_value!r}")
    return envelope_value * epsilon
