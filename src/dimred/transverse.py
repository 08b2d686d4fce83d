"""Ground state of the confined transverse problem -Delta_y + V_perp.

The solver returns the lowest eigenpairs of the finite-difference operator by
shift-invert Lanczos: the 7-point, sixth-order stencil on every transverse
axis, summed over the axes.  Rescaling multiplies the energies, and their
O(h^6) error, by eps^(-2); at sixth order the config's grid keeps them
accurate at every eps a sweep reaches, with no grid refinement.  Rescaling
chi^eps(y) = eps^(-d/2) chi(y/eps) is exact on the discrete level, so the
scaled eigenproblem is never re-solved, and the mode correlations are never
recomputed: S^eps(u) = eps^(-d) S(u/eps) reads the unscaled mode's one
interpolant (``TransverseMode.correlation``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property, reduce

import numpy as np
import scipy.sparse as sp
from scipy.linalg import solve_banded
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
    def _correlations(self) -> ModeCorrelations:
        return mode_correlations(self, len(self.modes))

    @cached_property
    def _interpolants(self) -> dict:
        return {}

    def correlation(self, u, n_modes: int):
        """S(u) of the first `n_modes` modes, shape (n, n, n, n, *u.shape) as in
        ``ModeCorrelations.interpolant``.  A rescaled mode evaluates the
        interpolant of the mode it was rescaled from, S^s(u) = s^(-d) S(u/s);
        the interpolant of each mode count is cut from one FFT of all modes."""
        ref = self.unit or self
        at = ref._interpolants.get(n_modes)
        if at is None:
            c = ref._correlations
            lead = (slice(n_modes),) * 4
            at = ref._interpolants[n_modes] = replace(c, values=c.values[lead]).interpolant()
        s = self.epsilon / ref.epsilon
        return s ** -self.dimension * at(np.asarray(u, dtype=float) / s)

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


@dataclass(frozen=True)
class ModeCorrelations:
    """S[a, c, b, d](u) = w sum_y tau_a tau_c(y) tau_b tau_d(y - u) on the
    circular grid offsets (`wrapped_offsets` per axis, FFT order).

    The transverse-density correlation T(u) = int |chi(y)|^2 |chi(y - u)|^2 dy
    is the (0, 0, 0, 0) entry.
    """

    offsets: np.ndarray        # wrapped offsets along one axis
    values: np.ndarray         # (n, n, n, n) + (n_y,) * dimension
    dimension: int

    def interpolant(self):
        """Cubic interpolant u -> S(u) of shape (n, n, n, n, *u.shape).

        In one dimension u is the signed offset and S a cubic spline of the
        grid values.  In two, u is the offset radius and S the mean of a
        bicubic spline over 32 angles.  Cubic splines keep the interpolation
        error far below the mu^2-scale signals these integrals carry (a
        bilinear angular mean misses the 2d Gamma closed form by 7e-3).
        """
        order = np.argsort(self.offsets)
        o = self.offsets[order]
        lead = self.values.shape[:4]
        if self.dimension == 1:
            spline = cubic_spline(o, self.values.reshape(-1, len(o))[:, order].T)
            return lambda u: np.moveaxis(spline(u), -1, 0).reshape(*lead, *np.shape(u))
        from scipy.interpolate import RectBivariateSpline  # d_perp = 2 only
        # S is bitwise symmetric in a <-> c and b <-> d: fit a <= c, b <= d, mirror the rest
        a, c = np.triu_indices(lead[0])
        pair = np.empty(lead[:2], dtype=np.int64)
        pair[a, c] = pair[c, a] = np.arange(len(a))
        grids = self.values[a, c][:, a, c][..., order, :][..., order].reshape(-1, len(o), len(o))
        splines = [RectBivariateSpline(o, o, g) for g in grids]
        theta = np.linspace(0.0, 2.0 * math.pi, 33)[:-1]

        def at(u):
            u = np.asarray(u, dtype=float)[..., None]
            y1, y2 = u * np.cos(theta), u * np.sin(theta)
            means = np.stack([s.ev(y1, y2).mean(axis=-1) for s in splines])
            return means.reshape(len(a), len(a), *u.shape[:-1])[pair][:, :, pair]

        return at


def cubic_spline(x: np.ndarray, y: np.ndarray):
    """The not-a-knot cubic spline through y[i, :] at the ascending x[i], as
    u -> values of shape (*u.shape, y.shape[1]), continued by the end cubics
    beyond x.  It repeats scipy.interpolate.CubicSpline's arithmetic bit for bit."""
    dx = np.diff(x)
    h, d0, d1 = dx[:, None], x[2] - x[0], x[-1] - x[-3]
    slope = np.diff(y, axis=0) / h
    # the slopes s at the nodes solve one tridiagonal system; its end rows are not-a-knot
    ab = np.zeros((3, len(x)))
    ab[0, 1:], ab[2, :-1] = (d0, *dx[:-1]), (*dx[1:], d1)
    ab[1] = (dx[1], *2 * (dx[:-1] + dx[1:]), dx[-2])
    rhs = np.concatenate([((h[0] + 2 * d0) * h[1] * slope[0] + h[0] ** 2 * slope[1])[None] / d0,
                          3 * (h[1:] * slope[:-1] + h[:-1] * slope[1:]),
                          (h[-1] ** 2 * slope[-2] + (2 * d1 + h[-1]) * h[-2] * slope[-1])[None] / d1])
    s = solve_banded((1, 1), ab, rhs)
    t = (s[:-1] + s[1:] - 2 * slope) / h
    coeffs = np.stack([y[:-1], s[:-1], (slope - s[:-1]) / h - t, t / h])  # powers 0..3 of u - x[i]

    def at(u):
        i = np.clip(np.searchsorted(x, u, side="right") - 1, 0, len(x) - 2)
        z = (u - x[i])[..., None]
        c = coeffs[:, i]
        return c[0] + c[1] * z + c[2] * (z * z) + c[3] * (z * z * z)

    return at


def mode_correlations(mode: TransverseMode, n_modes: int) -> ModeCorrelations:
    """Circular correlations of the pair products tau_a tau_c of the first
    `n_modes` modes, by one FFT over the transverse grid."""
    tau = mode.modes[:n_modes]
    pairs = (tau[:, None] * tau[None, :]).reshape(n_modes**2, *tau.shape[1:])
    axes = tuple(range(-mode.dimension, 0))
    f = np.fft.fftn(pairs, axes=axes)
    corr = np.fft.ifftn(f[:, None] * np.conj(f[None, :]), axes=axes).real
    values = mode.weight * corr.reshape((n_modes,) * 4 + tau.shape[1:])
    return ModeCorrelations(wrapped_offsets(mode.axis), values, mode.dimension)


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
