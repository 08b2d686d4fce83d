"""Interaction profiles, the scaled pair-potential family, and trap potentials.

The unscaled profile w is radial, non-negative, bounded and compactly
supported.  The scaled family on R^(1+dperp) is

    w_scaled(z) = amplitude * w(|z|/mu),   amplitude = (N/eps^2)^((1+dperp)*beta) * eps^dperp / N,

which for the physical transverse dimension dperp = 2 reduces to the familiar
(N/eps^2)^(-1+3 beta) and keeps the coupling constant b exactly invariant
along any power-law family in every dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Callable

import numpy as np

from .errors import DomainError
from .scaling import ScalingPoint

_SHELL_AREA = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}  # |S^(d-1)|


@cache
def _legendre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """numpy's leggauss(n), read-only and computed once per n (about 1 ms each)."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def gauss_legendre(lo, hi, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes and weights on each interval [lo, hi] (scalars
    or arrays; nodes on a new last axis), the rule of every radial, offset and
    chord integral of the package; split a kinked integrand at its kinks.

    Nodes are half * (x + mid/half), so [-a, a] maps to a * x and [0, a] to
    (a/2)(x + 1) with no midpoint rounding; an empty interval has its nodes at
    its point.
    """
    nodes, weights = _legendre_rule(n)
    lo, hi = (np.asarray(end, dtype=float)[..., None] for end in (lo, hi))
    half = 0.5 * (hi - lo)
    empty = hi == lo
    c = np.divide(lo + hi, hi - lo, out=np.zeros_like(half), where=~empty)
    return np.where(empty, lo, half * (nodes + c)), half * weights


@dataclass(frozen=True)
class InteractionProfile:
    """Unscaled radial pair potential w(r) on [0, support_radius], smooth between its kinks."""

    name: str
    radial_profile: Callable[[np.ndarray], np.ndarray]
    support_radius: float
    kinks: tuple[float, ...] = ()

    def __post_init__(self):
        if self.support_radius <= 0:
            raise DomainError(f"support_radius must be positive, got {self.support_radius!r}")

    @property
    def edges(self) -> np.ndarray:
        """0, the kinks and the support radius: the ends of the smooth segments."""
        return np.array([0.0, *self.kinks, self.support_radius])

    def shell_integral(self, dim: int) -> float:
        """Integral of w over R^dim (radial change of variables), by a 48-node
        `gauss_legendre` rule on each smooth segment of [0, support_radius]."""
        r, w = gauss_legendre(self.edges[:-1], self.edges[1:], 48)
        return _SHELL_AREA[dim] * float(np.sum(w * r ** (dim - 1) * self.radial_profile(r)))


def uniform_ball(height: float = 1.0, radius: float = 1.0) -> InteractionProfile:
    if height < 0:
        raise DomainError(f"height must be non-negative, got {height!r}")

    def fn(r):
        r = np.asarray(r, dtype=float)
        return np.where(r <= radius, height, 0.0)

    return InteractionProfile("uniform_ball", fn, float(radius))


def gaussian_bump(height: float = 1.0, radius: float = 1.0, width: float | None = None) -> InteractionProfile:
    """Gaussian bump truncated at its support radius."""
    if height < 0:
        raise DomainError(f"height must be non-negative, got {height!r}")
    w = width if width is not None else radius / 3.0

    def fn(r):
        r = np.asarray(r, dtype=float)
        return np.where(r <= radius, height * np.exp(-((r / w) ** 2)), 0.0)

    return InteractionProfile("gaussian_bump", fn, float(radius))


def from_table(r_values, w_values, name: str = "table") -> InteractionProfile:
    """Tabulated radial profile; linear interpolation, zero beyond the last node."""
    r = np.asarray(r_values, dtype=float)
    w = np.asarray(w_values, dtype=float)
    if r.ndim != 1 or r.shape != w.shape or len(r) < 2:
        raise DomainError("table needs matching 1-d r and w columns with >= 2 rows")
    if r[0] != 0.0 or np.any(np.diff(r) <= 0):
        raise DomainError("table radii must start at 0 and increase strictly")
    if np.any(w < 0):
        raise DomainError("tabulated w must be non-negative")

    def fn(x):
        x = np.asarray(x, dtype=float)
        return np.interp(x, r, w, right=0.0)

    return InteractionProfile(name, fn, float(r[-1]), tuple(r[1:-1].tolist()))


def from_csv(path) -> InteractionProfile:
    data = np.loadtxt(path, delimiter=",", comments="#")
    if data.ndim != 2 or data.shape[1] < 2:
        raise DomainError(f"csv {path!r} must have columns r, w")
    return from_table(data[:, 0], data[:, 1], name=str(path))


_BUILTIN_PROFILES = {
    "uniform_ball": uniform_ball,
    "gaussian_bump": gaussian_bump,
    "zero": lambda height, radius: uniform_ball(height=0.0),
}


def profile_by_name(name: str, height: float, radius: float) -> InteractionProfile:
    """The named built-in at this height and radius; a <path>.csv table, or
    "zero", fixes its own."""
    if name.endswith(".csv"):
        return from_csv(name)
    try:
        factory = _BUILTIN_PROFILES[name]
    except KeyError:
        raise DomainError(f"unknown interaction profile {name!r}; "
                          f"known: {sorted(_BUILTIN_PROFILES)} or <path>.csv") from None
    return factory(height, radius)


@dataclass(frozen=True)
class ScaledInteraction:
    point: ScalingPoint
    profile: InteractionProfile
    d_perp: int = 2

    def __post_init__(self):
        if self.d_perp not in (1, 2):
            raise DomainError(f"d_perp must be 1 or 2, got {self.d_perp!r}")

    @property
    def amplitude(self) -> float:
        p = self.point
        return p.density_scale ** ((1 + self.d_perp) * p.beta) * p.epsilon**self.d_perp / p.n_particles

    @property
    def range(self) -> float:
        return self.point.mu * self.profile.support_radius

    def __call__(self, radius) -> np.ndarray:
        """Evaluate w_scaled at |z| = radius."""
        r = np.asarray(radius, dtype=float)
        return self.amplitude * self.profile.radial_profile(r / self.point.mu)

    def integral(self, dim: int | None = None) -> float:
        """Exact integral over R^dim via the change of variables z -> z/mu.

        amplitude * mu^dim is evaluated with a single fused exponent so that
        cancellations (e.g. dim = 1 + d_perp) are exact in floating point.
        """
        d = (1 + self.d_perp) if dim is None else dim
        p = self.point
        power = (1 + self.d_perp - d) * p.beta
        pref = 1.0 if power == 0.0 else p.density_scale**power
        return pref * p.epsilon**self.d_perp / p.n_particles * self.profile.shell_integral(d)


def scale(profile: InteractionProfile, point: ScalingPoint, d_perp: int = 2) -> ScaledInteraction:
    return ScaledInteraction(point, profile, d_perp)


def effective_coupling(scaled: ScaledInteraction, rescaled_quartic: float) -> float:
    """The coupling b = N * int_{R^(1+dperp)} w_scaled * int |chi^eps|^4 of the
    effective equation; (N, eps)-invariant along power-law families.

    For d_perp = 2 it is the paper's (N/eps^2) * int w_scaled * int |chi|^4.  The
    sweep uses its eps-free limit (``harness.SweepInputs.b_eff``); only
    verify-all's coupling_invariance check still calls this scaled route."""
    if rescaled_quartic <= 0:
        raise DomainError(f"rescaled_quartic must be positive, got {rescaled_quartic!r}")
    p = scaled.point
    d = 1 + scaled.d_perp
    return p.epsilon**scaled.d_perp * scaled.profile.shell_integral(d) * rescaled_quartic


@dataclass(frozen=True)
class ExternalPotential:
    """Longitudinal field V(t, x, y) = f(t) g(x, y): a static profile g (y enters only
    through weak transverse variation) times a modulation f, None for a static field."""

    name: str
    profile: Callable  # g(x, y1, y2), vectorized
    time_derivative_sup: float
    transverse_gradient_sup: float
    mixed_derivative_sup: float = 0.0
    modulation: Callable[[float], float] | None = None

    @property
    def time_dependent(self) -> bool:
        return self.modulation is not None

    def strength(self, t: float) -> float:
        """f(t); 1 for a static field."""
        return 1.0 if self.modulation is None else float(self.modulation(t))


def gaussian_well(depth: float = 1.0, width: float = 2.0, tilt: float = 0.0) -> ExternalPotential:
    """Static well -depth*exp(-x^2/width^2) with optional linear transverse tilt."""

    def g(x, y1, y2):
        x = np.asarray(x, dtype=float)
        return -depth * np.exp(-(x / width) ** 2) * (1.0 + tilt * (y1 + y2))

    grad = abs(depth * tilt) if tilt else 0.0
    return ExternalPotential("gaussian_well", g, 0.0, grad)


def driven_well(depth: float = 1.0, omega: float = 1.0) -> ExternalPotential:
    """Time-modulated well -depth*(1 + sin(omega t)/2)*exp(-x^2/4)."""

    def g(x, y1, y2):
        return -depth * np.exp(-(np.asarray(x, dtype=float) / 2.0) ** 2)

    return ExternalPotential("driven_well", g, 0.5 * abs(depth * omega), 0.0,
                             mixed_derivative_sup=0.5 * abs(depth * omega),
                             modulation=lambda t: 1.0 + 0.5 * math.sin(omega * t))


_BUILTIN_EXTERNAL = {
    "gaussian_well": gaussian_well,
    "driven_well": driven_well,
}


def external_by_name(name: str, **kwargs) -> ExternalPotential | None:
    """The named field; "zero" is no field, None."""
    if name == "zero":
        return None
    try:
        factory = _BUILTIN_EXTERNAL[name]
    except KeyError:
        raise DomainError(f"unknown external potential {name!r}; "
                          f"known: {sorted([*_BUILTIN_EXTERNAL, 'zero'])}") from None
    return factory(**kwargs)


@dataclass(frozen=True)
class ConfinementPotential:
    """Transverse trap V_perp on R^dimension, bounded below by construction."""

    name: str
    evaluator: Callable[[np.ndarray], np.ndarray]  # radial or per-axis-sum evaluator on |y|
    dimension: int

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise DomainError(f"confinement dimension must be 1 or 2, got {self.dimension!r}")

    def on_grid(self, *axes) -> np.ndarray:
        """V_perp at the radius of every point of the grid that ``axes`` span."""
        radius = np.sqrt(sum(y**2 for y in np.meshgrid(*axes, indexing="ij", sparse=True)))
        return np.asarray(self.evaluator(radius), dtype=float)


def harmonic_confinement(dimension: int) -> ConfinementPotential:
    return ConfinementPotential("harmonic", lambda r: np.asarray(r, dtype=float) ** 2,
                                dimension)


def softened_confinement(dimension: int) -> ConfinementPotential:
    """Bounded smooth trap 20*(1 - exp(-(r/2)^2)); has bound states below the continuum."""

    def ev(r):
        r = np.asarray(r, dtype=float)
        return 20.0 * (1.0 - np.exp(-((r / 2.0) ** 2)))

    return ConfinementPotential("softened", ev, dimension)


_BUILTIN_CONFINEMENT = {
    "harmonic": harmonic_confinement,
    "softened": softened_confinement,
}


def confinement_by_name(name: str, dimension: int) -> ConfinementPotential:
    try:
        factory = _BUILTIN_CONFINEMENT[name]
    except KeyError:
        raise DomainError(f"unknown confinement {name!r}; known: {sorted(_BUILTIN_CONFINEMENT)}") from None
    return factory(dimension)
