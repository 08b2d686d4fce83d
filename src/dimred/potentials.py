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
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
from scipy.integrate import quad

from .errors import DomainError
from .scaling import ScalingPoint

QUAD_TOL = 1e-12

_SHELL_AREA = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}  # |S^(d-1)|


@dataclass(frozen=True)
class InteractionProfile:
    """Unscaled radial pair potential w(r), supported on [0, support_radius]."""

    name: str
    radial_profile: Callable[[np.ndarray], np.ndarray]
    support_radius: float
    sup_bound: float
    l1_norm: float  # integral of w over R^3

    def shell_integral(self, dim: int) -> float:
        """Integral of w over R^dim (radial change of variables)."""
        area = _SHELL_AREA[dim]
        val, _ = quad(
            lambda r: r ** (dim - 1) * float(self.radial_profile(np.asarray(r))),
            0.0,
            self.support_radius,
            epsabs=QUAD_TOL,
            epsrel=1e-10,
            limit=200,
        )
        return area * val

    def min_value(self, n_samples: int = 2048) -> float:
        r = np.linspace(0.0, self.support_radius, n_samples)
        return float(np.min(self.radial_profile(r)))


def _build_profile(name, fn, support_radius, sup_bound=None) -> InteractionProfile:
    if support_radius <= 0:
        raise DomainError(f"support_radius must be positive, got {support_radius!r}")
    r = np.linspace(0.0, support_radius, 4096)
    vals = np.asarray(fn(r), dtype=float)
    if sup_bound is None:
        sup_bound = float(np.max(vals))
    l1, _ = quad(lambda s: s**2 * float(fn(np.asarray(s))), 0.0, support_radius,
                 epsabs=QUAD_TOL, epsrel=1e-10, limit=200)
    return InteractionProfile(name, fn, float(support_radius), float(sup_bound),
                              4.0 * math.pi * l1)


def uniform_ball(height: float = 1.0, radius: float = 1.0) -> InteractionProfile:
    if height < 0:
        raise DomainError(f"height must be non-negative, got {height!r}")

    def fn(r):
        r = np.asarray(r, dtype=float)
        return np.where(r <= radius, height, 0.0)

    return _build_profile("uniform_ball", fn, radius, sup_bound=height)


def gaussian_bump(height: float = 1.0, radius: float = 1.0, width: float | None = None) -> InteractionProfile:
    """Gaussian bump truncated at its support radius."""
    if height < 0:
        raise DomainError(f"height must be non-negative, got {height!r}")
    w = width if width is not None else radius / 3.0

    def fn(r):
        r = np.asarray(r, dtype=float)
        return np.where(r <= radius, height * np.exp(-((r / w) ** 2)), 0.0)

    return _build_profile("gaussian_bump", fn, radius, sup_bound=height)


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

    # exact int s^2 w(s) ds of the interpolant, one linear piece at a time; the
    # kinks at the nodes defeat adaptive quadrature
    r0, r1, w0, w1 = r[:-1], r[1:], w[:-1], w[1:]
    l1 = np.sum((r1 - r0) / 12.0 * (w0 * (3.0 * r0**2 + 2.0 * r0 * r1 + r1**2)
                                    + w1 * (r0**2 + 2.0 * r0 * r1 + 3.0 * r1**2)))
    return InteractionProfile(name, fn, float(r[-1]), float(np.max(w)), 4.0 * math.pi * float(l1))


def from_csv(path, name: str | None = None) -> InteractionProfile:
    data = np.loadtxt(path, delimiter=",", comments="#")
    if data.ndim != 2 or data.shape[1] < 2:
        raise DomainError(f"csv {path!r} must have columns r, w")
    return from_table(data[:, 0], data[:, 1], name=name or str(path))


_BUILTIN_PROFILES = {
    "uniform_ball": uniform_ball,
    "gaussian_bump": gaussian_bump,
    "zero": lambda: uniform_ball(height=0.0),
}


def profile_by_name(name: str, **kwargs) -> InteractionProfile:
    try:
        factory = _BUILTIN_PROFILES[name]
    except KeyError:
        raise DomainError(f"unknown interaction profile {name!r}; "
                          f"known: {sorted(_BUILTIN_PROFILES)}") from None
    return factory(**kwargs)


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

    def integral_quadrature(self, dim: int | None = None) -> float:
        """Independent radial quadrature of the scaled evaluator (cross-check)."""
        d = (1 + self.d_perp) if dim is None else dim
        val, _ = quad(lambda r: r ** (d - 1) * float(self(r)), 0.0, self.range,
                      epsabs=QUAD_TOL, epsrel=1e-10, limit=200)
        return _SHELL_AREA[d] * val


def scale(profile: InteractionProfile, point: ScalingPoint, d_perp: int = 2) -> ScaledInteraction:
    return ScaledInteraction(point, profile, d_perp)


def coupling(scaled: ScaledInteraction, quartic: float) -> float:
    """Scaled coupling b_(N,eps) = (N/eps^2) * int w_scaled * int |chi|^4.

    ``quartic`` refers to the unscaled transverse ground state; the 3-d
    normalisation is used, so for any power-law family this equals
    l1_norm * quartic independently of the point.
    """
    if quartic <= 0:
        raise DomainError(f"quartic must be positive, got {quartic!r}")
    p = scaled.point
    # fused exponents of N and eps: exact identity along power-law families
    e = 1.0 + (scaled.d_perp - 2.0) * p.beta
    n_pow = 1.0 if e == 1.0 else float(p.n_particles) ** (e - 1.0)
    eps_pow = 1.0 if e == 1.0 and scaled.d_perp == 2 else p.epsilon ** (scaled.d_perp - 2.0 * e)
    return n_pow * eps_pow * scaled.profile.shell_integral(3) * quartic


def effective_coupling(scaled: ScaledInteraction, rescaled_quartic: float) -> float:
    """Dimension-consistent coupling N * int_{R^(1+dperp)} w_scaled * int |chi^eps|^4.

    Used by the many-body surrogate at d_perp = 1; coincides with
    ``coupling`` for d_perp = 2 and is equally (N, eps)-invariant along
    power-law families.
    """
    if rescaled_quartic <= 0:
        raise DomainError(f"rescaled_quartic must be positive, got {rescaled_quartic!r}")
    p = scaled.point
    d = 1 + scaled.d_perp
    return p.epsilon**scaled.d_perp * scaled.profile.shell_integral(d) * rescaled_quartic


def born_length(scaled: ScaledInteraction) -> float:
    """First-order Born approximation to the scattering length: int w_scaled / (8 pi)."""
    return scaled.integral(3) / (8.0 * math.pi)


@dataclass(frozen=True)
class FamilyReport:
    sup_ok: bool
    nonnegative_ok: bool
    support_ok: bool
    coupling_ok: bool
    sup_ratio: float
    min_value: float
    support_ratio: float
    coupling_deviation: float

    @property
    def all_ok(self) -> bool:
        return self.sup_ok and self.nonnegative_ok and self.support_ok and self.coupling_ok


def validate_family(
    scaled: ScaledInteraction,
    eta: float,
    b_limit: float,
    quartic: float = 1.0,
    sup_constant: float | None = None,
    support_constant: float = 1.0,
    coupling_tolerance: float = 1e-8,
) -> FamilyReport:
    """Check the four membership conditions of the scaled-interaction family.

    (a) sup bound, (b) non-negativity (radial symmetry is structural),
    (c) support inside support_constant * mu, (d) (N/eps^2)^eta-weighted
    deviation of b_(N,eps) from the supplied limit below tolerance.
    Failures are reported, never raised.
    """
    p = scaled.point
    sup_cap = sup_constant if sup_constant is not None else scaled.profile.sup_bound * (1 + 1e-9)
    sup_ratio = scaled.amplitude * scaled.profile.sup_bound / p.density_scale ** (-1.0 + 3.0 * p.beta)
    sup_ok = sup_ratio <= sup_cap
    min_val = scaled.profile.min_value()
    support_ratio = scaled.range / p.mu
    b_here = coupling(scaled, quartic)
    dev = p.density_scale**eta * abs(b_here - b_limit)
    return FamilyReport(
        sup_ok=bool(sup_ok),
        nonnegative_ok=bool(min_val >= 0.0),
        support_ok=bool(support_ratio <= support_constant * (1 + 1e-12)),
        coupling_ok=bool(dev <= coupling_tolerance),
        sup_ratio=float(sup_ratio),
        min_value=float(min_val),
        support_ratio=float(support_ratio),
        coupling_deviation=float(dev),
    )


@dataclass(frozen=True)
class ExternalPotential:
    """Longitudinal field V(t, x, y); y enters only through weak transverse variation."""

    name: str
    evaluator: Callable  # (t, x, y1, y2) -> value, vectorized in x
    sup_norm: float
    time_derivative_sup: float
    transverse_gradient_sup: float
    mixed_derivative_sup: float = 0.0
    time_dependent: bool = False

    def on_axis(self, t: float, x: np.ndarray) -> np.ndarray:
        """V(t, (x, 0)), the restriction entering the effective equation."""
        x = np.asarray(x, dtype=float)
        return np.asarray(self.evaluator(t, x, 0.0, 0.0), dtype=float)


def zero_external() -> ExternalPotential:
    return ExternalPotential("zero", lambda t, x, y1, y2: np.zeros_like(np.asarray(x, dtype=float)),
                             0.0, 0.0, 0.0)


def gaussian_well(depth: float = 1.0, width: float = 2.0, tilt: float = 0.0) -> ExternalPotential:
    """Static well -depth*exp(-x^2/width^2) with optional linear transverse tilt."""

    def ev(t, x, y1, y2):
        x = np.asarray(x, dtype=float)
        return -depth * np.exp(-(x / width) ** 2) * (1.0 + tilt * (y1 + y2))

    grad = depth * abs(tilt) if tilt else 0.0
    return ExternalPotential("gaussian_well", ev, depth * (1 + abs(tilt)), 0.0, grad)


def driven_well(depth: float = 1.0, width: float = 2.0, omega: float = 1.0) -> ExternalPotential:
    """Time-modulated well -depth*(1 + sin(omega t)/2)*exp(-x^2/width^2)."""

    def ev(t, x, y1, y2):
        x = np.asarray(x, dtype=float)
        return -depth * (1.0 + 0.5 * math.sin(omega * t)) * np.exp(-(x / width) ** 2)

    return ExternalPotential("driven_well", ev, 1.5 * depth, 0.5 * depth * omega, 0.0,
                             mixed_derivative_sup=0.5 * depth * omega, time_dependent=True)


_BUILTIN_EXTERNAL = {
    "zero": zero_external,
    "gaussian_well": gaussian_well,
    "driven_well": driven_well,
}


def external_by_name(name: str, **kwargs) -> ExternalPotential:
    try:
        factory = _BUILTIN_EXTERNAL[name]
    except KeyError:
        raise DomainError(f"unknown external potential {name!r}; "
                          f"known: {sorted(_BUILTIN_EXTERNAL)}") from None
    return factory(**kwargs)


@dataclass(frozen=True)
class ConfinementPotential:
    """Transverse trap V_perp on R^dimension, bounded below by construction."""

    name: str
    evaluator: Callable[[np.ndarray], np.ndarray]  # radial or per-axis-sum evaluator on |y|
    dimension: int
    negative_part_bound: float

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise DomainError(f"confinement dimension must be 1 or 2, got {self.dimension!r}")

    def on_grid(self, *axes) -> np.ndarray:
        if self.dimension == 1:
            (y,) = axes
            return np.asarray(self.evaluator(np.abs(np.asarray(y, dtype=float))), dtype=float)
        y1, y2 = np.meshgrid(axes[0], axes[1], indexing="ij")
        return np.asarray(self.evaluator(np.sqrt(y1**2 + y2**2)), dtype=float)


def harmonic_confinement(dimension: int = 2) -> ConfinementPotential:
    return ConfinementPotential("harmonic", lambda r: np.asarray(r, dtype=float) ** 2,
                                dimension, 0.0)


def softened_confinement(dimension: int = 1, depth: float = 20.0, width: float = 2.0) -> ConfinementPotential:
    """Bounded smooth trap depth*(1 - exp(-(r/width)^2)); has bound states below the continuum."""

    def ev(r):
        r = np.asarray(r, dtype=float)
        return depth * (1.0 - np.exp(-((r / width) ** 2)))

    return ConfinementPotential("softened", ev, dimension, depth)


_BUILTIN_CONFINEMENT = {
    "harmonic": harmonic_confinement,
    "softened": softened_confinement,
}


def confinement_by_name(name: str, **kwargs) -> ConfinementPotential:
    try:
        factory = _BUILTIN_CONFINEMENT[name]
    except KeyError:
        raise DomainError(f"unknown confinement {name!r}; known: {sorted(_BUILTIN_CONFINEMENT)}") from None
    return factory(**kwargs)


def with_dimension(conf: ConfinementPotential, dimension: int) -> ConfinementPotential:
    return replace(conf, dimension=dimension)
