"""Scaling points, admissibility classification of a sequence, convergence rate.

Conventions: a scaling point carries (N, epsilon, beta) with the derived
density scale N/eps^2 and interaction range mu = (N/eps^2)^(-beta).  A
sequence is admissible when eps^2/mu -> 0 and moderately confining when
mu/eps -> 0; at desk scale both limits are replaced by a strict-decrease
tail test plus a final threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import DomainError, InsufficientDataError

#: Final-value threshold standing in for "-> 0" on finite sequences.
LIMIT_THRESHOLD = 0.5


@dataclass(frozen=True)
class ScalingPoint:
    n_particles: int
    epsilon: float
    beta: float
    mu: float = field(init=False)
    density_scale: float = field(init=False)

    def __post_init__(self):
        if not isinstance(self.n_particles, int) or self.n_particles < 2:
            raise DomainError(f"n_particles must be an integer >= 2, got {self.n_particles!r}")
        if not (0.0 < self.epsilon < 1.0):
            raise DomainError(f"epsilon must lie in (0, 1), got {self.epsilon!r}")
        if not (0.0 < self.beta < 1.0):
            raise DomainError(f"beta must lie in (0, 1), got {self.beta!r}")
        eps_sq = self.epsilon**2
        if eps_sq == 0.0:
            raise DomainError(f"epsilon = {self.epsilon!r} underflows when squared")
        density = self.n_particles / eps_sq
        mu = density ** (-self.beta)
        if not (0.0 < mu < math.inf):
            raise DomainError("mu leaves the floating-point range for these parameters")
        object.__setattr__(self, "density_scale", density)
        object.__setattr__(self, "mu", mu)

    @property
    def eps2_over_mu(self) -> float:
        return self.epsilon**2 / self.mu

    @property
    def mu_over_eps(self) -> float:
        return self.mu / self.epsilon


def make_point(n_particles: int, epsilon: float, beta: float) -> ScalingPoint:
    return ScalingPoint(n_particles, epsilon, beta)


@dataclass(frozen=True)
class Classification:
    admissible: bool
    moderately_confining: bool


def _tail_converges(values) -> bool:
    decreasing = all(b < a for a, b in zip(values, values[1:]))
    return decreasing and values[-1] < LIMIT_THRESHOLD


def classify(points) -> Classification:
    """Finite-sequence proxy for the two limit conditions on scaling points
    that share one beta and increase strictly in N.

    A ratio "converges" when it is strictly decreasing across consecutive
    points and its final value is below ``LIMIT_THRESHOLD``.
    """
    points = list(points)
    betas = {p.beta for p in points}
    if len(betas) > 1:
        raise DomainError(f"all points must share one beta, got {sorted(betas)}")
    ns = [p.n_particles for p in points]
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise DomainError("points must be strictly increasing in n_particles")
    if len(points) < 3:
        raise InsufficientDataError(
            f"classification needs at least 3 points, got {len(points)}"
        )
    return Classification(_tail_converges([p.eps2_over_mu for p in points]),
                          _tail_converges([p.mu_over_eps for p in points]))


def power_law_window(beta: float) -> tuple[float, float]:
    """Open interval of exponents gamma for which epsilon = N^(-gamma) gives an
    admissible and moderately confining sequence.

    For eps = N^(-gamma): eps^2/mu = N^(beta(1+2 gamma) - 2 gamma) vanishes iff
    gamma > beta/(2 - 2 beta); mu/eps = N^(gamma - beta(1+2 gamma)) vanishes iff
    gamma < beta/(1 - 2 beta), a constraint that is void for beta >= 1/2.
    """
    if not (0.0 < beta < 1.0):
        raise DomainError(f"beta must lie in (0, 1), got {beta!r}")
    gamma_min = beta / (2.0 - 2.0 * beta)
    gamma_max = beta / (1.0 - 2.0 * beta) if beta < 0.5 else math.inf
    return gamma_min, gamma_max


@dataclass(frozen=True)
class RateBreakdown:
    total: float
    confinement_term: float      # mu/eps
    reduction_term: float        # (eps^2/mu)^(1/2)
    particle_term: float         # N^(-beta/4)
    coupling_term: float         # (N/eps^2)^(-eta)


def theoretical_rate(point: ScalingPoint, eta: float) -> RateBreakdown:
    """Unit-constant sum of the four optimized rate terms.

    R = mu/eps + (eps^2/mu)^(1/2) + N^(-beta/4) + (N/eps^2)^(-eta).
    Constants hidden by the estimates are left to the sweep harness, which
    fits them by regression.
    """
    if eta <= 0.0:
        raise DomainError(f"eta must be positive, got {eta!r}")
    t1 = point.mu_over_eps
    t2 = math.sqrt(point.eps2_over_mu)
    t3 = float(point.n_particles) ** (-point.beta / 4.0)
    t4 = point.density_scale ** (-eta)
    return RateBreakdown(t1 + t2 + t3 + t4, t1, t2, t3, t4)
