"""Key-value text configuration.

Format: one ``key = value`` per line, ``#`` comments, blank lines ignored.
Dotted keys group settings (sequence.beta, nls.dt, ...).  Lists are
comma-separated.  Explicit scaling points use ``N:epsilon`` pairs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError


def parse_kv_text(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


class Config:
    def __init__(self, entries: dict[str, str]):
        self._entries = dict(entries)

    @classmethod
    def from_file(cls, path) -> "Config":
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"config file {path!r} does not exist")
        return cls(parse_kv_text(p.read_text()))

    @classmethod
    def from_text(cls, text: str) -> "Config":
        return cls(parse_kv_text(text))

    def get(self, key: str, required: bool = False) -> str | None:
        """The entry for `key`; else the default table's entry (sequence.* keys
        are never defaulted); else None, or ConfigError if `required`."""
        if key in self._entries:
            return self._entries[key]
        if required:
            raise ConfigError(f"missing required key {key!r}")
        return _FALLBACKS.get(key)

    def _convert(self, key, conv, required):
        raw = self.get(key, required)
        if raw is None:
            return None
        try:
            return conv(raw)
        except ValueError as exc:
            raise ConfigError(f"key {key!r}: cannot parse {raw!r}") from exc

    def get_int(self, key, required=False) -> int | None:
        return self._convert(key, lambda s: int(float(s)), required)

    def get_float(self, key, required=False) -> float | None:
        return self._convert(key, float, required)

    def get_list(self, key, conv=str, required=False) -> list:
        raw = self.get(key, required)
        if raw is None:
            return []
        try:
            return [conv(part.strip()) for part in raw.split(",") if part.strip()]
        except ValueError as exc:
            raise ConfigError(f"key {key!r}: cannot parse list {raw!r}") from exc

    def get_points(self, key) -> list[tuple[int, float]]:
        """Explicit scaling points as 'N1:eps1, N2:eps2, ...'."""
        raw = self.get(key)
        if raw is None:
            return []
        pairs = []
        for part in raw.split(","):
            part = part.strip()
            if not part:
                continue
            if ":" not in part:
                raise ConfigError(f"key {key!r}: expected 'N:epsilon', got {part!r}")
            n_str, eps_str = part.split(":", 1)
            try:
                pairs.append((int(float(n_str)), float(eps_str)))
            except ValueError as exc:
                raise ConfigError(f"key {key!r}: cannot parse pair {part!r}") from exc
        return pairs

    def canonical_dump(self) -> str:
        return "\n".join(f"{k} = {self._entries[k]}" for k in sorted(self._entries))

    def hash(self) -> str:
        return hashlib.sha256(self.canonical_dump().encode()).hexdigest()[:16]


# The default table: exactly the entries of configs/default.cfg.  Every key
# except sequence.* falls back to it (Config.get).
DEFAULT_CONFIG_TEXT = """
# Condensation-persistence sweep along the admissible beta = 1/2, gamma = 1
# power-law family (the acceptance configuration).

# scaling sequence: epsilon = N^-gamma at the listed particle numbers
sequence.beta = 0.5
sequence.gamma = 1.0
sequence.n_values = 2, 3, 4, 5, 6, 7, 8

# interaction and traps
interaction.profile = uniform_ball    # uniform_ball | gaussian_bump | <path>.csv
interaction.height = 3.0
interaction.radius = 1.0
confinement.name = harmonic           # harmonic | softened
external.name = zero                  # zero | gaussian_well | driven_well

# many-body truncation
manybody.d_perp = 1
manybody.m_x = 9
manybody.m_y = 3
manybody.max_excitations = 3          # particles allowed outside the condensate
manybody.box_length = 6.283185307179586
manybody.transverse_extent = 8.0
manybody.transverse_points = 961
manybody.dim_cap = 200000

# solvers
nls.points = 128
nls.dt = 0.001
manybody.dt = 0.01
time.final = 0.5
krylov.tol = 1e-10

# rate inputs (xi <= beta/4, beta1 <= beta)
rate.xi = 0.1
rate.beta1 = 0.25
rate.eta = 1.0

# outputs
output.dir = out
seed = 12345
"""

_FALLBACKS = {k: v for k, v in parse_kv_text(DEFAULT_CONFIG_TEXT).items()
              if not k.startswith("sequence.")}


@dataclass(frozen=True)
class ExperimentConfig:
    """Typed view of the sweep configuration."""

    beta: float
    gamma: float | None
    n_values: tuple[int, ...]
    explicit_points: tuple[tuple[int, float], ...]
    profile_name: str
    profile_height: float
    profile_radius: float
    confinement_name: str
    external_name: str
    d_perp: int
    m_x: int
    m_y: int
    max_excitations: int
    box_length: float
    transverse_extent: float
    transverse_points: int
    dim_cap: int
    nls_points: int
    nls_dt: float
    manybody_dt: float
    t_final: float
    krylov_tol: float
    xi: float
    beta1: float
    eta: float
    config_hash: str

    @classmethod
    def from_config(cls, cfg: Config) -> "ExperimentConfig":
        beta = cfg.get_float("sequence.beta", required=True)
        gamma = cfg.get_float("sequence.gamma")
        n_values = tuple(cfg.get_list("sequence.n_values", conv=lambda s: int(float(s))))
        explicit = tuple(cfg.get_points("sequence.points"))
        if not explicit and (gamma is None or not n_values):
            raise ConfigError("need sequence.points or (sequence.gamma and sequence.n_values)")
        env = cls(
            beta=beta,
            gamma=gamma,
            n_values=n_values,
            explicit_points=explicit,
            profile_name=cfg.get("interaction.profile"),
            profile_height=cfg.get_float("interaction.height"),
            profile_radius=cfg.get_float("interaction.radius"),
            confinement_name=cfg.get("confinement.name"),
            external_name=cfg.get("external.name"),
            d_perp=cfg.get_int("manybody.d_perp"),
            m_x=cfg.get_int("manybody.m_x"),
            m_y=cfg.get_int("manybody.m_y"),
            max_excitations=cfg.get_int("manybody.max_excitations"),
            box_length=cfg.get_float("manybody.box_length"),
            transverse_extent=cfg.get_float("manybody.transverse_extent"),
            transverse_points=cfg.get_int("manybody.transverse_points"),
            dim_cap=cfg.get_int("manybody.dim_cap"),
            nls_points=cfg.get_int("nls.points"),
            nls_dt=cfg.get_float("nls.dt"),
            manybody_dt=cfg.get_float("manybody.dt"),
            t_final=cfg.get_float("time.final"),
            krylov_tol=cfg.get_float("krylov.tol"),
            xi=cfg.get_float("rate.xi"),
            beta1=cfg.get_float("rate.beta1"),
            eta=cfg.get_float("rate.eta"),
            config_hash=cfg.hash(),
        )
        if not (0.0 < env.xi <= beta / 4.0):
            raise ConfigError(f"rate.xi must lie in (0, beta/4], got {env.xi}")
        if not (0.0 < env.beta1 <= beta):
            raise ConfigError(f"rate.beta1 must lie in (0, beta], got {env.beta1}")
        return env

    def points(self):
        from .scaling import make_point

        if self.explicit_points:
            return [make_point(n, eps, self.beta) for n, eps in self.explicit_points]
        return [make_point(n, float(n) ** (-self.gamma), self.beta) for n in self.n_values]
