"""The one reader of key-value configuration text.

Format: one ``key = value`` per line, ``#`` comments, blank lines ignored.
Dotted keys group settings (sequence.beta, nls.dt, ...).  Lists are
comma-separated.  Explicit scaling points use ``N:epsilon`` pairs.

``ExperimentConfig`` is the only object built from config text, and this
module is the only code that names a key.  Its fields are the one table of
keys: each declares the key that sets it and the parser of its value, and
``FIELD_OF_KEY`` is read from them.  The keys are those of the default table
``DEFAULT_CONFIG_TEXT`` plus ``sequence.points``; any other key is a
ConfigError.  A key the text leaves out takes its value from the default
table, except the ``sequence.*`` keys.  ``ExperimentConfig.points()`` checks
the sequence and the rate inputs that sequence.beta bounds, so a command that
reads neither runs on a config without them.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, fields
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


# The default table: exactly the entries of configs/default.cfg.  Every key
# except sequence.* falls back to it (ExperimentConfig.from_text).
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


def _float(raw: str) -> float:
    """A finite float; inf and nan are refused, as no key means either."""
    if not math.isfinite(value := float(raw)):
        raise ValueError(f"{raw.strip()!r} is not finite")
    return value


def _int(raw: str) -> int:
    """An integer, also in float notation (1e3); a fraction is refused, not truncated."""
    value = _float(raw)
    if not value.is_integer():
        raise ValueError(f"{raw.strip()!r} is not an integer")
    return int(value)


def _items(raw: str) -> list[str]:
    return [part.strip() for part in raw.split(",") if part.strip()]


def _ints(raw: str) -> tuple[int, ...]:
    return tuple(_int(part) for part in _items(raw))


def _pairs(raw: str) -> tuple[tuple[int, float], ...]:
    pairs = []
    for part in _items(raw):
        n, sep, eps = part.partition(":")
        if not sep:
            raise ValueError(f"expected 'N:epsilon', got {part!r}")
        pairs.append((_int(n), _float(eps)))
    return tuple(pairs)


def _key(key: str, parse, **default):
    """A field that config key ``key`` sets, through ``parse``."""
    return field(metadata={"key": key, "parse": parse}, **default)


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig:
    """Typed view of the sweep configuration, one field per key."""

    # the sequence: never defaulted, checked by points()
    beta: float | None = _key("sequence.beta", _float, default=None)
    gamma: float | None = _key("sequence.gamma", _float, default=None)
    n_values: tuple[int, ...] = _key("sequence.n_values", _ints, default=())
    explicit_points: tuple[tuple[int, float], ...] = _key("sequence.points", _pairs, default=())
    profile_name: str = _key("interaction.profile", str)
    profile_height: float = _key("interaction.height", _float)
    profile_radius: float = _key("interaction.radius", _float)
    confinement_name: str = _key("confinement.name", str)
    external_name: str = _key("external.name", str)
    d_perp: int = _key("manybody.d_perp", _int)
    m_x: int = _key("manybody.m_x", _int)
    m_y: int = _key("manybody.m_y", _int)
    max_excitations: int = _key("manybody.max_excitations", _int)
    box_length: float = _key("manybody.box_length", _float)
    transverse_extent: float = _key("manybody.transverse_extent", _float)
    transverse_points: int = _key("manybody.transverse_points", _int)
    dim_cap: int = _key("manybody.dim_cap", _int)
    nls_points: int = _key("nls.points", _int)
    nls_dt: float = _key("nls.dt", _float)
    manybody_dt: float = _key("manybody.dt", _float)
    t_final: float = _key("time.final", _float)
    krylov_tol: float = _key("krylov.tol", _float)
    xi: float = _key("rate.xi", _float)
    beta1: float = _key("rate.beta1", _float)
    eta: float = _key("rate.eta", _float)
    output_dir: str = _key("output.dir", str)
    seed: int = _key("seed", _int)
    config_hash: str            # of the text's own entries, defaults left out

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"config file {path!r} does not exist")
        return cls.from_text(p.read_text())

    @classmethod
    def from_text(cls, text: str) -> "ExperimentConfig":
        entries = parse_kv_text(text)
        unknown = sorted(set(entries) - set(FIELD_OF_KEY))
        if unknown:
            raise ConfigError(f"unknown key(s): {', '.join(unknown)}")
        values = {}
        for key, (name, parse) in FIELD_OF_KEY.items():
            raw = entries.get(key, _FALLBACKS.get(key))
            if raw is None:
                continue
            try:
                values[name] = parse(raw)
            except ValueError as exc:
                raise ConfigError(f"key {key!r}: cannot parse {raw!r} ({exc})") from exc
        dump = "\n".join(f"{k} = {entries[k]}" for k in sorted(entries))
        return cls(**values, config_hash=hashlib.sha256(dump.encode()).hexdigest()[:16])

    def points(self):
        """The scaling sequence, after checking it and the rate inputs that
        sequence.beta bounds (xi <= beta/4, beta1 <= beta)."""
        from .scaling import make_point

        if self.beta is None:
            raise ConfigError("missing required key 'sequence.beta'")
        if not self.explicit_points and (self.gamma is None or not self.n_values):
            raise ConfigError("need sequence.points or (sequence.gamma and sequence.n_values)")
        if not (0.0 < self.xi <= self.beta / 4.0):
            raise ConfigError(f"rate.xi must lie in (0, beta/4], got {self.xi}")
        if not (0.0 < self.beta1 <= self.beta):
            raise ConfigError(f"rate.beta1 must lie in (0, beta], got {self.beta1}")
        if self.explicit_points:
            return [make_point(n, eps, self.beta) for n, eps in self.explicit_points]
        return [make_point(n, float(n) ** (-self.gamma), self.beta) for n in self.n_values]


# key -> (ExperimentConfig field, parser), one entry per key a config may set
FIELD_OF_KEY = {f.metadata["key"]: (f.name, f.metadata["parse"])
                for f in fields(ExperimentConfig) if f.metadata}

DEFAULTS = ExperimentConfig.from_text(DEFAULT_CONFIG_TEXT)
