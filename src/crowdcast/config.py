"""Run configuration: dataclass defaults plus a flat key=value file format."""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np


class ConfigError(ValueError):
    """Unknown key, malformed value, or inconsistent setting."""


@dataclass
class TrainConfig:
    # optimization
    learning_rate: float = 1e-4
    decay_factor: float = 0.5
    decay_every: int = 100
    epochs: int = 300
    batch_size: int = 8
    seed: int = 0
    noise_std: float = 0.01  # meters, observation jitter during training only
    # loss weights
    kappa1: float = 1.0
    kappa2: float = 0.1
    kappa3: float = 0.1
    kappa4: float = 0.5
    # model dims
    d_model: int = 64
    d_emb: int = 64
    d_z: int = 32
    heads: int = 8
    ffn_hidden: int = 256
    layers: int = 2
    cvae_hidden: int = 128
    scales: tuple = (2, 3, 4)
    gcn_radius: float = 5.0
    sigma_prior: float = 1.0
    # data / evaluation
    t_in: int = 8
    t_out: int = 12
    stride: int = 1
    precision: str = "f64"

    def __post_init__(self):
        self.scales = tuple(int(s) for s in self.scales)
        for f in fields(self):
            if f.type == "float" and not np.isfinite(getattr(self, f.name)):
                raise ConfigError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        numeric = [self.learning_rate, self.decay_factor, self.epochs, self.batch_size,
                   self.d_model, self.d_emb, self.d_z, self.heads, self.ffn_hidden,
                   self.layers, self.cvae_hidden, self.t_in, self.t_out, self.stride,
                   self.sigma_prior, self.decay_every, self.gcn_radius]
        if any(v <= 0 for v in numeric):
            raise ConfigError("all numeric config values must be positive")
        for name in ("kappa1", "kappa2", "kappa3", "kappa4", "noise_std"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative, got {getattr(self, name)}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if any(s < 1 for s in self.scales):
            raise ConfigError(f"hypergraph scales must be at least 1, got {self.scales}")
        repeated = sorted({s for s in self.scales if self.scales.count(s) > 1})
        if repeated:  # a repeated K's convolution parameters would never be read
            raise ConfigError(f"hypergraph scales must differ; repeated: {repeated}")
        if self.d_model % 2 != 0:
            raise ConfigError("d_model must be even (sinusoidal positional encoding)")
        if self.d_model % self.heads != 0:
            raise ConfigError(f"heads={self.heads} must divide d_model={self.d_model}")
        if not self.scales:
            raise ConfigError("need at least one hypergraph scale")
        if self.precision not in ("f64", "f32"):
            raise ConfigError(f"precision must be f64 or f32, got {self.precision!r}")

    @property
    def dtype(self):
        return np.float64 if self.precision == "f64" else np.float32


# parser per field annotation; annotations are strings under
# ``from __future__ import annotations``
_PARSERS = {"float": float, "int": int, "str": str,
            "tuple": lambda raw: tuple(int(v) for v in raw.split(",") if v.strip())}


def _coerce(name, raw, typ):
    raw = raw.strip()
    try:
        return _PARSERS[typ](raw)
    except ValueError:
        raise ConfigError(f"config key {name!r}: cannot parse {raw!r} as {typ}") from None


def parse_config(path, text=None):
    """Read a flat key=value file, or ``text`` in that format taken from
    ``path``, into a TrainConfig; unknown and repeated keys are errors.

    Every ``ConfigError`` names the file, and the line where there is one.
    """
    if text is None:
        with open(path, "r") as fh:
            text = fh.read()
    by_name = {f.name: f.type for f in fields(TrainConfig)}
    overrides, first_line = {}, {}
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, raw = line.split("=", 1)
        key = key.strip()
        if key not in by_name:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in first_line:
            raise ConfigError(f"{path}:{lineno}: config key {key!r} already set on line {first_line[key]}")
        first_line[key] = lineno
        try:
            overrides[key] = _coerce(key, raw, by_name[key])
        except ConfigError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from None
    try:
        return TrainConfig(**overrides)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def format_config(cfg):
    lines = []
    for f in fields(TrainConfig):
        value = getattr(cfg, f.name)
        if isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        lines.append(f"{f.name}={value}")
    return "\n".join(lines) + "\n"

