"""Experiment configuration: flat key=value files, validated per scheme."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from fractions import Fraction

from .errors import ConfigError

SCHEMES = ("basic", "topr", "random")


@dataclass
class ExperimentConfig:
    scheme: str = "basic"
    q: int = 2**31 - 1
    n: int = 10
    m: int = 2
    l: int = 64
    seed: int = 1
    theta: int = 1
    iterations: int = 1
    disable_noise: bool = False
    # wire alphabet for position symbols, when it differs from the execution
    # field (cost fixtures); None means "use q"
    position_base: int | None = None
    # basic overrides (defaults follow from n when left unset)
    t1: int | None = None
    t2: int | None = None
    t3: int | None = None
    # top-r knobs
    p: int = 5
    case: int = 1
    r: Fraction = Fraction(1, 5)
    r_prime: Fraction = Fraction(1, 5)
    v_tilde: tuple[int, ...] | None = None
    perm: tuple[int, ...] | None = None
    scores: tuple[int, ...] | None = None
    # random-sparsification knobs
    d_read: Fraction = Fraction(0)
    d_write: Fraction = Fraction(0)

    def validate(self) -> None:
        if self.scheme not in SCHEMES:
            raise ConfigError(f"unknown scheme {self.scheme!r}; expected one of {SCHEMES}")
        if self.n < 1 or self.m < 1 or self.l < 1:
            raise ConfigError("n, m, and l must be positive")
        if not 1 <= self.theta <= self.m:
            raise ConfigError(f"theta={self.theta} outside 1..{self.m}")
        if self.iterations < 1:
            raise ConfigError("iterations must be positive")
        if self.scheme == "topr":
            if self.case not in (1, 2):
                raise ConfigError("case must be 1 or 2")
            if not (0 <= self.r <= 1 and 0 <= self.r_prime <= 1):
                raise ConfigError("sparsification rates must lie in [0, 1]")
            if self.p < 1:
                raise ConfigError("p must be positive")
            if self.position_base is not None and self.position_base < 2:
                raise ConfigError("position_base must be at least 2")
            if self.perm is not None and sorted(self.perm) != list(range(1, self.p + 1)):
                raise ConfigError("perm must be a permutation of 1..p")
            if self.v_tilde is not None:
                if len(set(self.v_tilde)) != len(self.v_tilde):
                    raise ConfigError("v_tilde entries must be distinct")
                if not all(1 <= v <= self.p for v in self.v_tilde):
                    raise ConfigError("v_tilde entries must lie in 1..p")
            if self.scores is not None and len(self.scores) != self.p:
                raise ConfigError("scores must list one value per subpacket")
        if self.scheme == "random":
            for d in (self.d_read, self.d_write):
                if not 0 <= d < 1:
                    raise ConfigError(f"distortion budget {d} outside [0, 1)")

    def as_dict(self) -> dict:
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, Fraction):
                v = str(v)
            elif isinstance(v, tuple):
                v = list(v)
            out[f.name] = v
        return out


_INT_KEYS = {"q", "n", "m", "l", "seed", "theta", "iterations", "t1", "t2", "t3", "p",
             "case", "position_base"}
_FRACTION_KEYS = {"r", "r_prime", "d_read", "d_write"}
_LIST_KEYS = {"v_tilde", "perm", "scores"}
_BOOL_KEYS = {"disable_noise"}
_KEYS = {f.name for f in fields(ExperimentConfig)}


def build_config(settings) -> ExperimentConfig:
    """The config from ``(where, key, value)`` settings applied in order, each
    value as a config file writes it; an unknown key or a value that does not
    parse is refused naming its ``where``.  The caller validates it."""
    cfg = ExperimentConfig()
    for where, key, value in settings:
        if key not in _KEYS:
            raise ConfigError(f"{where}: unknown key {key!r}")
        try:
            setattr(cfg, key, _coerce(key, str(value)))
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"{where}: bad value {key}={value!r}: {exc}") from exc
    return cfg


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse the flat key=value format ('#' starts a comment)."""
    settings = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        settings.append((f"line {lineno}", key, value))
    cfg = build_config(settings)
    cfg.validate()
    return cfg


def _coerce(key: str, value: str):
    if key in _INT_KEYS:
        return int(value)
    if key in _FRACTION_KEYS:
        return Fraction(value)
    if key in _LIST_KEYS:
        return tuple(int(v) for v in value.split(",") if v.strip())
    if key in _BOOL_KEYS:
        lowered = value.lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"not a boolean: {value!r}")
    return value


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())
