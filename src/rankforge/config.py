"""Run configuration: TOML reading and typed assembly.

Files are read with the standard library's ``tomllib``; flags override
file values at the CLI layer.  A section's dataclass states its keys, their
types and defaults, and ``artifacts.from_table`` reads it: ``[synth]`` is
``SynthConfig``, ``[features]`` ``FeatureConfig``, ``[gbdt]``
``GbdtParams``, and the other sections and top-level keys are the classes
below.  Any failure to read or assemble a file raises ``ConfigError``.
"""

import datetime
import hashlib
import json
import math
import tomllib
from dataclasses import dataclass, field, replace
from pathlib import Path

from .artifacts import from_table
from .errors import ConfigError
from .features import FeatureConfig
from .gbdt import GbdtParams
from .synthlab import SynthConfig


def read_config_text(text: str) -> dict:
    try:
        return tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        raise ConfigError(f"unreadable config: {exc}") from None


def read_config_file(path) -> dict:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8: {exc}") from None
    return read_config_text(text)


def config_hash(data: dict) -> str:
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()[:12]


# ---------------------------------------------------------------------------
# Typed assembly


def date_window_from(value) -> tuple[datetime.date, datetime.date] | None:
    if not value:
        return None
    if not (isinstance(value, list) and len(value) == 2):
        raise ConfigError("date_window must be [start, end]")
    try:
        start, end = (datetime.date.fromisoformat(str(day)) for day in value)
    except ValueError as exc:
        raise ConfigError(f"date_window: {exc}") from None
    if end < start:
        raise ConfigError("date_window end precedes start")
    return (start, end)


@dataclass(frozen=True)
class Training:
    ns: tuple[int, ...] = (1, 5, 10, 15, 20)
    repetitions_per_group: int = 1000


@dataclass(frozen=True)
class Evaluation:
    repetitions: int = 500


@dataclass(frozen=True)
class Ablation:
    ns: tuple[int, ...] = ()  # none: no ablation
    levels: bool = False  # one mask per policy level, not per feature family


@dataclass(frozen=True)
class Backends:
    strength: str | None = None  # each role's engine launch string
    policy: str | None = None
    value: str | None = None
    timeout: float = 30.0  # seconds a call may take

    def __post_init__(self):
        if not 0 < self.timeout < math.inf:
            raise ConfigError("backends.timeout must be finite and > 0")


@dataclass
class RunConfig:
    features: FeatureConfig
    seed: int = 0
    synth: SynthConfig | None = None
    training: Training = Training()
    gbdt: GbdtParams = GbdtParams()
    eval: Evaluation = Evaluation()
    ablation: Ablation = Ablation()
    backends: Backends | None = None  # none: the synthetic backend serves every role
    raw: dict = field(init=False, repr=False)  # the file's table

    train_matches_per_group = property(lambda self: self.synth.train_matches_per_group)
    test_matches_per_group = property(lambda self: self.synth.test_matches_per_group)

    def hash(self) -> str:
        return config_hash(self.raw)


def run_config_from(data: dict) -> RunConfig:
    """Typed run config; an unknown or missing key, or a value of the wrong
    type or out of range, raises ConfigError."""
    try:
        run = from_table(RunConfig, data)
    except (OverflowError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad config value: {exc}") from None
    if run.synth is not None and "seed" not in data["synth"]:
        run.synth = replace(run.synth, seed=run.seed)  # the synth seed defaults to the run's
    run.raw = data
    return run
