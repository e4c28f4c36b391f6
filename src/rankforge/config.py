"""Run configuration: TOML reading and typed assembly.

Files are read with the standard library's ``tomllib``; flags override
file values at the CLI layer.  Any failure to read a file or to assemble
its values into typed configs raises ``ConfigError``.
"""

import datetime
import hashlib
import json
import tomllib
from dataclasses import dataclass, field, fields
from pathlib import Path

from .errors import ConfigError
from .features import FeatureConfig
from .gbdt import GbdtParams
from .synthlab import SynthConfig, SynthLevel


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


def synth_config_from(data: dict, seed: int) -> SynthConfig:
    levels = []
    for entry in data.get("levels", []):
        if not isinstance(entry, list) or len(entry) < 2:
            raise ConfigError("synth.levels entries must be [label, skill, ...]")
        label, skill = str(entry[0]), float(entry[1])
        kwargs = {
            name: float(value)
            for name, value in zip(("q_lo", "q_hi", "q_center"), entry[2:])
            if value is not None and value != ""
        }
        levels.append(SynthLevel(label, skill, **kwargs))
    cfg = SynthConfig(
        groups=int(data["groups"]),
        moves_per_state=int(data["moves_per_state"]),
        plies_per_match=int(data["plies_per_match"]),
        temperature_base=float(data["temperature_base"]),
        temperature_decay=float(data["temperature_decay"]),
        levels=tuple(levels),
        player_offset_sd=float(data.get("player_offset_sd", 0.0)),
        strength_noise_sd=float(data.get("strength_noise_sd", 0.0)),
        seed=int(data.get("seed", seed)),
    )
    cfg.validate()
    return cfg


def gbdt_params_from(data: dict) -> GbdtParams:
    """Absent keys keep the GbdtParams defaults."""
    return GbdtParams(**{f.name: f.type(data[f.name]) for f in fields(GbdtParams)
                         if f.name in data})


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


@dataclass
class RunConfig:
    raw: dict
    seed: int
    synth: SynthConfig | None
    features: FeatureConfig
    train_ns: list
    train_repetitions: int
    gbdt: GbdtParams
    eval_repetitions: int
    ablation_ns: list = field(default_factory=list)
    ablation_levels: bool = False
    train_matches_per_group: int = 200
    test_matches_per_group: int = 100

    def hash(self) -> str:
        return config_hash(self.raw)


def run_config_from(data: dict) -> RunConfig:
    """Typed run config; a missing key, a value of the wrong type, or one
    that cannot be hashed as JSON raises ConfigError."""
    try:
        run = _assemble_run_config(data)
        run.hash()
    except KeyError as exc:
        raise ConfigError(f"config is missing key {exc}") from None
    except (AttributeError, OverflowError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad config value: {exc}") from None
    return run


def _assemble_run_config(data: dict) -> RunConfig:
    seed = int(data.get("seed", 0))
    synth = synth_config_from(data["synth"], seed) if "synth" in data else None
    if "features" not in data:
        raise ConfigError("config needs a [features] section")
    features = FeatureConfig.from_dict(data["features"])
    training = data.get("training", {})
    evaluation = data.get("eval", {})
    ablation = data.get("ablation", {})
    return RunConfig(
        raw=data,
        seed=seed,
        synth=synth,
        features=features,
        train_ns=[int(n) for n in training.get("ns", [1, 5, 10, 15, 20])],
        train_repetitions=int(training.get("repetitions_per_group", 1000)),
        gbdt=gbdt_params_from(data.get("gbdt", {})),
        eval_repetitions=int(evaluation.get("repetitions", 500)),
        ablation_ns=[int(n) for n in ablation.get("ns", [])],
        ablation_levels=bool(ablation.get("levels", False)),
        train_matches_per_group=int(data.get("synth", {}).get("train_matches_per_group", 200)),
        test_matches_per_group=int(data.get("synth", {}).get("test_matches_per_group", 100)),
    )
