"""Run configuration: INI-style files with typed sections and CLI overrides.

One schema drives every model variant (regression / contrastive / deep-mel /
external features) and every ablation as pure config switches. Precedence is
file < command-line ``--set section.key=value``; the effective config is
snapshotted into every run directory.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, fields
from typing import Optional

from .brain_net import ABLATION_FLAGS
from .dataset.windows import WORKING_RATE
from .speech import REPRESENTATIONS, SUPPORTED_N_MELS


class ConfigError(ValueError):
    pass


@dataclass
class DatasetSection:
    root: str = ""
    shift_s: float = 0.150


@dataclass
class PreprocessingSection:
    clamp: Optional[float] = 20.0  # None disables clamping (ablation)
    baseline_s: float = 0.5


@dataclass
class SpeechSection:
    representation: str = "external"  # mel | deep-mel | external
    n_mels: int = 40
    deep_mel_dim: int = 32


@dataclass
class ModelSection:
    d1: int = 270
    d2: int = 320
    blocks: int = 5
    kernel: int = 3
    harmonics: int = 32
    drop_radius: float = 0.2
    pos_margin: float = 0.1
    ablation: str = "none"  # one of ABLATION_FLAGS or "none"


@dataclass
class TrainingSection:
    objective: str = "clip"  # clip | regression
    lr: float = 3e-4
    batch_size: int = 256
    updates_per_epoch: int = 1200
    patience: int = 10
    max_epochs: int = 100
    seed: int = 0


@dataclass
class EvalSection:
    topk: tuple = (1, 5, 10)
    restricted_n: int = 50
    restricted_seed: int = 0


@dataclass
class Config:
    dataset: DatasetSection = field(default_factory=DatasetSection)
    preprocessing: PreprocessingSection = field(default_factory=PreprocessingSection)
    speech: SpeechSection = field(default_factory=SpeechSection)
    model: ModelSection = field(default_factory=ModelSection)
    training: TrainingSection = field(default_factory=TrainingSection)
    eval: EvalSection = field(default_factory=EvalSection)

    def validate(self) -> None:
        """Raises a :class:`ConfigError` naming the first key out of its range."""
        sp, pre, tr, ev = self.speech, self.preprocessing, self.training, self.eval
        ablation = self.model.ablation
        rules = (
            ("speech.representation", sp.representation in REPRESENTATIONS,
             f"{sp.representation!r} is not one of " + ", ".join(REPRESENTATIONS)),
            ("speech.n_mels", sp.n_mels in SUPPORTED_N_MELS,
             "must be one of " + ", ".join(map(str, SUPPORTED_N_MELS))),
            ("training.objective", tr.objective in ("clip", "regression"),
             "must be clip or regression"),
            ("training.objective", tr.objective != "regression" or sp.representation == "mel",
             "regression requires speech.representation=mel"),
            ("model.ablation", ablation == "none" or ablation in ABLATION_FLAGS,
             f"{ablation!r} not in {ABLATION_FLAGS}"),
            ("training.batch_size", tr.batch_size >= 2, "must be >= 2"),
            # baseline_correct averages the first round(baseline_s * rate) samples
            ("preprocessing.baseline_s", pre.baseline_s * WORKING_RATE > 0.5,
             f"must span at least one sample at {WORKING_RATE:g} Hz"),
            ("preprocessing.clamp", pre.clamp is None or pre.clamp > 0, "must be > 0, or none"),
            ("training.lr", math.isfinite(tr.lr) and tr.lr > 0, "must be a finite number > 0"),
            ("training.updates_per_epoch", tr.updates_per_epoch >= 1, "must be >= 1"),
            ("training.max_epochs", tr.max_epochs >= 1, "must be >= 1"),
            ("training.patience", tr.patience >= 1, "must be >= 1"),
            ("training.seed", tr.seed >= 0, "must be >= 0"),
            ("eval.topk", all(k >= 1 for k in ev.topk), "every entry must be >= 1"),
            ("eval.restricted_n", ev.restricted_n >= 2, "must be >= 2"),
            ("eval.restricted_seed", ev.restricted_seed >= 0, "must be >= 0"),
        )
        for key, ok, rule in rules:
            if not ok:
                raise ConfigError(f"{key}: {rule}")

    def to_dict(self) -> dict:
        out = {}
        for sec in fields(self):
            sub = getattr(self, sec.name)
            out[sec.name] = {f.name: _plain(getattr(sub, f.name)) for f in fields(sub)}
        return out

    @classmethod
    def from_dict(cls, obj: dict) -> "Config":
        """Inverse of :meth:`to_dict`, e.g. for the config a checkpoint stores."""
        config = cls()
        for section, values in obj.items():
            for key, value in values.items():
                sub = _section(config, section, key)
                setattr(sub, key, tuple(value) if isinstance(value, list) else value)
        return config


def _plain(v):
    if isinstance(v, tuple):
        return list(v)
    return v


# The one key that takes ``none``: no clamping (the ablation).
NULLABLE = ("preprocessing.clamp",)


def parse_value(key: str, raw: str, default):
    """Parse the INI value of ``key`` against the type of its ``default``: a
    str, int or float, or a comma-separated tuple (optionally in brackets)
    of the type of the default's first element. ``none`` is accepted only
    for a key in ``NULLABLE``; any value that does not parse is a
    :class:`ConfigError` naming the key."""
    raw = raw.strip()
    if key in NULLABLE and raw.lower() in ("none", "null"):
        return None
    if isinstance(default, str):
        return raw
    try:
        if isinstance(default, tuple):
            return tuple(type(default[0])(v) for v in raw.strip("()[] ").split(","))
        return type(default)(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r} ({exc})") from None


def _section(config: Config, section: str, key: str):
    """The section object that holds ``section.key``."""
    if not hasattr(config, section):
        raise ConfigError(f"unknown config section [{section}]")
    sub = getattr(config, section)
    if not hasattr(sub, key):
        raise ConfigError(f"unknown config key {section}.{key}")
    return sub


def _apply(config: Config, section: str, key: str, raw: str) -> None:
    sub = _section(config, section, key)
    setattr(sub, key, parse_value(f"{section}.{key}", raw, getattr(type(sub)(), key)))


def load_config(path: Optional[str] = None, overrides: Optional[list] = None) -> Config:
    config = Config()
    if path is not None:
        parser = configparser.ConfigParser()
        read = parser.read(path)
        if not read:
            raise ConfigError(f"config file not found: {path}")
        for section in parser.sections():
            for key, raw in parser.items(section):
                _apply(config, section, key, raw)
    for item in overrides or []:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override must look like section.key=value: {item!r}")
        dotted, raw = item.split("=", 1)
        section, key = dotted.split(".", 1)
        _apply(config, section.strip(), key.strip(), raw)
    config.validate()
    return config
