"""Run configuration: a flat `key = value` text file plus flag overrides.

Booleans accept true/false/yes/no/1/0. Unknown keys are rejected so typos
fail loudly. Command-line flags always win over file values.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from dataclasses import dataclass
from typing import Dict, Optional

from .core import Vocabulary
from .errors import ConfigError, FormatError, TextFile
from .relhead import Toggles, TrainConfig


@dataclass
class RunConfig(TrainConfig):
    """The training settings (`relhead.TrainConfig`) plus every other one."""

    # ablation switches (each disabled mechanism becomes a passthrough)
    object_attention: bool = True
    geometric_encoding_objects: bool = True
    geometric_encoding_relationships: bool = True
    subject_object_attention: bool = True
    attention_mean: bool = True
    d: int = 16
    r: int = 4
    e: int = 8
    lambda1: float = 1.0
    lambda2: float = 1.0
    lambda3: float = 1.0
    sigma: float = 0.1
    micro_recall: bool = False
    graph_constraint: bool = True
    zeroshot_temperature: float = 1.0
    synonym_threshold: float = 0.6
    longtail_threshold: int = 1024

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.type in ("float", float) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
        super().__post_init__()
        # from the smallest normal float up, sims / temperature stays finite
        if self.zeroshot_temperature < sys.float_info.min:
            raise ConfigError(f"zeroshot_temperature must be > 0 and at least "
                              f"{sys.float_info.min}, got {self.zeroshot_temperature}")
        if min(self.d, self.r, self.e) < 1:
            raise ConfigError("dimensions must be >= 1")
        if min(self.lambda1, self.lambda2, self.lambda3) < 0:
            raise ConfigError("loss weights must be >= 0")
        if self.longtail_threshold < 1:
            raise ConfigError(f"longtail_threshold must be >= 1, got {self.longtail_threshold}")

    @property
    def toggles(self) -> Toggles:
        return Toggles(self.object_attention, self.geometric_encoding_objects,
                       self.geometric_encoding_relationships,
                       self.subject_object_attention, self.attention_mean)


_BOOL = {"true": True, "yes": True, "1": True,
         "false": False, "no": False, "0": False}


def _parse_value(field: dataclasses.Field, raw: str):
    if field.type in ("bool", bool):
        key = raw.strip().lower()
        if key not in _BOOL:
            raise FormatError(f"bad boolean for {field.name}: {raw!r}")
        return _BOOL[key]
    if field.type in ("int", int):
        return int(raw)
    return float(raw)


def load_config(path) -> RunConfig:
    values: Dict[str, object] = {}
    fields = {f.name: f for f in dataclasses.fields(RunConfig)}
    with TextFile(path) as lines:
        for line in lines:
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise FormatError("expected 'key = value'")
            key, raw = (part.strip() for part in stripped.split("=", 1))
            if key not in fields:
                raise FormatError(f"unknown key {key!r}")
            values[key] = _parse_value(fields[key], raw)
        return RunConfig(**values)


def apply_overrides(cfg: RunConfig, overrides: Dict[str, Optional[object]]
                    ) -> RunConfig:
    changes = {k: v for k, v in overrides.items() if v is not None}
    return dataclasses.replace(cfg, **changes)


# Vocabulary TSV: "label<TAB>count", one line per label.

def save_vocab(vocab: Vocabulary, path) -> None:
    with open(path, "w") as fh:
        for label, count in zip(vocab.labels, vocab.counts):
            fh.write(f"{label}\t{count}\n")


def load_vocab(path) -> Vocabulary:
    items, line_of = [], {}
    with TextFile(path) as lines:
        for line in lines:
            parts = line.rstrip("\n").split("\t")
            if len(parts) != 2:
                raise FormatError("expected 'label<TAB>count'")
            if parts[0] in line_of:
                raise FormatError(f"label {parts[0]!r} repeats "
                                  f"line {line_of[parts[0]]}")
            line_of[parts[0]] = lines.lineno
            count = int(parts[1])
            if count < 0:
                raise FormatError(f"count {count} must be >= 0")
            items.append((parts[0], count))
    return Vocabulary.make(items)
