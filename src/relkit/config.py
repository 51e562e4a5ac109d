"""Run configuration: a flat `key = value` text file plus flag overrides.

Booleans accept true/false/yes/no/1/0. Unknown keys are rejected so typos
fail loudly. Command-line flags always win over file values.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Dict

from .core import Vocabulary
from .errors import ConfigError, FormatError, TextFile, integer, real
from .relhead import Toggles, TrainConfig


# The mechanism switches, in `Toggles` order, that `--ablation all-off` turns off.
MECHANISMS = ("object_attention", "geometric_encoding_objects",
              "geometric_encoding_relationships", "subject_object_attention")


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
    synonym_threshold: float = 0.6
    longtail_threshold: int = 1024

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.type in ("float", float) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
        super().__post_init__()
        if min(self.d, self.r, self.e) < 1:
            raise ConfigError("dimensions must be >= 1")
        if min(self.lambda1, self.lambda2, self.lambda3) < 0:
            raise ConfigError("loss weights must be >= 0")
        if self.longtail_threshold < 1:
            raise ConfigError(f"longtail_threshold must be >= 1, got {self.longtail_threshold}")

    @property
    def toggles(self) -> Toggles:
        return Toggles(*(getattr(self, key) for key in MECHANISMS),
                       self.attention_mean)


_BOOL = {"true": True, "yes": True, "1": True,
         "false": False, "no": False, "0": False}


def _parse_value(field: dataclasses.Field, raw: str):
    if field.type in ("bool", bool):
        key = raw.strip().lower()
        if key not in _BOOL:
            raise FormatError(f"bad boolean for {field.name}: {raw!r}")
        return _BOOL[key]
    if field.type in ("int", int):
        return integer(raw)
    return real(raw)


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
            values[lines.unique("key", key)] = _parse_value(fields[key], raw)
        return RunConfig(**values)


# Vocabulary TSV: "label<TAB>count", one line per label.

def save_vocab(vocab: Vocabulary, path) -> None:
    with open(path, "w") as fh:
        for label, count in zip(vocab.labels, vocab.counts):
            fh.write(f"{label}\t{count}\n")


def load_vocab(path) -> Vocabulary:
    items = []
    with TextFile(path) as lines:
        for line in lines:
            try:  # a wrong field count or a count that is not an integer
                label, count = line.rstrip("\n").split("\t")
                count = integer(count)
            except ValueError:
                raise FormatError("expected 'label<TAB>count'")
            if not label:
                raise FormatError("empty label")
            if count < 0:
                raise FormatError(f"count {count} must be >= 0")
            items.append((lines.unique("label", label), count))
    return Vocabulary.make(items)
