"""Parameters of the relationship head and exact-round-trip checkpoints."""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from itertools import islice
from typing import Dict, Tuple

import numpy as np

from ..errors import ConfigError, FormatError, TextFile


@dataclass(frozen=True)
class Dims:
    """Feature dimensions and vocabulary sizes the head is built for."""

    d: int  # ingested visual feature dimension
    r: int  # spatial / geometric projection dimension
    e: int  # word embedding dimension
    n_object_labels: int
    n_predicate_labels: int

    def __post_init__(self):
        for name in ("d", "r", "e", "n_object_labels", "n_predicate_labels"):
            if getattr(self, name) < 1:
                raise ConfigError(f"dimension {name} must be >= 1")

    @property
    def dpr(self) -> int:
        return self.d + self.r


def tensor_shapes(dims: Dims) -> Dict[str, Tuple[int, ...]]:
    dpr = dims.dpr
    return {
        "W_spat": (4, dims.r), "b_spat": (dims.r,),
        "W_att_obj": (2 * dpr, dpr),
        "W_o": (dpr, dims.n_object_labels), "b_o": (dims.n_object_labels,),
        "W_geo": (4, dims.r), "b_geo": (dims.r,),
        "W_txt": (dims.e, dpr), "b_txt": (dpr,),
        "W_att_txt": (2 * dpr, dpr),
        "W_so": (2 * dpr, dpr),
        "W_att_so": (2 * dpr, dpr),
        "W_r": (dpr, dims.n_predicate_labels), "b_r": (dims.n_predicate_labels,),
        "W_re": (dpr, dims.e), "b_re": (dims.e,),
    }


@dataclass(frozen=True)
class Toggles:
    """Ablation switches; a disabled mechanism becomes a passthrough."""

    object_attention: bool = True
    geometric_objects: bool = True
    geometric_relationships: bool = True
    subject_object_attention: bool = True
    attention_mean: bool = True  # keep the 1/k factor on the context sum


@dataclass
class ModelParams:
    """All learned tensors, the three loss weights and the ablation switches."""

    dims: Dims
    tensors: Dict[str, np.ndarray]
    lambdas: Tuple[float, float, float] = (1.0, 1.0, 1.0)
    toggles: Toggles = Toggles()

    def __post_init__(self):
        expected = tensor_shapes(self.dims)
        if set(self.tensors) != set(expected):
            missing = set(expected) - set(self.tensors)
            extra = set(self.tensors) - set(expected)
            raise ConfigError(f"tensor set mismatch: missing={missing} extra={extra}")
        for name, shape in expected.items():
            if self.tensors[name].shape != shape:
                raise ConfigError(
                    f"{name}: shape {self.tensors[name].shape}, expected {shape}")
            if not np.all(np.isfinite(self.tensors[name])):
                raise ConfigError(f"{name}: non-finite entries")
        if any(l < 0 for l in self.lambdas):
            raise ConfigError("loss weights must be >= 0")

    def copy(self) -> "ModelParams":
        return ModelParams(self.dims,
                           {k: v.copy() for k, v in self.tensors.items()},
                           self.lambdas, self.toggles)

    def zero_like(self) -> Dict[str, np.ndarray]:
        return {k: np.zeros_like(v) for k, v in self.tensors.items()}


def init_params(dims: Dims, seed: int, scale: float = 0.1,
                lambdas: Tuple[float, float, float] = (1.0, 1.0, 1.0),
                toggles: Toggles = Toggles()) -> ModelParams:
    """Seeded Gaussian weights, zero biases."""
    rng = np.random.default_rng(seed)
    tensors = {}
    for name, shape in tensor_shapes(dims).items():
        if name.startswith("b_"):
            tensors[name] = np.zeros(shape, dtype=np.float64)
        else:
            tensors[name] = rng.normal(0.0, scale, size=shape)
    return ModelParams(dims, tensors, lambdas, toggles)


# ---------------------------------------------------------------------------
# Checkpoint: plain text, one tensor per block. Values are written with
# repr(), which round-trips IEEE doubles exactly, so save->load is
# bit-identical and reruns produce byte-identical files.
# ---------------------------------------------------------------------------

_MAGIC = "RELKIT-CKPT 2"


def save_params(params: ModelParams, path) -> None:
    d = params.dims
    with open(path, "w") as fh:
        fh.write(_MAGIC + "\n")
        fh.write(f"dims {d.d} {d.r} {d.e} {d.n_object_labels} {d.n_predicate_labels}\n")
        fh.write("lambdas " + " ".join(repr(float(l)) for l in params.lambdas) + "\n")
        fh.write("toggles " + " ".join(str(int(t)) for t in astuple(params.toggles)) + "\n")
        for name in sorted(params.tensors):
            arr = params.tensors[name]
            fh.write(f"tensor {name} " + " ".join(str(s) for s in arr.shape) + "\n")
            for v in arr.ravel():
                fh.write(repr(float(v)) + "\n")


def load_params(path) -> ModelParams:
    tensors: Dict[str, np.ndarray] = {}
    with TextFile(path) as lines:
        if next(iter(lines), "").rstrip("\n") != _MAGIC:
            raise FormatError(f"not a {_MAGIC} checkpoint")
        dims = Dims(*(int(v) for v in next(iter(lines), "").split()[1:]))
        lambdas = tuple(float(v) for v in next(iter(lines), "").split()[1:])
        if len(lambdas) != 3:
            raise FormatError("need three loss weights")
        switches = next(iter(lines), "").split()[1:]
        if len(switches) != 5 or not set(switches) <= {"0", "1"}:
            raise FormatError("need five 0/1 ablation switches")
        toggles = Toggles(*(v == "1" for v in switches))
        for line in lines:
            parts = line.split()
            if (parts[0] != "tensor" or len(parts) < 2
                    or not all(s.isdecimal() for s in parts[2:])):
                raise FormatError(f"bad tensor header: {line.strip()!r}")
            shape = tuple(int(s) for s in parts[2:])
            size = math.prod(shape)
            values = np.array([float(v) for v in islice(lines, size)])
            if values.size != size:
                raise FormatError(f"truncated tensor {parts[1]}")
            tensors[parts[1]] = values.reshape(shape)
        try:
            return ModelParams(dims, tensors, lambdas, toggles)
        except ConfigError as exc:
            raise FormatError(str(exc)) from exc
