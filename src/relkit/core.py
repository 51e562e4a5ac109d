"""Core scene-graph datatypes: boxes, graphs, labeled instances.

Boxes are stored in center/size form (x, y, w, h). Scene instances carry
ingested per-object and per-pair feature vectors; no pixel processing
happens anywhere in this package.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import chain
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .errors import FormatError, InvalidBoxError, TextFile, integer, json_line


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned box, center coordinates plus width/height."""

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self):
        for v in (self.x, self.y, self.w, self.h):
            if not math.isfinite(v):
                raise InvalidBoxError(f"non-finite box coordinate: {self}")
        if self.w <= 0 or self.h <= 0:
            raise InvalidBoxError(f"box width/height must be positive: {self}")


@dataclass(frozen=True)
class SceneGraph:
    """Directed graph: labeled boxes plus (subject, object, predicate) edges.
    Labels and predicate ids are >= 0; each edge joins two distinct objects,
    and no ordered pair has two edges. Else a FormatError."""

    objects: Tuple[Tuple[int, BoundingBox], ...]
    edges: Tuple[Tuple[int, int, int], ...]

    def __post_init__(self):
        n = len(self.objects)
        for i, (label, _) in enumerate(self.objects):
            if label < 0:
                raise FormatError(f"object {i}: label {label} must be >= 0")
        for k, (s, o, p) in enumerate(self.edges):
            if s == o or not (0 <= s < n and 0 <= o < n) or p < 0:
                raise FormatError(f"edge {k}: {[s, o, p]} needs two distinct "
                                  f"objects in [0, {n}) and a predicate id >= 0")
        if len({(s, o) for s, o, _ in self.edges}) < len(self.edges):
            raise FormatError("two edges join the same (subject, object) pair")

    @staticmethod
    def make(objects: Sequence[Tuple[int, BoundingBox]],
             edges: Sequence[Tuple[int, int, int]]) -> "SceneGraph":
        return SceneGraph(tuple((int(l), b) for l, b in objects),
                          tuple((int(s), int(o), int(p)) for s, o, p in edges))

    @property
    def n_objects(self) -> int:
        return len(self.objects)

    def boxes(self) -> List[BoundingBox]:
        return [b for _, b in self.objects]

    def labels(self) -> List[int]:
        return [l for l, _ in self.objects]


@dataclass(frozen=True)
class SceneInstance:
    """One training/evaluation example: graph plus ingested feature vectors.
    One feature row per object, all of one width; pair feature keys are two
    distinct objects, ascending, none repeated; values finite. Else a FormatError."""

    graph: SceneGraph
    object_features: Tuple[Tuple[float, ...], ...] = ()
    pair_features: Tuple[Tuple[Tuple[int, int], Tuple[float, ...]], ...] = ()

    def __post_init__(self):
        n, rows = self.graph.n_objects, self.object_features
        if len(rows) != n:
            raise FormatError(f"scene has {n} objects but {len(rows) or 'no'} "
                              f"object_features rows")
        if len(set(map(len, rows))) > 1:
            raise FormatError("object_features rows differ in length")
        for i, ((s, o), _) in enumerate(self.pair_features):
            if s == o or not (0 <= s < n and 0 <= o < n):
                raise FormatError(f"pair_features key {s},{o}: not two distinct "
                                  f"objects in [0, {n})")
            if i and self.pair_features[i - 1][0] >= (s, o):
                raise FormatError(f"pair_features key {s},{o}: repeated or out of order")
        values = chain(*rows, *(vec for _, vec in self.pair_features))
        if not all(map(math.isfinite, values)):
            raise FormatError("non-finite feature value")

    @staticmethod
    def make(graph: SceneGraph,
             object_features: Sequence[Sequence[float]] = (),
             pair_features: Dict[Tuple[int, int], Sequence[float]] | None = None
             ) -> "SceneInstance":
        pf = pair_features or {}
        return SceneInstance(
            graph,
            tuple(tuple(map(float, row)) for row in object_features),
            tuple(sorted(((int(s), int(o)), tuple(map(float, vec)))
                         for (s, o), vec in pf.items())),
        )

    def object_feature_matrix(self) -> np.ndarray:
        return np.asarray(self.object_features, dtype=np.float64)

    def pair_feature_map(self) -> Dict[Tuple[int, int], np.ndarray]:
        return {k: np.asarray(v, dtype=np.float64) for k, v in self.pair_features}


@dataclass(frozen=True)
class Vocabulary:
    """Ordered unique labels with per-label occurrence counts."""

    labels: Tuple[str, ...]
    counts: Tuple[int, ...]

    def __post_init__(self):
        if len(self.labels) != len(set(self.labels)):
            raise FormatError("vocabulary labels must be unique")
        if len(self.labels) != len(self.counts):
            raise FormatError("vocabulary labels/counts length mismatch")
        if any(c < 0 for c in self.counts):
            raise FormatError("vocabulary counts must be >= 0")
        if not all(self.labels):
            raise FormatError("vocabulary labels must not be empty")
        for label in self.labels:  # labels are TSV fields
            if "\t" in label or "\n" in label or "\r" in label:
                raise FormatError(f"vocabulary label {label!r} holds a tab or "
                                  f"line break")

    @staticmethod
    def make(items: Sequence[Tuple[str, int]]) -> "Vocabulary":
        return Vocabulary(tuple(l for l, _ in items), tuple(int(c) for _, c in items))

    def __len__(self) -> int:
        return len(self.labels)


# ---------------------------------------------------------------------------
# JSON serialization: one document per instance.
# {"objects":[{"label":int,"box":[x,y,w,h]}...], "edges":[[s,o,p]...],
#  "object_features":[[...]...], "pair_features":{"s,o":[...]}}
# "edges" and "pair_features" are optional, "object_features" only without objects.
# ---------------------------------------------------------------------------

def scene_to_dict(instance: SceneInstance) -> dict:
    g = instance.graph
    doc = {
        "objects": [{"label": l, "box": [b.x, b.y, b.w, b.h]} for l, b in g.objects],
        "edges": [[s, o, p] for s, o, p in g.edges],
    }
    if instance.object_features:
        doc["object_features"] = [list(row) for row in instance.object_features]
    if instance.pair_features:
        doc["pair_features"] = {f"{s},{o}": list(v) for (s, o), v in instance.pair_features}
    return doc


def scene_from_dict(doc: dict) -> SceneInstance:
    try:
        boxes = [o["box"] for o in doc["objects"]]
        rows = doc.get("object_features", [])
        pairs: Dict[Tuple[int, int], Sequence[float]] = {}
        for key, vec in doc.get("pair_features", {}).items():
            pair = tuple(map(integer, key.split(",")))
            if pair in pairs:
                raise ValueError(f"pair_features key {key!r} repeats {pair}")
            pairs[pair] = vec  # make() converts, inside this guard
        numbers = list(chain(*boxes, *rows, *pairs.values()))
        if not set(map(type, numbers)) <= {int, float}:  # not bool, not str
            bad = next(v for v in numbers if type(v) not in (int, float))
            raise TypeError(f"value {bad!r} is not a number")
        objects = [(o["label"], BoundingBox(*map(float, box)))
                   for o, box in zip(doc["objects"], boxes)]
        edges = doc.get("edges", [])
        bad = [v for v in chain([l for l, _ in objects], *edges)
               if type(v) is not int]
        if bad:  # bool and float are not ids
            raise TypeError(f"id {bad[0]!r} is not an integer")
        return SceneInstance.make(SceneGraph.make(objects, edges), rows, pairs)
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed scene document: {exc}") from exc


def save_scenes(instances: Sequence[SceneInstance], path) -> None:
    with open(path, "w") as fh:
        for inst in instances:
            fh.write(json.dumps(scene_to_dict(inst), sort_keys=True) + "\n")


def load_scenes(path) -> List[SceneInstance]:
    """One scene per line, each decoded by `errors.json_line`."""
    with TextFile(path) as lines:
        return [scene_from_dict(json_line(line)) for line in lines]
