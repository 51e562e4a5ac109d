"""Core scene-graph datatypes: boxes, graphs, labeled instances.

Boxes are stored in center/size form (x, y, w, h). Scene instances carry
ingested per-object and per-pair feature vectors; no pixel processing
happens anywhere in this package.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .errors import FormatError, InvalidBoxError, RelkitError, read_lines


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
    """Directed graph: labeled boxes plus (subject, object, predicate) edges."""

    objects: Tuple[Tuple[int, BoundingBox], ...]
    edges: Tuple[Tuple[int, int, int], ...]

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
    """One training/evaluation example: graph plus ingested feature vectors."""

    graph: SceneGraph
    object_features: Tuple[Tuple[float, ...], ...] = ()
    pair_features: Tuple[Tuple[Tuple[int, int], Tuple[float, ...]], ...] = ()

    @staticmethod
    def make(graph: SceneGraph,
             object_features: Sequence[Sequence[float]] = (),
             pair_features: Dict[Tuple[int, int], Sequence[float]] | None = None
             ) -> "SceneInstance":
        pf = pair_features or {}
        return SceneInstance(
            graph,
            tuple(tuple(float(v) for v in row) for row in object_features),
            tuple(sorted(((int(s), int(o)), tuple(float(v) for v in vec))
                         for (s, o), vec in pf.items())),
        )

    def object_feature_matrix(self) -> np.ndarray:
        if self.graph.objects and not self.object_features:
            raise FormatError("scene has objects but no object_features")
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

    @staticmethod
    def make(items: Sequence[Tuple[str, int]]) -> "Vocabulary":
        return Vocabulary(tuple(l for l, _ in items), tuple(int(c) for _, c in items))

    def __len__(self) -> int:
        return len(self.labels)


def validate_scene(instance: SceneInstance) -> List[str]:
    """Check all type invariants; returns one message per violation."""
    violations: List[str] = []
    g = instance.graph
    n = g.n_objects
    for i, (label, box) in enumerate(g.objects):
        if box.w <= 0 or box.h <= 0:
            violations.append(f"objects[{i}].box: width and height must be positive")
        if not all(math.isfinite(v) for v in (box.x, box.y, box.w, box.h)):
            violations.append(f"objects[{i}].box: coordinates must be finite")
        if label < 0:
            violations.append(f"objects[{i}].label: must be >= 0")
    seen_pairs = set()
    for k, (s, o, p) in enumerate(g.edges):
        if not (0 <= s < n and 0 <= o < n):
            violations.append(f"edges[{k}]: endpoint index out of range")
            continue
        if s == o:
            violations.append(f"edges[{k}]: subject index equals object index")
        if (s, o) in seen_pairs:
            violations.append(f"edges[{k}]: duplicate ({s}, {o}) edge")
        seen_pairs.add((s, o))
        if p < 0:
            violations.append(f"edges[{k}].predicate: must be >= 0")
    if instance.object_features:
        if len(instance.object_features) != n:
            violations.append("object_features: need exactly one feature per object")
        dims = {len(row) for row in instance.object_features}
        if len(dims) > 1:
            violations.append("object_features: feature dimensions must be uniform")
    for (s, o), vec in instance.pair_features:
        if not (0 <= s < n and 0 <= o < n) or s == o:
            violations.append(f"pair_features[{s},{o}]: invalid ordered pair")
        if not all(math.isfinite(v) for v in vec):
            violations.append(f"pair_features[{s},{o}]: non-finite entry")
    return violations


# ---------------------------------------------------------------------------
# JSON serialization: one document per instance.
# {"objects":[{"label":int,"box":[x,y,w,h]}...], "edges":[[s,o,p]...],
#  "object_features":[[...]...], "pair_features":{"s,o":[...]}}
# Feature fields are optional on read.
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
        objects = [(int(o["label"]), BoundingBox(*map(float, o["box"])))
                   for o in doc["objects"]]
        graph = SceneGraph.make(objects, doc.get("edges", []))
        feats = doc.get("object_features", [])
        if len(set(map(len, feats))) > 1:
            raise ValueError("object_features rows differ in length")
        pairs = {}
        for key, vec in doc.get("pair_features", {}).items():
            s, o = key.split(",")
            pairs[(int(s), int(o))] = [float(v) for v in vec]
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed scene document: {exc}") from exc
    return SceneInstance.make(graph, feats, pairs)


def save_scenes(instances: Sequence[SceneInstance], path) -> None:
    with open(path, "w") as fh:
        for inst in instances:
            fh.write(json.dumps(scene_to_dict(inst), sort_keys=True) + "\n")


def load_scenes(path) -> List[SceneInstance]:
    out = []
    for lineno, line in read_lines(path):
        line = line.strip()
        if not line:
            continue
        try:
            out.append(scene_from_dict(json.loads(line)))
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
        except RelkitError as exc:
            raise type(exc)(f"{path}:{lineno}: {exc}") from exc
    return out
