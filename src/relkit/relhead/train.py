"""Batch preparation, the gradient-descent training loop, and inference.

Training is plain full-batch gradient descent with a fixed learning rate.
Each edge's top-M ORM phrases are looked up once per run. Only the edges
with more than K of them are re-drawn each epoch, from a seed derived from
(run seed, epoch, scene, edge), so runs are bit-reproducible.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..core import SceneInstance, Vocabulary
from ..embed import EmbeddingTable, embed_phrase, embed_phrases
from ..errors import ConfigError, NumericError
from ..evalkit import ScenePrediction
from ..orm import OrmTable, sample_candidates, lookup
from .model import (Example, Toggles, _expect_shape, _pack_candidates,
                    forward_edges, forward_objects, loss_and_gradients,
                    pack_batch)
# Unused here: the benchmark's tracer requires this module to name it.
from .model import forward_scene  # noqa: F401
from .params import ModelParams

log = logging.getLogger("relkit.train")


@dataclass
class TrainConfig:
    learning_rate: float = 0.5
    epochs: int = 100
    m_candidates: int = 10
    k_candidates: int = 5
    seed: int = 0
    toggles: Toggles = field(default_factory=Toggles)
    orm_backoff: bool = True
    strict_oov: bool = False

    def __post_init__(self):
        if not 1 <= self.k_candidates <= self.m_candidates:
            raise ConfigError("K and M must satisfy 1 <= K <= M")
        if self.epochs < 0 or self.learning_rate < 0:
            raise ConfigError("epochs and learning rate must be >= 0")


def _scene_example(instance: SceneInstance, edges, pair_features, targets) -> Example:
    """The scene's objects plus the given per-edge inputs."""
    g = instance.graph
    return Example(instance.object_feature_matrix(),
                   np.array([[b.x, b.y, b.w, b.h] for b in g.boxes()], np.float64),
                   np.array(g.labels(), dtype=np.int64), list(edges),
                   pair_features, targets, [None] * len(edges))


def build_example(instance: SceneInstance,
                  object_vocab: Vocabulary,
                  predicate_vocab: Vocabulary,
                  table: EmbeddingTable,
                  strict_oov: bool = False) -> Example:
    """Turn a scene instance into numeric training inputs.

    Every edge must carry an ingested pair feature vector.
    """
    pair_map = instance.pair_feature_map()
    pair_feats: List[np.ndarray] = []
    targets: List[np.ndarray] = []
    for s, o, p in instance.graph.edges:
        if (s, o) not in pair_map:
            raise ConfigError(f"edge ({s},{o}) has no ingested pair feature")
        pair_feats.append(pair_map[(s, o)])
        targets.append(embed_phrase(table, predicate_vocab.labels[p], strict=strict_oov)[0])
    return _scene_example(instance, instance.graph.edges, pair_feats, targets)


def _object_names(object_vocab: Vocabulary, ids: Sequence[int], where: str
                  ) -> List[str]:
    """The vocabulary names of object label ids; an id outside it is a ConfigError."""
    bad = [i for i in ids if not 0 <= i < len(object_vocab)]
    if bad:
        raise ConfigError(f"{where}: object label {bad[0]} outside the "
                          f"{len(object_vocab)}-label object vocabulary")
    return [object_vocab.labels[i] for i in ids]


def _edge_seed(seed: int, epoch: int, scene_idx: int, edge_idx: int) -> int:
    return ((seed * 1000003 + epoch) * 1000003 + scene_idx) * 1000003 + edge_idx


class CandidateIndex:
    """Every edge's candidate set as rows of one pooled phrase matrix. An
    edge with at most K top-M phrases keeps them all as its set for the
    whole run; `draw_candidates` draws the sets of the others."""

    def __init__(self, examples: Sequence[Example], orm: OrmTable,
                 object_vocab: Vocabulary, table: EmbeddingTable, cfg: TrainConfig):
        self.orm, self.cfg, self.table = orm, cfg, table
        tops, self.drawn = [], []  # drawn: edge row, scene, edge, subject, object
        for si, ex in enumerate(examples):
            labels = _object_names(object_vocab, ex.object_labels.tolist(),
                                   f"scene {si}")
            for ei, (i, j, _p) in enumerate(ex.edges):
                top = lookup(orm, labels[i], labels[j], backoff=cfg.orm_backoff)
                tops.append([r for r, _ in top.entries[:cfg.m_candidates]])
                if len(tops[-1]) > cfg.k_candidates:
                    self.drawn.append((len(tops) - 1, si, ei, labels[i], labels[j]))
        known = [p for p in dict.fromkeys(p for top in tops for p in top)
                 if embed_phrases(table, [p], strict=False) is not None]
        self.row_of = {p: r for r, p in enumerate(known)}
        self.matrix = (embed_phrases(table, known, strict=False) if known  # (P, e)
                       else np.zeros((0, table.dimension)))
        self.sizes = np.zeros(len(tops), np.int64)  # (E,) set sizes
        self.rows = np.zeros((len(tops), max(map(len, tops), default=0)), np.int64)
        for edge, top in enumerate(tops):
            if len(top) <= cfg.k_candidates:
                self.put(edge, top)

    def put(self, edge: int, phrases: Sequence[str]) -> None:
        """Make the known phrases the edge's set; strict mode raises on others."""
        rows = [self.row_of[p] for p in phrases if p in self.row_of]
        if len(rows) < len(phrases) and self.cfg.strict_oov:
            embed_phrases(self.table, phrases)  # raises on the first unknown
        self.sizes[edge] = len(rows)
        self.rows[edge, :len(rows)] = rows  # sets are left-aligned


def draw_candidates(examples: Sequence[Example], index: CandidateIndex,
                    epoch: int) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Draw the sets of the edges with more than K phrases; return every
    set, grouped as pack_batch groups them. Each edge's
    `candidate_embeddings` entry becomes a view of its set (None if empty)."""
    cfg = index.cfg
    for edge, si, ei, s, o in index.drawn:
        index.put(edge, sample_candidates(
            index.orm, s, o, cfg.m_candidates, cfg.k_candidates,
            seed=_edge_seed(cfg.seed, epoch, si, ei), backoff=cfg.orm_backoff))
    groups, sets = [], [None] * len(index.sizes)
    for k in np.unique(index.sizes[index.sizes > 0]).tolist():
        edges = np.flatnonzero(index.sizes == k)
        groups.append((edges, index.matrix[index.rows[edges, :k]]))
        for edge, c in zip(edges.tolist(), groups[-1][1]):
            sets[edge] = c
    rest = iter(sets)
    for ex in examples:
        ex.candidate_embeddings = [next(rest) for _ in ex.edges]
    return groups


def train(cfg: TrainConfig, examples: Sequence[Example], orm: OrmTable,
          object_vocab: Vocabulary, table: EmbeddingTable,
          params: ModelParams) -> Tuple[ModelParams, List[float]]:
    """Run gradient descent; returns the final params and per-epoch losses."""
    if not examples:
        raise ConfigError("training requires a non-empty dataset")
    params = params.copy()
    packed = pack_batch(examples, params.dims)  # checks widths and ids once
    index = CandidateIndex(examples, orm, object_vocab, table, cfg)
    _expect_shape("phrase embeddings", index.matrix, (len(index.matrix), params.dims.e))
    losses: List[float] = []
    for epoch in range(cfg.epochs):
        packed.cand_groups = draw_candidates(examples, index, epoch)
        try:
            loss, grads = loss_and_gradients(
                params, examples, cfg.toggles, packed=packed)
        except NumericError as exc:
            raise NumericError(f"training diverged at epoch {epoch}: {exc}") from exc
        for name in params.tensors:
            params.tensors[name] -= cfg.learning_rate * grads[name]
        losses.append(loss)
        log.info("epoch %d: loss %.6f", epoch, loss)
    return params, losses


# ---------------------------------------------------------------------------
# Inference
# ---------------------------------------------------------------------------

def predict_batch(params: ModelParams, scenes: Sequence[SceneInstance],
                  orm: OrmTable, object_vocab: Vocabulary,
                  predicate_vocab: Vocabulary, table: EmbeddingTable,
                  toggles: Toggles = Toggles(),
                  k_candidates: int = 5,
                  orm_backoff: bool = True,
                  strict_oov: bool = False,
                  protocol: str = "predcls"
                  ) -> List[Tuple[ScenePrediction, Dict[Tuple[int, int], np.ndarray]]]:
    """Score every ingested pair of every scene with one object pass and
    one edge pass over the whole batch.

    predcls: ORM lookups use the ground-truth object labels; object_probs
    is omitted from the output. sgcls: labels come from the object
    classifier's argmax and object_probs is included.

    Returns, per scene, the prediction plus each pair's predicted
    relationship embedding (for zero-shot classification). An error names
    the scene by its index in `scenes`.
    """
    if protocol not in ("predcls", "sgcls"):
        raise ConfigError(f"unknown protocol: {protocol}")
    if k_candidates < 1:
        raise ConfigError(f"K must satisfy 1 <= K, got {k_candidates}")
    if not scenes:
        return []
    examples, pairs = [], []
    for instance in scenes:
        pair_map = instance.pair_feature_map()
        pairs.append(sorted(pair_map))
        # predicate ids and targets are unused at inference
        examples.append(_scene_example(
            instance, [(s, o, 0) for s, o in pairs[-1]],
            [pair_map[p] for p in pairs[-1]],
            [np.zeros(params.dims.e)] * len(pairs[-1])))
    packed = pack_batch(examples, params.dims)  # no candidates yet
    objects = forward_objects(params, packed, toggles)
    label_ids = (packed.labels if protocol == "predcls"
                 else objects[1].argmax(axis=1)).tolist()
    labels = _object_names(object_vocab, label_ids, protocol)
    # deterministic at eval time: the K most probable candidates, no draw
    sets = (embed_phrases(table, [r for r, _ in lookup(
        orm, labels[s], labels[o], backoff=orm_backoff).entries[:k_candidates]],
        strict_oov) for s, o in packed.so_rows[:, :2].tolist())
    for ex in examples:
        ex.candidate_embeddings = [next(sets) for _ in ex.edges]
    packed.cand_groups = _pack_candidates(examples, params.dims.e)
    trace = forward_edges(params, packed, objects, toggles)
    out, n0, e0 = [], 0, 0
    for ex, scene_pairs in zip(examples, pairs):
        n1, e1 = n0 + len(ex.features), e0 + len(scene_pairs)
        obj_probs = trace.obj_probs[n0:n1] if protocol == "sgcls" else None
        probs, embs = trace.rel_probs[e0:e1], trace.pred_emb[e0:e1]
        out.append((ScenePrediction(dict(zip(scene_pairs, probs)), obj_probs),
                    dict(zip(scene_pairs, embs))))
        n0, e0 = n1, e1
    return out


def predict_scene(params: ModelParams, instance: SceneInstance, *args, **kwargs
                  ) -> Tuple[ScenePrediction, Dict[Tuple[int, int], np.ndarray]]:
    """`predict_batch` on a batch of one scene, with the same later arguments."""
    return predict_batch(params, [instance], *args, **kwargs)[0]
