"""Batch preparation, the gradient-descent training loop, and inference.

Training is plain full-batch gradient descent with a fixed learning rate.
ORM candidate sets are re-drawn every epoch from a seed derived from
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
from .model import (Example, Toggles, forward_objects, forward_scene,
                    loss_and_gradients, pack_batch)
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
        if self.k_candidates > self.m_candidates:
            raise ConfigError("K must not exceed M")
        if self.epochs < 0 or self.learning_rate < 0:
            raise ConfigError("epochs and learning rate must be >= 0")


def build_example(instance: SceneInstance,
                  object_vocab: Vocabulary,
                  predicate_vocab: Vocabulary,
                  table: EmbeddingTable,
                  strict_oov: bool = False) -> Example:
    """Turn a scene instance into numeric training inputs.

    Every edge must carry an ingested pair feature vector.
    """
    g = instance.graph
    features = instance.object_feature_matrix()
    boxes = np.array([[b.x, b.y, b.w, b.h] for b in g.boxes()], dtype=np.float64)
    pair_map = instance.pair_feature_map()
    pair_feats: List[np.ndarray] = []
    targets: List[np.ndarray] = []
    for s, o, p in g.edges:
        if (s, o) not in pair_map:
            raise ConfigError(f"edge ({s},{o}) has no ingested pair feature")
        pair_feats.append(pair_map[(s, o)])
        vec, _ = embed_phrase(table, predicate_vocab.labels[p], strict=strict_oov)
        targets.append(vec)
    return Example(
        features=features,
        boxes=boxes,
        object_labels=np.array(g.labels(), dtype=np.int64),
        edges=list(g.edges),
        pair_features=pair_feats,
        target_embeddings=targets,
        candidate_embeddings=[None] * len(g.edges),
    )


def _edge_seed(seed: int, epoch: int, scene_idx: int, edge_idx: int) -> int:
    return ((seed * 1000003 + epoch) * 1000003 + scene_idx) * 1000003 + edge_idx


def draw_candidates(examples: Sequence[Example], orm: OrmTable,
                    object_vocab: Vocabulary, table: EmbeddingTable,
                    cfg: TrainConfig, epoch: int) -> None:
    """Refresh each edge's candidate embeddings in place (one draw per edge)."""
    for si, ex in enumerate(examples):
        labels = [object_vocab.labels[i] for i in ex.object_labels.tolist()]
        ex.candidate_embeddings = [
            embed_phrases(table, sample_candidates(
                orm, labels[i], labels[j], cfg.m_candidates, cfg.k_candidates,
                seed=_edge_seed(cfg.seed, epoch, si, ei),
                backoff=cfg.orm_backoff), cfg.strict_oov)
            for ei, (i, j, _p) in enumerate(ex.edges)]


def train(cfg: TrainConfig, examples: Sequence[Example], orm: OrmTable,
          object_vocab: Vocabulary, table: EmbeddingTable,
          params: ModelParams) -> Tuple[ModelParams, List[float]]:
    """Run gradient descent; returns the final params and per-epoch losses."""
    if not examples:
        raise ConfigError("training requires a non-empty dataset")
    params = params.copy()
    packed = pack_batch(examples, params.dims)  # checks widths and ids once
    losses: List[float] = []
    for epoch in range(cfg.epochs):
        draw_candidates(examples, orm, object_vocab, table, cfg, epoch)
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

def predict_scene(params: ModelParams, instance: SceneInstance,
                  orm: OrmTable, object_vocab: Vocabulary,
                  predicate_vocab: Vocabulary, table: EmbeddingTable,
                  toggles: Toggles = Toggles(),
                  k_candidates: int = 5,
                  orm_backoff: bool = True,
                  strict_oov: bool = False,
                  protocol: str = "predcls"
                  ) -> Tuple[ScenePrediction, Dict[Tuple[int, int], np.ndarray]]:
    """Score every ingested pair of a scene.

    predcls: ORM lookups use the ground-truth object labels; object_probs
    is omitted from the output. sgcls: labels come from the object
    classifier's argmax and object_probs is included.

    Returns the prediction plus each pair's predicted relationship
    embedding (for zero-shot classification).
    """
    if protocol not in ("predcls", "sgcls"):
        raise ConfigError(f"unknown protocol: {protocol}")
    g = instance.graph
    pair_map = instance.pair_feature_map()
    pairs = sorted(pair_map)
    ex = Example(
        features=instance.object_feature_matrix(),
        boxes=np.array([[b.x, b.y, b.w, b.h] for b in g.boxes()],
                       dtype=np.float64),
        object_labels=np.array(g.labels(), dtype=np.int64),
        edges=[(s, o, 0) for s, o in pairs],  # predicate ids unused at inference
        pair_features=[pair_map[p] for p in pairs],
        target_embeddings=[np.zeros(params.dims.e)] * len(pairs),
    )
    label_ids = g.labels() if protocol == "predcls" else forward_objects(
        params, pack_batch([ex], params.dims), toggles)[1].argmax(axis=1).tolist()
    bad = [i for i in label_ids if not 0 <= i < len(object_vocab)]
    if bad:
        raise ConfigError(f"{protocol}: object label {bad[0]} outside the "
                          f"{len(object_vocab)}-label object vocabulary")
    labels = [object_vocab.labels[i] for i in label_ids]
    # deterministic at eval time: the K most probable candidates, no draw
    ex.candidate_embeddings = [
        embed_phrases(table, [r for r, _ in lookup(
            orm, labels[s], labels[o], backoff=orm_backoff).entries[:k_candidates]],
            strict_oov)
        for s, o in pairs]
    trace = forward_scene(params, ex, toggles)
    pair_probs = {pair: trace.rel_probs[idx] for idx, pair in enumerate(pairs)}
    pair_embs = {pair: trace.pred_emb[idx] for idx, pair in enumerate(pairs)}
    obj_probs = trace.obj_probs if protocol == "sgcls" else None
    return ScenePrediction(pair_probs=pair_probs, object_probs=obj_probs), pair_embs
