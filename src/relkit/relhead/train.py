"""Batch preparation, the gradient-descent training loop, and inference.

Training is plain full-batch gradient descent with a fixed learning rate.
One `PairCandidates.rows` call per run, as per inference batch, looks up
and embeds each label pair's top-M ORM phrases and finds every edge's
candidate slab row. Only the edges with more than K of them are re-drawn
each epoch, into their slab rows, from a seed derived from (run seed,
epoch, scene, edge), so runs are bit-reproducible.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..core import SceneInstance, Vocabulary
from ..embed import EmbeddingTable, embed_phrase, embed_phrases
from ..errors import ConfigError, NumericError, OutOfVocabularyError
from ..evalkit import ScenePrediction
from ..orm import OrmTable, check_k, lookup, sample_candidates
from .model import (CandidateSlab, Example, PackedBatch, check_scene,
                    classify_objects, enrich_objects, forward_edges,
                    loss_and_gradients, pack_batch, pack_inputs)
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
        check_k(self.k_candidates, self.m_candidates)
        if self.epochs < 0 or not 0 <= self.learning_rate < np.inf:  # NaN fails too
            raise ConfigError("epochs and learning rate must be >= 0 and finite")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


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
        if p >= len(predicate_vocab):
            raise ConfigError(f"edge ({s},{o}): predicate id {p} outside the vocabulary")
        pair_feats.append(pair_map[(s, o)])
        targets.append(embed_phrase(table, predicate_vocab.labels[p], strict=strict_oov)[0])
    g = instance.graph
    return Example(instance.object_feature_matrix(),
                   np.array([[b.x, b.y, b.w, b.h] for b in g.boxes()], np.float64),
                   np.array(g.labels(), dtype=np.int64), list(g.edges),
                   pair_feats, targets, [None] * len(g.edges))


def _edge_seed(seed: int, epoch: int, scene_idx: int, edge_idx: int) -> int:
    return ((seed * 1000003 + epoch) * 1000003 + scene_idx) * 1000003 + edge_idx


class PairCandidates:
    """Each object-label pair's candidate set, for one object vocabulary,
    embedding table, M, K, backoff and OOV rule: its top M ORM phrases,
    looked up and embedded when a `rows` call (one per batch of edges)
    first meets the pair. A pair with more than K of them is drawn each
    epoch and maps to row 0, K unmasked zeros that a caller's slab
    overwrites; one whose set is empty maps to -1. Under strict OOV each
    top-M phrase, drawn or not, must have a vector. Pairs with equal sets
    share a row of `padded`, zero-padded to K, whose `rows` are unused,
    and the read-only (k, e) array in `sets`."""

    def __init__(self, object_vocab: Vocabulary, table: EmbeddingTable,
                 m: int, k: int, backoff: bool, strict_oov: bool):
        self.inputs = (object_vocab, table, m, k, backoff, strict_oov)
        self.row_of: Dict[Tuple[int, int], int] = {}  # label-id pair -> row
        self.row_of_set, self.sets = {}, [None]  # a set's bytes -> row; row -> set
        self.padded = CandidateSlab(np.zeros(1, np.int64), np.zeros((1, k, table.dimension)),
                                    np.zeros((1, k), bool))

    def rows(self, orm: OrmTable, pairs: np.ndarray) -> np.ndarray:
        """The row of each (subject, object) label-id pair of `pairs`, (E, 2)."""
        vocab, table, m, k, backoff, strict_oov = self.inputs
        keys = list(map(tuple, pairs.tolist()))
        for key in dict.fromkeys(key for key in keys if key not in self.row_of):
            names = vocab.labels[key[0]], vocab.labels[key[1]]
            top = [r for r, _ in lookup(orm, *names, backoff=backoff).entries[:m]]
            try:  # under strict OOV every top-M phrase needs a vector, drawn or not
                c = embed_phrases(table, top if strict_oov or len(top) <= k else [], strict_oov)
            except OutOfVocabularyError as exc:
                raise OutOfVocabularyError(f"label pair {names}: {exc}") from None
            if c is not None and len(top) <= k and (b := c.tobytes()) not in self.row_of_set:
                row = self.row_of_set[b] = len(self.sets)
                if row == len(self.padded.rows):  # full: double
                    self.padded = CandidateSlab(*(np.concatenate([x, x]) for x in self.padded))
                self.padded.put(row, c)
                c.setflags(write=False)
                self.sets.append(c)
            self.row_of[key] = 0 if len(top) > k else -1 if c is None else self.row_of_set[b]
        return np.array([self.row_of[key] for key in keys], np.int64)

    def slab(self, rows: np.ndarray) -> CandidateSlab:
        """The slab of the edges at `rows`, padded to the longest set."""
        edges = np.flatnonzero(rows >= 0)
        at, t = rows[edges], self.padded
        width = (~t.mask[at]).sum(axis=1).max(initial=0)
        return CandidateSlab(edges, t.sets[at, :width], t.mask[at, :width])


class CandidateIndex:
    """Every edge's candidate set, as its example's `candidate_embeddings`
    entry (None if empty), from one `PairCandidates.rows` call over every
    edge of `packed`, the examples' pack, read as predict_batch reads its
    own. An edge with at most K top-M phrases keeps them all for the run, in
    a read-only array that edges with an equal set share; `draw_candidates`
    draws the others' sets. `slab` holds the non-empty static sets and a
    row, padded to K, per drawn edge. Object labels index `object_vocab`."""

    def __init__(self, examples: Sequence[Example], packed: PackedBatch, orm: OrmTable,
                 object_vocab: Vocabulary, table: EmbeddingTable, cfg: TrainConfig):
        self.orm, self.cfg, self.table = orm, cfg, table
        cands = PairCandidates(object_vocab, table, cfg.m_candidates, cfg.k_candidates,
                               cfg.orm_backoff, cfg.strict_oov)
        pairs = packed.labels[packed.so_rows[:, :2]]
        rows = cands.rows(orm, pairs)
        self.slab = cands.slab(rows)
        sets = [cands.sets[row] if row > 0 else None for row in rows.tolist()]
        first = np.array(packed.firsts)[:, 1]  # each scene's first edge row, then E
        for ex, lo, hi in zip(examples, first.tolist(), first[1:].tolist()):
            ex.candidate_embeddings = sets[lo:hi]
        names, at = object_vocab.labels, np.cumsum(rows >= 0) - 1  # at: each edge's slab row
        drawn = np.flatnonzero(rows == 0)  # drawn each epoch
        scene = np.repeat(np.arange(len(examples)), np.diff(first))[drawn]
        self.drawn = [(a, examples[i], i, j, names[s], names[o]) for a, i, j, (s, o) in zip(
            at[drawn].tolist(), scene.tolist(), (drawn - first[scene]).tolist(),
            pairs[drawn].tolist())]  # slab row, example, scene, edge, subject, object


def draw_candidates(examples: Sequence[Example], index: CandidateIndex,
                    epoch: int) -> CandidateSlab:
    """Draw the sets of the edges with more than K phrases into their
    `candidate_embeddings` entries and their rows of `index.slab`; return
    the slab, without the rows of drawn sets that came out empty."""
    cfg, empty = index.cfg, []
    for at, ex, si, ei, s, o in index.drawn:
        c = ex.candidate_embeddings[ei] = embed_phrases(index.table, sample_candidates(
            index.orm, s, o, cfg.m_candidates, cfg.k_candidates,
            seed=_edge_seed(cfg.seed, epoch, si, ei), backoff=cfg.orm_backoff),
            cfg.strict_oov)
        if c is None:
            empty.append(at)
        else:
            index.slab.put(at, c)
    if not empty:
        return index.slab
    return CandidateSlab(*(np.delete(a, empty, axis=0) for a in index.slab))


def check_inputs(params: ModelParams, table: EmbeddingTable, object_vocab: Vocabulary) -> None:
    """The head's phrase width e and object classes are its inputs' sizes."""
    if table.dimension != params.dims.e:
        raise ConfigError(f"embedding table width {table.dimension} != e = {params.dims.e}")
    if len(object_vocab) != (n := params.dims.n_object_labels):
        raise ConfigError(f"object vocabulary size {len(object_vocab)} != n_object_labels = {n}")


def train(cfg: TrainConfig, examples: Sequence[Example], orm: OrmTable,
          object_vocab: Vocabulary, table: EmbeddingTable,
          params: ModelParams) -> Tuple[ModelParams, List[float]]:
    """Run gradient descent; returns the final params and per-epoch losses."""
    if not examples:
        raise ConfigError("training requires a non-empty dataset")
    check_inputs(params, table, object_vocab)
    params = params.copy()
    packed = pack_batch(examples, params.dims)  # checks widths and ids once
    index = CandidateIndex(examples, packed, orm, object_vocab, table, cfg)
    losses: List[float] = []
    with np.errstate(over="ignore", invalid="ignore"):  # NumericError reports it
        for epoch in range(cfg.epochs):
            packed.candidates = draw_candidates(examples, index, epoch)
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
    No targets; each pair's candidates are its labels' top K ORM phrases,
    embedded once per ORM, object vocabulary, table, K, backoff and OOV rule.

    predcls: ORM lookups use the ground-truth object labels; object_probs
    is neither computed nor returned. sgcls: labels come from the object
    classifier's argmax and object_probs is included.

    Returns, per scene, the prediction plus each pair's predicted
    relationship embedding (for zero-shot classification), keyed by the
    pairs in order. An error names the scene by its index in `scenes`.
    """
    if protocol not in ("predcls", "sgcls"):
        raise ConfigError(f"unknown protocol: {protocol}")
    check_k(k_candidates, k_candidates)
    check_inputs(params, table, object_vocab)
    if not scenes:
        return []
    inputs = [(sc.object_features, [(b.x, b.y, b.w, b.h) for _, b in sc.graph.objects],
               sc.graph.labels(), [p for p, _ in sc.pair_features],
               [v for _, v in sc.pair_features]) for sc in scenes]
    for s, (rows, _, labels, _, vecs) in enumerate(inputs):  # SceneInstance checks the rest
        if not rows or {len(rows[0]), *map(len, vecs)} != {params.dims.d} \
                or max(labels) >= params.dims.n_object_labels:
            check_scene(s, params.dims, *inputs[s])
    packed = pack_inputs(params.dims, inputs)
    enriched, obj_caches = enrich_objects(params, packed)
    obj_probs = classify_objects(enriched, params) if protocol == "sgcls" else None
    cands = orm._candidates.get(key := (k_candidates, orm_backoff, strict_oov))
    if cands is None or cands.inputs[0] is not object_vocab or cands.inputs[1] is not table:
        cands = orm._candidates[key] = PairCandidates(object_vocab, table, k_candidates, *key)
    labels = packed.labels if obj_probs is None else obj_probs.argmax(axis=1)
    packed.candidates = cands.slab(cands.rows(orm, labels[packed.so_rows[:, :2]]))
    trace = forward_edges(params, packed, (enriched, obj_probs, obj_caches))
    rel, emb, firsts = trace.rel_probs, trace.pred_emb, packed.firsts
    return [(ScenePrediction(dict(zip(pairs, rel[e:e_end])),
                             None if obj_probs is None else obj_probs[o:o_end]),
             dict(zip(pairs, emb[e:e_end])))
            for (_, _, _, pairs, _), (o, e), (o_end, e_end) in zip(inputs, firsts, firsts[1:])]


def predict_scene(params: ModelParams, instance: SceneInstance, *args, **kwargs
                  ) -> Tuple[ScenePrediction, Dict[Tuple[int, int], np.ndarray]]:
    """`predict_batch` on a batch of one scene, with the same later arguments."""
    return predict_batch(params, [instance], *args, **kwargs)[0]
