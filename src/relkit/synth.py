"""Seeded synthetic scene generator.

Desk-scale stand-in for a detector + real dataset: object features are an
affine image of the object label's word embedding, and each pair's
ingested visual feature is an affine image of the ground-truth predicate's
embedding, both plus Gaussian noise. This makes the learning task solvable
by construction and lets held-out predicates (generated from their own
embeddings, never used as training labels) probe zero-shot transfer.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from .core import BoundingBox, SceneGraph, SceneInstance, Vocabulary
from .corpus import Triplet, TripletCorpus
from .embed import EmbeddingTable
from .errors import ConfigError


@dataclass
class SynthConfig:
    n_object_labels: int = 8
    n_seen_predicates: int = 10
    n_heldout_predicates: int = 0
    d: int = 16
    r: int = 4
    e: int = 8
    sigma: float = 0.1
    n_train_scenes: int = 75
    n_test_scenes: int = 30
    objects_per_scene: int = 3
    edges_per_scene: int = 2
    seed: int = 0

    def __post_init__(self):
        if min(self.n_object_labels, self.n_seen_predicates) < 1:
            raise ConfigError("need at least one object label and one seen "
                              "predicate")
        if min(self.n_heldout_predicates, self.n_train_scenes,
               self.n_test_scenes) < 0:
            raise ConfigError("held-out predicate and scene counts must be >= 0")
        if self.objects_per_scene < 2:
            raise ConfigError("scenes need at least two objects")
        max_edges = self.objects_per_scene * (self.objects_per_scene - 1)
        if not (1 <= self.edges_per_scene <= max_edges):
            raise ConfigError("edges_per_scene out of range")
        if self.n_object_labels > 26 * 26 or self.n_seen_predicates \
                + self.n_heldout_predicates > 26 * 26:
            raise ConfigError("at most 676 labels per vocabulary")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if min(self.d, self.e) < 1 or not 0 <= self.sigma < np.inf:  # NaN fails too
            raise ConfigError(f"need d, e >= 1 and a finite sigma >= 0, got d = {self.d}, "
                              f"e = {self.e}, sigma = {self.sigma}")


@dataclass
class SynthDataset:
    train_scenes: List[SceneInstance]
    test_scenes: List[SceneInstance]
    object_vocab: Vocabulary
    predicate_vocab: Vocabulary  # seen labels first, then held-out
    seen_predicates: List[str]
    heldout_predicates: List[str]
    embeddings: EmbeddingTable
    corpus: TripletCorpus


def _names(prefix: str, count: int) -> List[str]:
    letters = string.ascii_lowercase
    return [f"{prefix}{letters[i // 26]}{letters[i % 26]}" for i in range(count)]


def _random_box(rng: np.random.Generator) -> BoundingBox:
    return BoundingBox(
        x=float(rng.uniform(0.0, 10.0)),
        y=float(rng.uniform(0.0, 10.0)),
        w=float(rng.uniform(0.5, 3.0)),
        h=float(rng.uniform(0.5, 3.0)),
    )


def generate(cfg: SynthConfig) -> SynthDataset:
    rng = np.random.default_rng(cfg.seed)
    obj_labels = _names("obj", cfg.n_object_labels)
    seen = _names("rel", cfg.n_seen_predicates)
    heldout = _names("unseenrel", cfg.n_heldout_predicates)
    predicates = seen + heldout

    vectors: Dict[str, np.ndarray] = {}
    for token in obj_labels + predicates:
        vectors[token] = rng.normal(0.0, 1.0, size=cfg.e)
    table = EmbeddingTable(dimension=cfg.e, vectors=vectors)

    # shared affine maps from embedding space into feature space
    a_obj = rng.normal(0.0, 1.0, size=(cfg.e, cfg.d)) / np.sqrt(cfg.e)
    c_obj = rng.normal(0.0, 0.2, size=cfg.d)
    a_pair = rng.normal(0.0, 1.0, size=(cfg.e, cfg.d)) / np.sqrt(cfg.e)
    c_pair = rng.normal(0.0, 0.2, size=cfg.d)

    def make_scene(predicate_pool: List[int]) -> SceneInstance:
        n = cfg.objects_per_scene
        label_ids = [int(v) for v in rng.integers(0, cfg.n_object_labels, size=n)]
        objects = [(lid, _random_box(rng)) for lid in label_ids]
        all_pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        pair_idx = rng.choice(len(all_pairs), size=cfg.edges_per_scene,
                              replace=False)
        edges = []
        pair_features = {}
        for pi in sorted(int(v) for v in pair_idx):
            i, j = all_pairs[pi]
            p = int(predicate_pool[int(rng.integers(0, len(predicate_pool)))])
            edges.append((i, j, p))
            emb = vectors[predicates[p]]
            pair_features[(i, j)] = (emb @ a_pair + c_pair
                                     + cfg.sigma * rng.normal(size=cfg.d))
        object_features = [
            vectors[obj_labels[lid]] @ a_obj + c_obj
            + cfg.sigma * rng.normal(size=cfg.d)
            for lid in label_ids
        ]
        return SceneInstance.make(SceneGraph.make(objects, edges),
                                  object_features, pair_features)

    seen_ids = list(range(cfg.n_seen_predicates))
    heldout_ids = list(range(cfg.n_seen_predicates, len(predicates)))
    train_scenes = [make_scene(seen_ids) for _ in range(cfg.n_train_scenes)]
    test_pool = heldout_ids if heldout_ids else seen_ids
    test_scenes = [make_scene(test_pool) for _ in range(cfg.n_test_scenes)]

    # label counts and caption triplets from the training split only
    obj_counts = {l: 0 for l in obj_labels}
    pred_counts = {p: 0 for p in predicates}
    corpus = TripletCorpus(provenance=["synth"])
    for scene in train_scenes:
        labels = scene.graph.labels()
        for lid in labels:
            obj_counts[obj_labels[lid]] += 1
        for s, o, p in scene.graph.edges:
            pred_counts[predicates[p]] += 1
            corpus.add(Triplet(obj_labels[labels[s]], predicates[p],
                               obj_labels[labels[o]]))

    return SynthDataset(
        train_scenes=train_scenes,
        test_scenes=test_scenes,
        object_vocab=Vocabulary.make([(l, obj_counts[l]) for l in obj_labels]),
        predicate_vocab=Vocabulary.make([(p, pred_counts[p]) for p in predicates]),
        seen_predicates=seen,
        heldout_predicates=heldout,
        embeddings=table,
        corpus=corpus,
    )
