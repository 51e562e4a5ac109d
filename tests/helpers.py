"""Shared builders for randomized tests."""

import numpy as np

from relkit.core import BoundingBox, SceneGraph, SceneInstance
from relkit.corpus import Triplet, TripletCorpus
from relkit.relhead import Dims, Example


def dyadic(rng, low, high):
    """Random multiple of 1/8 in [low, high]; exact in binary floating point."""
    return float(rng.integers(low * 8, high * 8 + 1)) / 8.0


def random_box(rng) -> BoundingBox:
    return BoundingBox(
        x=dyadic(rng, -10, 10),
        y=dyadic(rng, -10, 10),
        w=dyadic(rng, 1, 8),
        h=dyadic(rng, 1, 8),
    )


def random_corpus(rng, max_triplets=1000, max_labels=50) -> TripletCorpus:
    n_obj = int(rng.integers(2, max_labels + 1))
    n_pred = int(rng.integers(1, max(2, max_labels // 2)))
    objects = [f"o{i}" for i in range(n_obj)]
    predicates = [f"r{i}" for i in range(n_pred)]
    corpus = TripletCorpus(provenance=["random"])
    for _ in range(int(rng.integers(0, max_triplets + 1))):
        s, o = rng.choice(n_obj, size=2, replace=False)
        corpus.add(Triplet(objects[int(s)],
                           predicates[int(rng.integers(0, n_pred))],
                           objects[int(o)],
                           weight=int(rng.integers(1, 4))))
    return corpus


def random_example(rng, dims: Dims, n=3, n_edges=2, k_candidates=3,
                   with_candidates=True) -> Example:
    feats = rng.normal(size=(n, dims.d))
    boxes = np.column_stack([
        rng.uniform(-5, 5, n), rng.uniform(-5, 5, n),
        rng.uniform(0.5, 3, n), rng.uniform(0.5, 3, n)])
    labels = rng.integers(0, dims.n_object_labels, n)
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    chosen = rng.choice(len(pairs), size=min(n_edges, len(pairs)), replace=False)
    edges = [(pairs[c][0], pairs[c][1],
              int(rng.integers(0, dims.n_predicate_labels)))
             for c in sorted(int(v) for v in chosen)]
    pair_feats = [rng.normal(size=dims.d) for _ in edges]
    targets = [rng.normal(size=dims.e) for _ in edges]
    if with_candidates:
        cands = [rng.normal(size=(int(rng.integers(1, k_candidates + 1)), dims.e))
                 if rng.random() > 0.25 else None
                 for _ in edges]
    else:
        cands = [None] * len(edges)
    return Example(feats, boxes, np.asarray(labels, dtype=np.int64), edges,
                   pair_feats, targets, cands)


def random_instance(rng, n=3, n_edges=2, n_obj_labels=4, n_pred_labels=5,
                    d=8) -> SceneInstance:
    objects = [(int(rng.integers(0, n_obj_labels)), random_box(rng))
               for _ in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    chosen = sorted(int(v) for v in
                    rng.choice(len(pairs), size=min(n_edges, len(pairs)),
                               replace=False))
    edges = [(pairs[c][0], pairs[c][1], int(rng.integers(0, n_pred_labels)))
             for c in chosen]
    feats = rng.normal(size=(n, d))
    pf = {(s, o): rng.normal(size=d) for s, o, _ in edges}
    return SceneInstance.make(SceneGraph.make(objects, edges), feats, pf)


def planted_vector(rng, width):
    """Random probabilities with exact zeros and planted ties."""
    v = rng.random(width)
    v[rng.random(width) < 0.25] = 0.0
    for _ in range(int(rng.integers(0, 4)) if width > 1 else 0):
        i, j = rng.choice(width, size=2, replace=False)
        v[j] = v[i]
    return v if rng.random() > 0.05 else np.zeros(width)
