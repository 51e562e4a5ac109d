"""Object-based reference implementation of recall@K, Pred-Cls, SG-Cls and
zero-shot top-k.

This is the ranking code the library used before it ranked plain rows:
every scored triplet is a TripletPrediction, each scene is re-sorted once
per K by a key lambda, micro and macro recall loop over the scenes on their
own, and zero-shot top-k indexes the probability array inside its sort key.
It is kept verbatim as an oracle; the library must reproduce every metric
dict and every top-k list exactly. It shares only data types and the
functions it does not replace with relkit.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from relkit.core import SceneGraph, SceneInstance
from relkit.errors import NumericError
from relkit.evalkit import (ScenePrediction, TripletPrediction,
                            ranked_predicates, topk_accuracy)


def _top_k_matches(predictions: Sequence[TripletPrediction],
                   gt_edges: set, k: int) -> int:
    """Ground-truth edges among the K most confident predictions."""
    top = sorted(predictions,
                 key=lambda t: (-t.confidence, t.subject, t.object, t.predicate))[:k]
    return len(gt_edges & {(t.subject, t.object, t.predicate) for t in top})


def recall_at_k(predictions: Sequence[TripletPrediction],
                ground_truth: SceneGraph, k: int) -> float:
    """Fraction of ground-truth edges among the top-K confident predictions."""
    if k < 1:
        raise NumericError("recall_at_k requires K >= 1")
    gt_edges = set(ground_truth.edges)
    if not gt_edges:
        raise NumericError("recall undefined for empty ground truth")
    return _top_k_matches(predictions, gt_edges, k) / len(gt_edges)


def _scene_triplets(pred: ScenePrediction, graph_constraint: bool
                    ) -> List[TripletPrediction]:
    out: List[TripletPrediction] = []
    for (s, o), probs in pred.pair_probs.items():
        if graph_constraint:
            best = int(np.argmax(probs))  # ties: the lowest id
            out.append(TripletPrediction(s, o, best, float(probs[best])))
        else:
            for p, conf in enumerate(probs):
                out.append(TripletPrediction(s, o, p, float(conf)))
    return out


def _recall_over_scenes(per_scene: List[Tuple[List[TripletPrediction], SceneGraph]],
                        k: int, micro: bool) -> float:
    if micro:
        matched = total = 0
        for preds, gt in per_scene:
            gt_edges = set(gt.edges)
            matched += _top_k_matches(preds, gt_edges, k)
            total += len(gt_edges)
        if total == 0:
            raise NumericError("recall undefined for empty ground truth")
        return matched / total
    values = [recall_at_k(preds, gt, k) for preds, gt in per_scene if gt.edges]
    if not values:
        raise NumericError("recall undefined for empty ground truth")
    return float(np.mean(values))


def predcls_eval(predictions: Sequence[ScenePrediction],
                 scenes: Sequence[SceneInstance],
                 recall_ks: Sequence[int] = (50, 100),
                 accuracy_ks: Sequence[int] = (5, 10),
                 micro: bool = False,
                 graph_constraint: bool = True) -> Dict[str, float]:
    """Pred-Cls: relationship metrics given ground-truth labels and boxes."""
    per_scene = []
    ranked: List[List[int]] = []
    gts: List[int] = []
    for pred, scene in zip(predictions, scenes):
        triplets = _scene_triplets(pred, graph_constraint)
        per_scene.append((triplets, scene.graph))
        for s, o, p in scene.graph.edges:
            probs = pred.pair_probs.get((s, o))
            ranked.append([] if probs is None else ranked_predicates(probs))
            gts.append(p)
    metrics = {f"R@{k}": _recall_over_scenes(per_scene, k, micro)
               for k in recall_ks}
    for k in accuracy_ks:
        metrics[f"top{k}"] = topk_accuracy(ranked, gts, k)
    return metrics


def sgcls_eval(predictions: Sequence[ScenePrediction],
               scenes: Sequence[SceneInstance],
               recall_ks: Sequence[int] = (50, 100),
               micro: bool = False,
               graph_constraint: bool = True) -> Dict[str, float]:
    """SG-Cls: a triplet counts only when both endpoint labels and the
    predicate are correct; confidence is the product of subject, object
    and predicate probabilities."""
    per_scene = []
    for pred, scene in zip(predictions, scenes):
        if pred.object_probs is None:
            raise NumericError("sgcls_eval requires object probability outputs")
        obj_probs = np.asarray(pred.object_probs, dtype=np.float64)
        pred_labels = obj_probs.argmax(axis=1).tolist()
        label_probs = obj_probs.max(axis=1).tolist()
        gt_labels = scene.graph.labels()
        triplets = []
        for t in _scene_triplets(pred, graph_constraint):
            conf = label_probs[t.subject] * label_probs[t.object] * t.confidence
            labels_ok = (pred_labels[t.subject] == gt_labels[t.subject]
                         and pred_labels[t.object] == gt_labels[t.object])
            # a wrong-label triplet still occupies a top-K slot, but can
            # never match: give it an unmatched predicate id
            predicate = t.predicate if labels_ok else -1
            triplets.append(TripletPrediction(t.subject, t.object, predicate, conf))
        per_scene.append((triplets, scene.graph))
    return {f"R@{k}": _recall_over_scenes(per_scene, k, micro)
            for k in recall_ks}


def topk(probabilities: np.ndarray, labels: Sequence[str], k: int) -> List[str]:
    """k highest-probability labels, descending; ties by ascending label."""
    if k < 1:
        raise NumericError("k must be >= 1")
    order = sorted(range(len(labels)), key=lambda i: (-probabilities[i], labels[i]))
    return [labels[i] for i in order[:k]]
