"""Metrics and evaluation protocols: recall@K, top-k accuracy, Pred-Cls,
SG-Cls, long-tail split, and the synonym report.

Recall is macro-averaged per scene by default (micro=True pools ground-truth
edges across scenes). Graph-constrained scoring keeps only the argmax
predicate per ordered object pair.
"""

from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .core import SceneGraph, SceneInstance, Vocabulary
from .embed import EmbeddingTable, cosine, embed_phrase
from .errors import NumericError, OutOfVocabularyError


@dataclass(frozen=True)
class TripletPrediction:
    """One scored (subject-index, object-index, predicate-id) prediction."""

    subject: int
    object: int
    predicate: int
    confidence: float


@dataclass
class ScenePrediction:
    """Model outputs for one scene.

    pair_probs maps an ordered object-index pair to a probability vector
    over the predicate vocabulary; object_probs (n x |O|) is present for
    SG-Cls style runs and None when ground-truth labels were given.
    """

    pair_probs: Dict[Tuple[int, int], np.ndarray]
    object_probs: Optional[np.ndarray] = None


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


def topk_accuracy(ranked_labels: Sequence[Sequence[int]],
                  gt_labels: Sequence[int], k: int) -> float:
    """Fraction of instances whose ground truth appears in the top-k list."""
    if k < 1:
        raise NumericError("topk_accuracy requires k >= 1")
    if not gt_labels:
        raise NumericError("top-k accuracy undefined: no edge was scored")
    hits = sum(1 for ranked, gt in zip(ranked_labels, gt_labels)
               if gt in list(ranked)[:k])
    return hits / len(gt_labels)


def ranked_predicates(probs: np.ndarray) -> List[int]:
    """Predicate ids by descending probability, ties ascending id."""
    return np.argsort(-np.asarray(probs), kind="stable").tolist()


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


def longtail_split(vocab: Vocabulary, threshold: int = 1024
                   ) -> Tuple[List[str], List[str]]:
    """(rare, frequent): rare labels occur strictly fewer than threshold times."""
    if threshold < 1:
        raise NumericError("longtail threshold must be >= 1")
    rare = [l for l, c in zip(vocab.labels, vocab.counts) if c < threshold]
    frequent = [l for l, c in zip(vocab.labels, vocab.counts) if c >= threshold]
    return rare, frequent


def synonym_report(vocab: Vocabulary, table: EmbeddingTable,
                   similarity_threshold: float = 0.6,
                   strict: bool = False) -> Dict[str, Tuple[int, int]]:
    """Per label: how many other labels embed within the cosine threshold,
    and the summed occurrence count of those near-synonyms."""
    embedded: Dict[str, np.ndarray] = {}
    counts = dict(zip(vocab.labels, vocab.counts))
    for label in vocab.labels:
        try:
            vec, _ = embed_phrase(table, label, strict=True)
        except OutOfVocabularyError:
            if strict:
                raise
            warnings.warn(f"skipping out-of-vocabulary label: {label!r}")
            continue
        if np.linalg.norm(vec) == 0.0:
            if strict:
                raise NumericError(f"zero embedding for label {label!r}")
            warnings.warn(f"skipping zero-embedding label: {label!r}")
            continue
        embedded[label] = vec
    report: Dict[str, Tuple[int, int]] = {}
    for label, vec in embedded.items():
        n_syn = 0
        instances = 0
        for other, ovec in embedded.items():
            if other == label:
                continue
            if cosine(vec, ovec) >= similarity_threshold:
                n_syn += 1
                instances += counts[other]
        report[label] = (n_syn, instances)
    return report


def format_metrics(metrics: Dict[str, float], fmt: str = "table",
                   out=sys.stdout) -> None:
    if fmt == "tsv":
        for name in sorted(metrics):
            out.write(f"{name}\t{metrics[name]:.6f}\n")
    else:
        width = max(len(n) for n in metrics) if metrics else 0
        for name in sorted(metrics):
            out.write(f"{name:<{width}}  {metrics[name]:.4f}\n")
