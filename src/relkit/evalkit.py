"""Metrics and evaluation protocols: recall@K, top-k accuracy, Pred-Cls,
SG-Cls, long-tail split, and the synonym report.

Recall is macro-averaged per scene by default (micro=True pools ground-truth
edges across scenes). Graph-constrained scoring keeps only the argmax
predicate per ordered object pair.
"""

from __future__ import annotations

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


# A scored triplet is a row (-confidence, subject, object, predicate): the
# tuple's natural order is the ranking rule, descending confidence, then
# ascending subject, object and predicate.
Row = Tuple[float, int, int, int]


def _recalls(per_scene: Sequence[Tuple[List[Row], SceneGraph]],
             ks: Sequence[int], micro: bool) -> List[float]:
    """Recall@K for every K, sorting each scene's rows once: micro pools the
    ground-truth edges, macro averages over the scenes that have edges."""
    if any(k < 1 for k in ks):
        raise NumericError("recall_at_k requires K >= 1")
    table = []  # per scene with edges: (edge count, distinct edges in top K per K)
    for rows, gt in per_scene:
        gt_edges = set(gt.edges)
        if gt_edges:
            top = [row[1:] for row in sorted(rows)[:max(ks, default=0)]]
            table.append((len(gt_edges),
                          [len(gt_edges.intersection(top[:k])) for k in ks]))
    if ks and not table:
        raise NumericError("recall undefined for empty ground truth")
    if micro:
        total = sum(n for n, _ in table)
        return [sum(hits[i] for _, hits in table) / total for i in range(len(ks))]
    return [float(np.mean([hits[i] / n for n, hits in table]))
            for i in range(len(ks))]


def recall_at_k(predictions: Sequence[TripletPrediction],
                ground_truth: SceneGraph, k: int) -> float:
    """Fraction of ground-truth edges among the top-K confident predictions."""
    rows = [(-t.confidence, t.subject, t.object, t.predicate) for t in predictions]
    return _recalls([(rows, ground_truth)], [k], micro=True)[0]


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


def ranked_predicates(probs: np.ndarray) -> list:
    """Predicate ids by descending probability, ties ascending id, per row."""
    return np.argsort(-np.asarray(probs), axis=-1, kind="stable").tolist()


def _scene_rows(pred: ScenePrediction, graph_constraint: bool
                ) -> Tuple[List[Row], np.ndarray]:
    """The scene's rows, and its pairs' probability vectors as one array."""
    probs = np.array(list(pred.pair_probs.values()), np.float64)
    if not (graph_constraint and len(probs)):
        return [(-c, s, o, p) for (s, o), row in zip(pred.pair_probs, probs.tolist())
                for p, c in enumerate(row)], probs
    best = probs.argmax(axis=1)  # ties: the lowest id
    conf = probs[np.arange(len(best)), best].tolist()
    return [(-c, s, o, p) for (s, o), c, p in zip(pred.pair_probs, conf, best.tolist())], probs


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
        rows, probs = _scene_rows(pred, graph_constraint)
        per_scene.append((rows, scene.graph))
        order = dict(zip(pred.pair_probs, ranked_predicates(probs)))
        for s, o, p in scene.graph.edges:
            ranked.append(order.get((s, o), []))
            gts.append(p)
    metrics = dict(zip([f"R@{k}" for k in recall_ks],
                       _recalls(per_scene, recall_ks, micro)))
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
        label_prob = obj_probs.max(axis=1).tolist()
        label_ok = [a == b for a, b in
                    zip(obj_probs.argmax(axis=1).tolist(), scene.graph.labels())]
        # a wrong-label row still occupies a top-K slot, but can never
        # match: it gets an unmatched predicate id
        per_scene.append(([(-(label_prob[s] * label_prob[o] * -neg), s, o,
                            p if label_ok[s] and label_ok[o] else -1)
                           for neg, s, o, p in _scene_rows(pred, graph_constraint)[0]],
                          scene.graph))
    return dict(zip([f"R@{k}" for k in recall_ks],
                    _recalls(per_scene, recall_ks, micro)))


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
        near = [other for other, ovec in embedded.items()
                if other != label and cosine(vec, ovec) >= similarity_threshold]
        report[label] = (len(near), sum(counts[other] for other in near))
    return report


def format_metrics(metrics: Dict[str, float], fmt: str, out) -> None:
    if fmt == "tsv":
        for name in sorted(metrics):
            out.write(f"{name}\t{metrics[name]:.6f}\n")
    else:
        width = max(len(n) for n in metrics) if metrics else 0
        for name in sorted(metrics):
            out.write(f"{name:<{width}}  {metrics[name]:.4f}\n")
