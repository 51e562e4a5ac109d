"""Zero-shot relationship classification over label embeddings.

A predicted relationship representation is scored against every label's
phrase embedding by cosine similarity, then softmaxed. Labels never seen
during training participate exactly like seen ones, which is the point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from .embed import EmbeddingTable, embed_phrase
from .errors import NumericError
from .relhead.model import softmax


@dataclass(frozen=True)
class LabelEmbeddingMatrix:
    labels: Tuple[str, ...]
    matrix: np.ndarray  # |labels| x e, row i = embed_phrase(labels[i])
    norms: np.ndarray = field(init=False, repr=False, compare=False)  # row norms

    def __post_init__(self):
        if self.matrix.shape[0] != len(self.labels):
            raise NumericError("label/matrix row count mismatch")
        object.__setattr__(self, "norms", np.linalg.norm(self.matrix, axis=1))
        if not np.all((self.norms > 0.0) & (self.norms < np.inf)):  # NaN fails both
            raise NumericError("label embedding rows must be nonzero and finite")


def build_label_matrix(labels: Sequence[str],
                       table: EmbeddingTable) -> LabelEmbeddingMatrix:
    if not labels:
        raise NumericError("a label matrix needs at least one label")
    rows = [embed_phrase(table, label, strict=True)[0] for label in labels]
    return LabelEmbeddingMatrix(tuple(labels), np.stack(rows))


def predict_unseen(v_hat: np.ndarray, labels: LabelEmbeddingMatrix) -> np.ndarray:
    """Softmax over per-label cosine similarities; sums to 1."""
    v_hat = np.asarray(v_hat, dtype=np.float64)
    norm = float(np.linalg.norm(v_hat))
    if not 0.0 < norm < np.inf:  # zero, infinite or NaN
        raise NumericError(f"cosine undefined for a representation of norm {norm}")
    return softmax(labels.matrix @ v_hat / (labels.norms * norm))


def topk(probabilities: np.ndarray, labels: Sequence[str], k: int) -> List[str]:
    """k highest-probability labels, descending; ties by ascending label."""
    if k < 1:
        raise NumericError("k must be >= 1")
    ranked = sorted(zip([-p for p in probabilities.tolist()], labels))
    return [label for _, label in ranked[:k]]
