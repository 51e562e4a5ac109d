"""Word embedding table: plain-text loader, phrase pooling, cosine math.

File format matches the de facto public word-vector distribution: one
token per line followed by its vector entries, whitespace-separated.
Phrases are pooled by the unweighted mean of their in-vocabulary tokens.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .errors import FormatError, NumericError, OutOfVocabularyError, TextFile


@dataclass
class EmbeddingTable:
    """token -> fixed-dimension dense vector; read-only once loaded, since
    `embed_phrases` memoises pooled phrases (None: no known token) here."""

    dimension: int
    vectors: Dict[str, np.ndarray]
    _pooled: Dict[str, Optional[np.ndarray]] = field(
        default_factory=dict, init=False, repr=False, compare=False)


def load_embeddings(path) -> EmbeddingTable:
    dimension = None
    vectors: Dict[str, np.ndarray] = {}
    with TextFile(path) as lines:
        for line in lines:
            parts = line.split()
            vec = np.array([float(v) for v in parts[1:]], dtype=np.float64)
            if not np.all(np.isfinite(vec)):
                raise FormatError("non-finite entry")
            if dimension is None:
                if vec.size == 0:
                    raise FormatError("empty vector")
                dimension = vec.size
            elif vec.size != dimension:
                raise FormatError(f"dimension {vec.size} != {dimension}")
            vectors[lines.unique("token", parts[0])] = vec
        if dimension is None:
            raise FormatError("empty embedding file")
    return EmbeddingTable(dimension=int(dimension), vectors=vectors)


def save_embeddings(table: EmbeddingTable, path) -> None:
    with open(path, "w") as fh:
        for token in sorted(table.vectors):
            entries = " ".join(repr(float(v)) for v in table.vectors[token])
            fh.write(f"{token} {entries}\n")


def embed_phrase(table: EmbeddingTable, phrase: str,
                 strict: bool = True) -> Tuple[np.ndarray, bool]:
    """Mean vector of the phrase's in-vocabulary tokens.

    Returns (vector, known). With every token out of vocabulary, strict
    mode raises; lenient mode returns (zeros, False).
    """
    tokens = phrase.split()
    # summed in sorted-token order so any reordering of the same token
    # multiset yields a bit-identical vector
    hits = [table.vectors[t] for t in sorted(tokens) if t in table.vectors]
    if not hits:
        if strict:
            raise OutOfVocabularyError(f"no embeddable token in phrase: {phrase!r}")
        return np.zeros(table.dimension, dtype=np.float64), False
    total = np.zeros(table.dimension, dtype=np.float64)
    for vec in hits:
        total += vec
    return total / len(hits), True


def embed_phrases(table: EmbeddingTable, phrases: Sequence[str],
                  strict: bool = True) -> Optional[np.ndarray]:
    """Stacked `embed_phrase` vectors of the phrases that have one, in order,
    as a fresh (k, e) array; None when none has. Each phrase is pooled once
    per table. Strict mode raises on a phrase without one."""
    rows = []
    for phrase in phrases:
        if phrase not in table._pooled:
            vec, known = embed_phrase(table, phrase, strict=False)
            table._pooled[phrase] = vec if known else None
        vec = table._pooled[phrase]
        if vec is not None:
            rows.append(vec)
        elif strict:
            raise OutOfVocabularyError(f"no embeddable token in phrase: {phrase!r}")
    return np.array(rows) if rows else None


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise NumericError(f"cosine shape mismatch: {u.shape} vs {v.shape}")
    nu, nv = float(np.linalg.norm(u)), float(np.linalg.norm(v))
    if not (0.0 < nu < np.inf and 0.0 < nv < np.inf):  # a NaN norm fails too
        raise NumericError("cosine undefined for a zero or non-finite vector")
    value = float(np.dot(u, v) / (nu * nv))
    # guard against rounding drift just past +/-1
    return max(-1.0, min(1.0, value))
