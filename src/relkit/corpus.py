"""Text ingestion: normalization, SVO triplet extraction, vocabulary filtering.

The extractor is a deliberately simple whitespace grammar, not a dependency
parser: per clause, the first run of non-predicate tokens supplies the
subject head, the following run of predicate-like tokens (lexicon match or
"-ing"/"-s" morphology) is the predicate, and the next non-predicate run's
last token is the object. Pre-parsed corpora can be ingested as JSONL
instead, bypassing the grammar entirely.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from .core import Vocabulary
from .errors import FormatError, TextFile

# Articles, pronouns, copulas and similar function words dropped before
# parsing. Fixed and documented; override with --stoplist.
DEFAULT_STOPLIST: Set[str] = {
    "a", "an", "the", "this", "that", "these", "those",
    "i", "you", "he", "she", "it", "we", "they",
    "me", "him", "her", "us", "them", "my", "your", "his", "its", "our", "their",
    "is", "am", "are", "was", "were", "be", "been", "being",
    "do", "does", "did", "have", "has", "had",
    "there", "here", "and", "or", "but", "of", "very", "some", "any",
}

# Prepositions and common relational verbs recognized as predicate tokens
# in addition to the "-ing"/"-s" morphological heuristics. Override with
# --predicate-lexicon.
DEFAULT_PREDICATE_LEXICON: Set[str] = {
    "on", "in", "at", "by", "near", "under", "over", "above", "below",
    "behind", "beside", "between", "against", "along", "across", "around",
    "inside", "outside", "atop", "with", "without", "to", "onto", "into",
    "next", "top", "front", "beneath", "toward", "towards", "up", "down",
    "off", "wear", "wears", "hold", "holds", "ride", "rides",
}

_NON_ALPHA = re.compile(r"[^a-z]+")
_CLAUSE_SPLIT = re.compile(r"[.;,!?:]+")


def normalize_token(raw: str, stoplist: Optional[Set[str]] = None) -> Optional[str]:
    """Lowercase, map non-alphabetical runs to single spaces, drop stop words.

    Returns None when nothing survives normalization.
    """
    if stoplist is None:
        stoplist = DEFAULT_STOPLIST
    lowered = raw.lower()
    cleaned = _NON_ALPHA.sub(" ", lowered).strip()
    words = [w for w in cleaned.split() if w]
    if not words or all(w in stoplist for w in words):
        return None
    return " ".join(words)


@dataclass(frozen=True)
class Triplet:
    """One normalized (subject, predicate, object) observation."""

    subject: str
    predicate: str
    object: str
    weight: int = 1

    def __post_init__(self):
        if not (self.subject and self.predicate and self.object):
            raise FormatError(f"triplet fields must be non-empty: {self}")
        if self.weight < 1:
            raise FormatError(f"triplet weight must be >= 1: {self}")
        fields = self.subject + self.predicate + self.object
        if "\t" in fields or "\n" in fields or "\r" in fields:  # TSV fields
            raise FormatError(f"triplet fields must not hold a tab or line "
                              f"break: {self}")

    def key(self) -> Tuple[str, str, str]:
        return (self.subject, self.predicate, self.object)


@dataclass
class TripletCorpus:
    """Weighted multiset of triplets plus source provenance."""

    counts: Dict[Tuple[str, str, str], int] = field(default_factory=dict)
    provenance: List[str] = field(default_factory=list)

    def add(self, triplet: Triplet) -> None:
        self.counts[triplet.key()] = self.counts.get(triplet.key(), 0) + triplet.weight

    def triplets(self) -> List[Triplet]:
        return [Triplet(s, r, o, w) for (s, r, o), w in sorted(self.counts.items())]

    def total_weight(self) -> int:
        return sum(self.counts.values())

    def __len__(self) -> int:
        return len(self.counts)


def _is_predicate_token(token: str, lexicon: Set[str]) -> bool:
    return token in lexicon or token.endswith("ing") or token.endswith("s")


def extract_triplets(sentence: str,
                     stoplist: Optional[Set[str]] = None,
                     predicate_lexicon: Optional[Set[str]] = None) -> List[Triplet]:
    """Extract at most one (subject, predicate, object) triplet per clause."""
    if stoplist is None:
        stoplist = DEFAULT_STOPLIST
    if predicate_lexicon is None:
        predicate_lexicon = DEFAULT_PREDICATE_LEXICON
    out: List[Triplet] = []
    for clause in _CLAUSE_SPLIT.split(sentence):
        tokens: List[str] = []
        for raw in clause.split():
            norm = normalize_token(raw, stoplist)
            if norm is not None:
                tokens.extend(norm.split())
        triplet = _parse_clause(tokens, predicate_lexicon)
        if triplet is not None:
            out.append(triplet)
    return out


def _parse_clause(tokens: List[str], lexicon: Set[str]) -> Optional[Triplet]:
    i, n = 0, len(tokens)
    subject_run: List[str] = []
    while i < n and not _is_predicate_token(tokens[i], lexicon):
        subject_run.append(tokens[i])
        i += 1
    if not subject_run:
        return None
    predicate_run: List[str] = []
    while i < n and _is_predicate_token(tokens[i], lexicon):
        predicate_run.append(tokens[i])
        i += 1
    if not predicate_run:
        return None
    object_run: List[str] = []
    while i < n and not _is_predicate_token(tokens[i], lexicon):
        object_run.append(tokens[i])
        i += 1
    if not object_run:
        return None
    return Triplet(subject_run[-1], " ".join(predicate_run), object_run[-1])


def extract_from_text(text: str,
                      stoplist: Optional[Set[str]] = None,
                      predicate_lexicon: Optional[Set[str]] = None,
                      source: str = "<text>") -> TripletCorpus:
    corpus = TripletCorpus(provenance=[source])
    for line in text.splitlines():
        for triplet in extract_triplets(line, stoplist, predicate_lexicon):
            corpus.add(triplet)
    return corpus


def ingest_triplet_file(path) -> TripletCorpus:
    """Read a triplet JSONL file; weights accumulate across duplicate lines."""
    corpus = TripletCorpus(provenance=[str(path)])
    with TextFile(path) as lines:
        for line in lines:
            if line.strip():
                doc = json.loads(line)
                weight = doc.get("weight", 1)
                if type(weight) is not int:  # bool and float are not counts
                    raise FormatError(f"weight {weight!r} is not an integer")
                corpus.add(Triplet(str(doc["subject"]), str(doc["predicate"]),
                                   str(doc["object"]), weight))
    return corpus


def save_triplet_file(corpus: TripletCorpus, path) -> None:
    with open(path, "w") as fh:
        for t in corpus.triplets():
            fh.write(json.dumps(
                {"subject": t.subject, "predicate": t.predicate,
                 "object": t.object, "weight": t.weight},
                sort_keys=True) + "\n")


def filter_vocabulary(corpus: TripletCorpus, min_count: int
                      ) -> Tuple[TripletCorpus, Vocabulary, Vocabulary]:
    """Drop triplets whose subject, object or predicate is rarer than min_count.

    Counts are measured once on the input corpus (single pass, no iteration);
    the returned vocabularies carry those input-corpus counts for the labels
    that survive.
    """
    if min_count < 1:
        raise FormatError("min_count must be >= 1")
    obj_counts: Counter = Counter()
    pred_counts: Counter = Counter()
    for (s, r, o), w in corpus.counts.items():
        obj_counts[s] += w
        obj_counts[o] += w
        pred_counts[r] += w
    filtered = TripletCorpus(provenance=list(corpus.provenance))
    kept_objs: Set[str] = set()
    kept_preds: Set[str] = set()
    for (s, r, o), w in corpus.counts.items():
        if (obj_counts[s] >= min_count and obj_counts[o] >= min_count
                and pred_counts[r] >= min_count):
            filtered.counts[(s, r, o)] = w
            kept_objs.update((s, o))
            kept_preds.add(r)
    obj_vocab = Vocabulary.make([(l, obj_counts[l]) for l in sorted(kept_objs)])
    pred_vocab = Vocabulary.make([(l, pred_counts[l]) for l in sorted(kept_preds)])
    return filtered, obj_vocab, pred_vocab


def load_wordlist(path) -> Set[str]:
    """One token per line; blank lines and '#' comments ignored."""
    with TextFile(path) as lines:
        words = {line.strip().lower() for line in lines}
    return {w for w in words if w and not w.startswith("#")}
