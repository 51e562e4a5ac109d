"""Text ingestion: normalization, SVO triplet extraction, vocabulary filtering.

The extractor is a deliberately simple whitespace grammar, not a dependency
parser: per clause, the first run of non-predicate tokens supplies the
subject head, the following run of predicate-like tokens (lexicon match or
"-ing"/"-s" morphology) is the predicate, and the next non-predicate run's
last token is the object. Pre-parsed corpora can be ingested as JSONL
instead, bypassing the grammar entirely.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from json.encoder import encode_basestring_ascii as _json_str
from operator import itemgetter
from typing import Dict, List, Optional, Set, Tuple

from .errors import ConfigError, FormatError, TextFile, json_line

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
# Clause punctuation plus every str.splitlines boundary: one split over the
# whole text, and no clause spans a line.
_CLAUSE_SPLIT = re.compile(r"[.;,!?:\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]+")


def normalize_token(raw: str, stoplist: Optional[Set[str]] = None) -> Optional[str]:
    """Lowercase, map non-alphabetical runs to single spaces, drop stop words.

    Returns None when nothing survives normalization.
    """
    stop = DEFAULT_STOPLIST if stoplist is None else stoplist
    words = _NON_ALPHA.sub(" ", raw.lower()).split()
    return None if all(w in stop for w in words) else " ".join(words)


@dataclass(frozen=True)
class Triplet:
    """One normalized (subject, predicate, object) observation."""

    subject: str
    predicate: str
    object: str
    weight: int = 1

    def __post_init__(self):
        for name in ("subject", "predicate", "object"):
            if type(getattr(self, name)) is not str:  # JSON strings: 5 is not "5"
                raise FormatError(f"{name} {getattr(self, name)!r} is not a string")
        if type(self.weight) is not int:  # bool and float are not counts
            raise FormatError(f"weight {self.weight!r} is not an integer")
        if not (self.subject and self.predicate and self.object):
            raise FormatError(f"triplet fields must be non-empty: {self}")
        if self.weight < 1:
            raise FormatError(f"triplet weight must be >= 1: {self}")
        fields = self.subject + self.predicate + self.object
        if "\t" in fields or "\n" in fields or "\r" in fields:  # TSV fields
            raise FormatError(f"triplet fields must not hold a tab or line "
                              f"break: {self}")


@dataclass
class TripletCorpus:
    """Weighted multiset of triplets plus source provenance."""

    counts: Dict[Tuple[str, str, str], int] = field(default_factory=dict)
    provenance: List[str] = field(default_factory=list)

    def add(self, triplet: Triplet) -> None:
        key = (triplet.subject, triplet.predicate, triplet.object)
        self.counts[key] = self.counts.get(key, 0) + triplet.weight

    def total_weight(self) -> int:
        return sum(self.counts.values())

    def __len__(self) -> int:
        return len(self.counts)


def extract_from_text(text: str,
                      stoplist: Optional[Set[str]] = None,
                      predicate_lexicon: Optional[Set[str]] = None,
                      source: str = "<text>") -> TripletCorpus:
    """Count at most one (subject, predicate, object) key per clause.

    `memo` maps each distinct raw whitespace token to its normalized words
    and a kind string, "P" (predicate-like) or "N" per word, so the stop-word
    rule stays per raw token; a clause's kinds concatenate into one string
    whose runs `str.find` locates. The keys need no Triplet check: every
    field is a non-empty [a-z] word or a space-joined run of them."""
    stop = DEFAULT_STOPLIST if stoplist is None else stoplist
    lexicon = DEFAULT_PREDICATE_LEXICON if predicate_lexicon is None else predicate_lexicon
    corpus = TripletCorpus(provenance=[source])
    counts = corpus.counts
    memo: Dict[str, Tuple[List[str], str]] = {}
    for clause in _CLAUSE_SPLIT.split(text):
        words: List[str] = []
        kind = ""
        for raw in clause.split():
            entry = memo.get(raw)
            if entry is None:
                norm = normalize_token(raw, stop)
                ws = norm.split() if norm else []
                entry = memo[raw] = (ws, "".join(
                    "P" if w in lexicon or w.endswith("ing") or w.endswith("s")
                    else "N" for w in ws))
            words += entry[0]
            kind += entry[1]
        i = kind.find("P")  # subject run before i, predicate run from i to j
        if i > 0:
            j = kind.find("N", i)
            if j >= 0:  # the object run ends at the next predicate word or at the end
                k = kind.find("P", j)
                key = (words[i - 1], " ".join(words[i:j]), words[k - 1 if k > 0 else -1])
                counts[key] = counts.get(key, 0) + 1
    return corpus


def ingest_triplet_file(path) -> TripletCorpus:
    """Read a triplet JSONL file in one streaming pass, each line decoded by
    `errors.json_line`; a repeated key adds its weight, so memory grows with
    distinct triplets, not lines. Types and weight are checked on every line,
    the rest of the Triplet rule once per key; the first bad line raises as
    its Triplet would, at `path:line`."""
    corpus = TripletCorpus(provenance=[str(path)])
    counts = corpus.counts
    with TextFile(path) as lines:
        for line in lines:
            doc = json_line(line)
            s, r, o, w = (doc["subject"], doc["predicate"], doc["object"],
                          doc.get("weight", 1))
            if not (type(s) is type(r) is type(o) is str  # before hashing:
                    and type(w) is int and w >= 1):  # ["on"] is unhashable
                Triplet(s, r, o, w)
            key = (s, r, o)
            if key not in counts:
                f = s + r + o
                if not (s and r and o) or "\t" in f or "\n" in f or "\r" in f:
                    Triplet(s, r, o, w)
            counts[key] = counts.get(key, 0) + w
    return corpus


def save_triplet_file(corpus: TripletCorpus, path) -> None:
    """One json.dumps(sort_keys=True) line per key, in key order. The keys
    are checked before the file is opened; a bad one raises as its Triplet
    would."""
    counts = corpus.counts
    if not all(type(s) is type(r) is type(o) is str for s, r, o in counts):
        for (s, r, o), w in counts.items():  # unsortable: 5 vs "a"
            Triplet(s, r, o, w)
    items = sorted(counts.items(), key=itemgetter(0))  # str-led tuples: fast compare
    fields = "".join(chain.from_iterable(counts))
    if ("\t" in fields or "\n" in fields or "\r" in fields
            or not all(map(all, counts))  # an empty field
            or set(map(type, counts.values())) != {int} or min(counts.values()) < 1):
        for (s, r, o), w in items:
            Triplet(s, r, o, w)
    with open(path, "w") as fh:
        fh.writelines(f'{{"object": {_json_str(o)}, "predicate": {_json_str(r)}, '
                      f'"subject": {_json_str(s)}, "weight": {w}}}\n'
                      for (s, r, o), w in items)


def filter_vocabulary(corpus: TripletCorpus, min_count: int) -> TripletCorpus:
    """Drop triplets whose subject, object or predicate is rarer than min_count.

    Counts are measured once on the input corpus (single pass, no iteration).
    """
    if min_count < 1:
        raise ConfigError(f"min_count must be >= 1, got {min_count}")
    obj_counts: Counter = Counter()
    pred_counts: Counter = Counter()
    for (s, r, o), w in corpus.counts.items():
        obj_counts[s] += w
        obj_counts[o] += w
        pred_counts[r] += w
    kept = {(s, r, o): w for (s, r, o), w in corpus.counts.items()
            if min(obj_counts[s], obj_counts[o], pred_counts[r]) >= min_count}
    return TripletCorpus(kept, list(corpus.provenance))


def load_wordlist(path) -> Set[str]:
    """One token per line; blank lines and '#' comments ignored."""
    with TextFile(path) as lines:
        words = {line.strip().lower() for line in lines}
    return {w for w in words if not w.startswith("#")}
