"""Per-token reference implementation of the caption grammar, the triplet
reader and the writer.

This is the text path the library used before it memoised raw tokens and
streamed triplet files: every raw token is normalized on every use, every
clause and every triplet line becomes a checked Triplet added through
TripletCorpus.add, and the writer serialises each triplet with
json.dumps(sort_keys=True). It is kept verbatim as an oracle; the library
must reproduce its keys, their counts and order, its file bytes, and the
type and message of every error it raises. It shares only data types, the
text-file reader and the default word lists with relkit.
"""

from __future__ import annotations

import json
import re
from typing import List, Optional, Set

from relkit.corpus import (DEFAULT_PREDICATE_LEXICON, DEFAULT_STOPLIST,
                           Triplet, TripletCorpus)
from relkit.errors import TextFile

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
                corpus.add(Triplet(doc["subject"], doc["predicate"],
                                   doc["object"], doc.get("weight", 1)))
    return corpus


def save_triplet_file(corpus: TripletCorpus, path) -> None:
    with open(path, "w") as fh:
        for t in [Triplet(s, r, o, w) for (s, r, o), w in sorted(corpus.counts.items())]:
            fh.write(json.dumps(
                {"subject": t.subject, "predicate": t.predicate,
                 "object": t.object, "weight": t.weight},
                sort_keys=True) + "\n")
