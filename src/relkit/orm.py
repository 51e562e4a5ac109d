"""Object-relationship mapping: per-pair predicate counts and candidates.

Counts are exact 64-bit integers; conditional probabilities are in double
precision, ranked once per pair and cached; a built table is read-only.
Ranking is always descending count (so descending probability) with ties
broken by ascending predicate string, so results are fully deterministic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .corpus import TripletCorpus
from .errors import ConfigError, FormatError, TextFile

Pair = Tuple[str, str]


@dataclass(frozen=True)
class LookupResult:
    """Ranked (predicate, probability) entries; backoff marks an unseen pair."""

    entries: Tuple[Tuple[str, float], ...]
    backoff: bool = False


@dataclass
class OrmTable:
    """Predicate counts per ordered (subject, object) label pair. Only
    `build_orm` and `load_orm` fill them; `lookup` caches what it ranks."""

    pair_counts: Dict[Pair, Dict[str, int]] = field(default_factory=dict)
    _lookups: Dict[Pair, LookupResult] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    _backoff: Optional[LookupResult] = field(
        default=None, init=False, repr=False, compare=False)

    def marginal(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for preds in self.pair_counts.values():
            for r, c in preds.items():
                out[r] = out.get(r, 0) + c
        return out

    def total(self) -> int:
        return sum(sum(preds.values()) for preds in self.pair_counts.values())

    def __len__(self) -> int:
        return len(self.pair_counts)


def build_orm(corpus: TripletCorpus) -> OrmTable:
    """Accumulate weighted triplet counts into a pair-count table."""
    table = OrmTable()
    for (s, r, o), w in corpus.counts.items():
        preds = table.pair_counts.setdefault((s, o), {})
        preds[r] = preds.get(r, 0) + w
    return table


def _by_count(counts: Dict[str, int]) -> List[Tuple[str, int]]:
    """Descending count, ties ascending predicate (lookup and save_orm)."""
    return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))


def _ranked(counts: Dict[str, int]) -> Tuple[Tuple[str, float], ...]:
    total = sum(counts.values())
    return tuple((r, c / total) for r, c in _by_count(counts))


def lookup(table: OrmTable, subject: str, obj: str,
           backoff: bool = True) -> LookupResult:
    """Conditional predicate distribution for an ordered label pair.

    Unseen pairs fall back to the global predicate marginal (flagged), or
    to an empty result when backoff is disabled.
    """
    pair = (subject, obj)
    hit = table._lookups.get(pair)
    if hit is None and table.pair_counts.get(pair):
        hit = table._lookups[pair] = LookupResult(_ranked(table.pair_counts[pair]))
    if hit is not None:
        return hit
    if not backoff:
        return LookupResult((), backoff=True)
    if table._backoff is None:
        table._backoff = LookupResult(_ranked(table.marginal()), backoff=True)
    return table._backoff


def sample_candidates(table: OrmTable, subject: str, obj: str,
                      m: int, k: int, seed: int,
                      backoff: bool = True) -> List[str]:
    """Draw K distinct predicates from the pair's top-M candidates, uniform
    over K-subsets. Returns fewer than K items only when fewer exist."""
    if k < 1 or m < 1:
        raise ConfigError("sample_candidates requires M >= 1 and K >= 1")
    if k > m:
        raise ConfigError(f"K ({k}) must not exceed M ({m})")
    if seed < 0:  # random.Random(-s) draws what random.Random(s) draws
        raise ConfigError(f"seed must be >= 0, got {seed}")
    top = [r for r, _ in lookup(table, subject, obj, backoff=backoff).entries[:m]]
    return top if len(top) <= k else random.Random(seed).sample(top, k)


# ---------------------------------------------------------------------------
# TSV persistence: header line "#total <n>", then one line per
# (subject, object, predicate, count), sorted by subject, object, then
# descending count (ties ascending predicate).
# ---------------------------------------------------------------------------

def save_orm(table: OrmTable, path) -> None:
    with open(path, "w") as fh:
        fh.write(f"#total\t{table.total()}\n")
        for (s, o) in sorted(table.pair_counts):
            for r, c in _by_count(table.pair_counts[(s, o)]):
                fh.write(f"{s}\t{o}\t{r}\t{c}\n")


def load_orm(path) -> OrmTable:
    table = OrmTable()
    with TextFile(path) as lines:
        header = next(iter(lines), "").rstrip("\n").split("\t")
        if len(header) != 2 or header[0] != "#total":
            raise FormatError("expected '#total\\t<n>' header")
        declared_total = int(header[1])
        for line in lines:
            s, o, r, count = line.rstrip("\n").split("\t")
            count = int(count)
            if count < 1:
                raise FormatError("count must be >= 1")
            preds = table.pair_counts.setdefault((s, o), {})
            if r in preds:  # only a repeat reads the file again, for its first line
                with TextFile(path) as again:
                    first = next(again.lineno for earlier in again
                                 if earlier.split("\t")[:3] == [s, o, r])
                raise FormatError(f"triplet {(s, o, r)!r} repeats line {first}")
            preds[r] = count
        if table.total() != declared_total:
            raise FormatError(f"declared total {declared_total} != summed "
                              f"counts {table.total()} (truncated file?)")
    return table
