import itertools
import math
import random
import re
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from helpers import random_corpus
from relkit.corpus import (Triplet, TripletCorpus, ingest_triplet_file,
                           save_triplet_file)
from relkit.errors import ConfigError, FormatError
import relkit.orm
from relkit.orm import (OrmTable, build_orm, load_orm, lookup,
                        sample_candidates, save_orm)


def corpus_of(*entries):
    corpus = TripletCorpus()
    for s, r, o, w in entries:
        corpus.add(Triplet(s, r, o, weight=w))
    return corpus


def man_helmet_corpus():
    """54 'wearing' among 100 (man, helmet) observations."""
    entries = [("man", "wearing", "helmet", 54),
               ("man", "has", "helmet", 30),
               ("man", "holding", "helmet", 15),
               ("man", "stands with", "helmet", 1)]
    return corpus_of(*entries)


class TestBuildOrm:
    def test_single_observation(self):
        table = build_orm(corpus_of(("a", "r", "b", 1)))
        result = lookup(table, "a", "b")
        assert result.entries == (("r", 1.0),)
        assert not result.backoff

    def test_dominant_predicate_head(self):
        table = build_orm(man_helmet_corpus())
        result = lookup(table, "man", "helmet")
        assert result.entries[0][0] == "wearing"
        assert abs(result.entries[0][1] - 0.54) <= 1e-12

    def test_empty_corpus(self):
        table = build_orm(TripletCorpus())
        assert len(table) == 0
        assert lookup(table, "a", "b").entries == ()

    def test_matches_brute_force_recount(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            corpus = random_corpus(rng, 1000, 20)
            table = build_orm(corpus)
            naive: Counter = Counter()
            for (s, r, o), w in corpus.counts.items():
                naive[(s, o, r)] += w
            for (s, o) in {(s, o) for (s, o, _r) in naive}:
                total = sum(w for (s2, o2, _), w in naive.items()
                            if (s2, o2) == (s, o))
                got = dict(lookup(table, s, o).entries)
                for (s2, o2, r), w in naive.items():
                    if (s2, o2) == (s, o):
                        assert math.isclose(got[r], w / total, abs_tol=1e-12)

    def test_concatenated_sources_sum_counts(self, tmp_path):
        # combining text sources: cat the triplet files, build once
        rng = np.random.default_rng(4)
        sources = [random_corpus(rng, 300, 8) for _ in range(2)]
        parts = []
        for i, source in enumerate(sources):
            parts.append(tmp_path / f"part{i}.jsonl")
            save_triplet_file(source, parts[-1])
        combined = tmp_path / "triplets.jsonl"
        combined.write_bytes(b"".join(p.read_bytes() for p in parts))
        table = build_orm(ingest_triplet_file(combined))
        expected: dict = {}
        for source in sources:
            for pair, preds in build_orm(source).pair_counts.items():
                for r, c in preds.items():
                    counts = expected.setdefault(pair, {})
                    counts[r] = counts.get(r, 0) + c
        assert table.pair_counts == expected


class TestLookup:
    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(1)
        corpus = random_corpus(rng, 500, 10)
        table = build_orm(corpus)
        for pair in table.pair_counts:
            probs = [p for _, p in lookup(table, *pair).entries]
            assert abs(sum(probs) - 1.0) <= 1e-9

    def test_ordering_descending_then_lexicographic(self):
        table = build_orm(corpus_of(("a", "zz", "b", 2), ("a", "aa", "b", 2),
                                    ("a", "mm", "b", 4)))
        assert [r for r, _ in lookup(table, "a", "b").entries] == \
            ["mm", "aa", "zz"]

    def test_backoff_marginal_by_hand(self):
        # marginal over a 3-triplet corpus: r2 twice, r1 once
        table = build_orm(corpus_of(("a", "r1", "b", 1), ("c", "r2", "d", 1),
                                    ("e", "r2", "f", 1)))
        result = lookup(table, "x", "y")
        assert result.backoff
        assert result.entries == (("r2", 2 / 3), ("r1", 1 / 3))

    def test_strict_mode_returns_empty(self):
        table = build_orm(corpus_of(("a", "r1", "b", 1)))
        result = lookup(table, "x", "y", backoff=False)
        assert result.entries == ()
        assert result.backoff


def brute_force_lookup(table, subject, obj, backoff):
    """(entries, backoff) ranked afresh from pair_counts: counts descending,
    ties by ascending predicate (a stable sort by predicate first)."""
    counts = table.pair_counts.get((subject, obj))
    unseen = not counts
    if unseen:
        if not backoff:
            return (), True
        counts = Counter()
        for preds in table.pair_counts.values():
            counts.update(preds)
    total = sum(counts.values())
    ranked = sorted(sorted(counts.items()), key=lambda kv: kv[1], reverse=True)
    return tuple((r, c / total) for r, c in ranked), unseen


class TestLookupIndex:
    def test_interleaved_lookups_match_brute_force(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            table = build_orm(random_corpus(rng, 400, 12))
            seen = sorted(table.pair_counts)
            unseen = [("x", "y"), ("o0", "o0"), ("o1", "nobody")]
            for _ in range(400):
                pool = seen if seen and rng.random() < 0.7 else unseen
                s, o = pool[int(rng.integers(len(pool)))]
                backoff = bool(rng.random() < 0.5)
                got = lookup(table, s, o, backoff=backoff)
                assert (got.entries, got.backoff) == \
                    brute_force_lookup(table, s, o, backoff)

    def test_marginal_built_once_per_table(self, tmp_path, monkeypatch):
        calls = []
        original = OrmTable.marginal

        def counting(self):
            calls.append(id(self))
            return original(self)

        monkeypatch.setattr(OrmTable, "marginal", counting)
        rng = np.random.default_rng(12)
        path = tmp_path / "orm.tsv"
        save_orm(build_orm(random_corpus(rng, 300, 10)), path)
        tables = [build_orm(random_corpus(rng, 300, 10)), load_orm(path)]
        assert calls == []  # nothing is ranked at build or load time
        for table in tables:
            for i in range(100):
                lookup(table, f"unseen{i}", "x", backoff=bool(i % 2))
                sample_candidates(table, "x", f"unseen{i}", m=4, k=2, seed=i)
        assert calls == [id(tables[0]), id(tables[1])]

    def test_loaded_table_answers_like_built(self, tmp_path):
        rng = np.random.default_rng(13)
        built = build_orm(random_corpus(rng, 500, 10))
        lookup(built, "x", "y")  # a warm cache must not reach the file
        path = tmp_path / "orm.tsv"
        save_orm(built, path)
        loaded = load_orm(path)
        queries = sorted(built.pair_counts) + [("x", "y"), ("o0", "o0")]
        for seed, (s, o) in enumerate(queries * 2):
            for backoff in (True, False):
                assert lookup(loaded, s, o, backoff) == lookup(built, s, o, backoff)
                assert sample_candidates(loaded, s, o, 6, 3, seed, backoff) == \
                    sample_candidates(built, s, o, 6, 3, seed, backoff)


class TestSampleCandidates:
    def test_k_exceeds_m_rejected(self):
        table = build_orm(corpus_of(("a", "r", "b", 1)))
        with pytest.raises(ConfigError):
            sample_candidates(table, "a", "b", m=2, k=3, seed=0)

    @pytest.mark.parametrize("m, k", [(0, 1), (2, 0), (-1, -1)])
    def test_m_or_k_below_one_rejected(self, m, k):
        table = build_orm(corpus_of(("a", "r", "b", 1)))
        with pytest.raises(ConfigError, match=f"^K and M must satisfy 1 <= K <= M, "
                                              f"got K = {k}, M = {m}$"):
            sample_candidates(table, "a", "b", m=m, k=k, seed=0)

    def test_negative_seed_rejected(self):
        # random.Random seeds by absolute value: -5 would draw what 5 draws
        table = build_orm(corpus_of(("a", "r1", "b", 3), ("a", "r2", "b", 2)))
        with pytest.raises(ConfigError, match="^seed must be >= 0, got -5$"):
            sample_candidates(table, "a", "b", m=2, k=1, seed=-5)

    def test_forced_subset(self):
        table = build_orm(corpus_of(("a", "r1", "b", 3), ("a", "r2", "b", 2),
                                    ("a", "r3", "b", 1)))
        got = sample_candidates(table, "a", "b", m=3, k=3, seed=5)
        assert sorted(got) == ["r1", "r2", "r3"]

    def test_single_top_candidate(self):
        table = build_orm(corpus_of(("a", "r1", "b", 3), ("a", "r2", "b", 1)))
        assert sample_candidates(table, "a", "b", m=1, k=1, seed=9) == ["r1"]

    def test_at_most_k_candidates_in_ranked_order(self, monkeypatch):
        def no_rng(seed):
            raise AssertionError("no draw needed with at most K candidates")

        monkeypatch.setattr(relkit.orm, "random", SimpleNamespace(Random=no_rng))
        table = build_orm(corpus_of(("a", "r1", "b", 1), ("a", "r2", "b", 5),
                                    ("a", "r3", "b", 5), ("c", "r9", "d", 2)))
        for seed in range(50):
            assert sample_candidates(table, "a", "b", m=5, k=3, seed=seed) == \
                ["r2", "r3", "r1"]
            assert sample_candidates(table, "a", "b", m=2, k=2, seed=seed) == \
                ["r2", "r3"]
            assert sample_candidates(table, "x", "y", m=5, k=4, seed=seed) == \
                ["r2", "r3", "r9", "r1"]
        monkeypatch.undo()
        assert sample_candidates(table, "a", "b", m=3, k=2, seed=4) == \
            random.Random(4).sample(["r2", "r3", "r1"], 2)

    def test_deterministic_given_seed(self):
        table = build_orm(corpus_of(*[("a", f"r{i}", "b", i + 1)
                                      for i in range(8)]))
        a = sample_candidates(table, "a", "b", m=6, k=3, seed=123)
        b = sample_candidates(table, "a", "b", m=6, k=3, seed=123)
        assert a == b

    def test_subset_of_top_m(self):
        table = build_orm(corpus_of(*[("a", f"r{i}", "b", i + 1)
                                      for i in range(10)]))
        top4 = {r for r, _ in lookup(table, "a", "b").entries[:4]}
        for seed in range(300):
            got = sample_candidates(table, "a", "b", m=4, k=2, seed=seed)
            assert set(got) <= top4
            assert len(set(got)) == 2

    def test_uniform_over_subsets(self):
        table = build_orm(corpus_of(*[("a", f"r{i}", "b", 10 - i)
                                      for i in range(6)]))
        counts: Counter = Counter()
        n = 10_000
        for seed in range(n):
            got = sample_candidates(table, "a", "b", m=4, k=2, seed=seed)
            counts[frozenset(got)] += 1
        subsets = list(itertools.combinations([f"r{i}" for i in range(4)], 2))
        assert len(counts) == len(subsets) == 6
        p = 1 / 6
        sigma = math.sqrt(n * p * (1 - p))
        for subset in subsets:
            assert abs(counts[frozenset(subset)] - n * p) <= 5 * sigma


class TestPersistence:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        table = build_orm(random_corpus(rng, 500, 12))
        path = tmp_path / "orm.tsv"
        save_orm(table, path)
        assert load_orm(path).pair_counts == table.pair_counts

    def test_empty_table_round_trip(self, tmp_path):
        path = tmp_path / "orm.tsv"
        save_orm(OrmTable(), path)
        assert load_orm(path).pair_counts == {}

    def test_truncated_file_reports_total(self, tmp_path):
        rng = np.random.default_rng(6)
        table = build_orm(random_corpus(rng, 200, 8))
        path = tmp_path / "orm.tsv"
        save_orm(table, path)
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2 + data[len(data) // 2:].index(b"\n") + 1])
        with pytest.raises(FormatError, match=re.escape(f"{path}: declared total")):
            load_orm(path)

    def test_corrupt_count(self, tmp_path):
        path = tmp_path / "orm.tsv"
        path.write_text("#total\t1\na\tb\tr\tnotanumber\n")
        with pytest.raises(FormatError, match=re.escape(f"{path}:2: ")):
            load_orm(path)

    @pytest.mark.parametrize("total", ["x", "1.0", ""])
    def test_header_count_not_an_integer_is_located(self, tmp_path, total):
        path = tmp_path / "orm.tsv"
        path.write_text(f"#total\t{total}\na\tb\tr\t1\n")
        with pytest.raises(FormatError, match=re.escape(
                f"{path}:1: expected '#total\\t<n>' header") + "$"):
            load_orm(path)

    @pytest.mark.parametrize("count", ["x", "1.0", ""])
    def test_row_count_not_an_integer_is_located(self, tmp_path, count):
        path = tmp_path / "orm.tsv"
        path.write_text(f"#total\t1\na\tb\tr\t{count}\n")
        with pytest.raises(FormatError, match=re.escape(
                f"{path}:2: expected 'subject<TAB>object<TAB>predicate<TAB>count'") + "$"):
            load_orm(path)

    @pytest.mark.parametrize("row", ["man\thorse\t1", "man\thorse\triding\t1\t1"],
                             ids=["three-fields", "five-fields"])
    def test_wrong_field_count_is_located(self, tmp_path, row):
        path = tmp_path / "orm.tsv"
        path.write_text(f"#total\t1\n{row}\n")
        with pytest.raises(FormatError, match=re.escape(
                f"{path}:2: expected 'subject<TAB>object<TAB>predicate<TAB>count'")):
            load_orm(path)

    @pytest.mark.parametrize("row", ["\thorse\triding\t1", "man\t\triding\t1",
                                     "man\thorse\t\t1"],
                             ids=["subject", "object", "predicate"])
    def test_empty_field_is_located(self, tmp_path, row):
        # save_orm never writes one, and lookup would answer for label ""
        path = tmp_path / "orm.tsv"
        path.write_text(f"#total\t3\nman\thorse\ton\t2\n{row}\n")
        with pytest.raises(FormatError, match=re.escape(
                f"{path}:3: empty subject, object or predicate")):
            load_orm(path)

    def test_non_utf8_line_reports_offset(self, tmp_path):
        path = tmp_path / "orm.tsv"
        path.write_bytes(b"#total\t1\na\tb\tr\xff\t1\n")
        with pytest.raises(FormatError, match=":2: byte 14: not UTF-8"):
            load_orm(path)

    def test_file_order_is_lookup_order(self, tmp_path):
        rng = np.random.default_rng(7)
        table = build_orm(random_corpus(rng, 500, 6))
        path = tmp_path / "orm.tsv"
        save_orm(table, path)
        in_file = {}
        for line in path.read_text().splitlines()[1:]:
            s, o, r, _ = line.split("\t")
            in_file.setdefault((s, o), []).append(r)
        for (s, o), preds in in_file.items():
            assert [r for r, _ in lookup(table, s, o).entries] == preds
