import re
import sys
from collections import Counter

import numpy as np
import pytest

from helpers import random_corpus
from relkit.corpus import (_CLAUSE_SPLIT, DEFAULT_STOPLIST, Triplet,
                           TripletCorpus, extract_from_text, filter_vocabulary,
                           ingest_triplet_file, load_wordlist, normalize_token,
                           save_triplet_file)
from relkit.errors import ConfigError, FormatError


class TestNormalizeToken:
    def test_lowercase_strip_punctuation(self):
        assert normalize_token("Riding.") == "riding"

    def test_stop_word_absent(self):
        assert normalize_token("the") is None

    def test_replacement_and_collapse(self):
        assert normalize_token("stands-with2") == "stands with"

    def test_empty_after_cleaning(self):
        assert normalize_token("123!?") is None

    def test_all_words_stoplisted(self):
        assert normalize_token("The-IT") is None

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        alphabet = list("abc -XY.2_")
        for _ in range(300):
            raw = "".join(rng.choice(alphabet, size=int(rng.integers(0, 15))))
            once = normalize_token(raw)
            if once is not None:
                assert normalize_token(once) == once


def keys(text):
    """extract_from_text's (subject, predicate, object) keys and counts, in order."""
    return list(extract_from_text(text).counts.items())


class TestExtractTriplets:
    def test_caption_example(self):
        assert keys("player dribbling ball") == [(("player", "dribbling", "ball"), 1)]

    def test_empty_sentence(self):
        assert keys("") == []

    def test_articles_dropped(self):
        assert keys("a man wearing a helmet") == [(("man", "wearing", "helmet"), 1)]

    def test_multi_word_predicate(self):
        assert keys("a woman standing next to a bench") == [
            (("woman", "standing next to", "bench"), 1)]

    def test_one_triplet_per_clause(self):
        assert keys("a man wearing a helmet, a dog near a tree") == [
            (("man", "wearing", "helmet"), 1), (("dog", "near", "tree"), 1)]

    def test_unparseable_yields_nothing(self):
        assert keys("green blue red") == []
        assert keys("wearing helmet") == []

    def test_output_alphabet(self):
        rng = np.random.default_rng(1)
        words = ["Man", "dog2", "rid-ing", "the", "ball!", "NEAR", "on"]
        for _ in range(200):
            sentence = " ".join(rng.choice(words,
                                           size=int(rng.integers(0, 8))))
            for key, _ in keys(sentence):
                for fieldval in key:
                    assert all(c.islower() or c == " " for c in fieldval)
                    assert "  " not in fieldval


class TestIngest:
    def test_weights_accumulate(self, tmp_path):
        path = tmp_path / "c.jsonl"
        line = '{"subject":"a","predicate":"r","object":"b"}\n'
        path.write_text(line + line)
        corpus = ingest_triplet_file(path)
        assert corpus.counts == {("a", "r", "b"): 2}

    def test_empty_file(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("")
        assert len(ingest_triplet_file(path)) == 0

    def test_missing_field_names_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"subject":"a","predicate":"r","object":"b"}\n'
                        '{"subject":"a","predicate":"r"}\n')
        with pytest.raises(FormatError, match=":2:"):
            ingest_triplet_file(path)

    def test_non_utf8_line_named(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_bytes(b'{"subject":"a","predicate":"r","object":"b"}\n'
                         b'{"subject":"\xe9","predicate":"r","object":"b"}\n')
        with pytest.raises(FormatError, match=":2: byte 57: not UTF-8"):
            ingest_triplet_file(path)

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        corpus = random_corpus(rng, max_triplets=200, max_labels=10)
        path = tmp_path / "c.jsonl"
        save_triplet_file(corpus, path)
        assert ingest_triplet_file(path).counts == corpus.counts

    def test_non_string_fields_are_not_coerced(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"subject": "a", "predicate": "r", "object": "b"}\n'
                        '{"subject": null, "predicate": ["on"], "object": 5}\n')
        with pytest.raises(FormatError, match=r":2: subject None is not a string$"):
            ingest_triplet_file(path)


class TestTripletKeyRule:
    @pytest.mark.parametrize("fields, message", [
        ((5, "on", "bench"), "subject 5 is not a string"),
        (("dog", None, "bench"), "predicate None is not a string"),
        (("dog", "on", b"bench"), "object b'bench' is not a string"),
        (("dog", "on", "bench", 2.5), "weight 2.5 is not an integer"),
        (("dog", "on", "bench", True), "weight True is not an integer"),
        (("dog", "on", "bench", "2"), "weight '2' is not an integer")])
    def test_wrong_type_is_format_error(self, fields, message):
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            Triplet(*fields)

    @pytest.mark.parametrize("counts", [
        {(5, "on", "b"): 1},
        {("a", "on", "b"): 1, (5, "on", "b"): 1, ("c", "on", "d"): 1}],
        ids=["alone", "among-strings"])
    def test_writer_names_a_non_string_label(self, tmp_path, counts):
        path = tmp_path / "c.jsonl"
        with pytest.raises(FormatError, match="^subject 5 is not a string$"):
            save_triplet_file(TripletCorpus(counts=counts), path)
        assert not path.exists()

    @pytest.mark.parametrize("weight", [2.5, True, 2.0])
    def test_writer_rejects_what_the_reader_would(self, tmp_path, weight):
        corpus = TripletCorpus(counts={("a", "on", "b"): 1,
                                       ("dog", "on", "bench"): weight})
        path = tmp_path / "c.jsonl"
        with pytest.raises(FormatError, match=f"weight {weight!r} is not an "
                                              "integer"):
            save_triplet_file(corpus, path)
        assert not path.exists()


class TestFilterVocabulary:
    def test_min_count_one_is_identity(self):
        rng = np.random.default_rng(4)
        corpus = random_corpus(rng, 200, 10)
        filtered = filter_vocabulary(corpus, 1)
        assert filtered.counts == corpus.counts

    def test_threshold_boundary(self):
        corpus = TripletCorpus()
        corpus.add(Triplet("a", "rare", "b", weight=99))
        corpus.add(Triplet("a", "common", "b", weight=100))
        filtered = filter_vocabulary(corpus, 100)
        assert list(filtered.counts) == [("a", "common", "b")]

    def test_matches_brute_force_recount(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            corpus = random_corpus(rng, 300, 8)
            min_count = int(rng.integers(1, 30))
            filtered = filter_vocabulary(corpus, min_count)
            # independent recount
            oc, pc = Counter(), Counter()
            for (s, r, o), w in corpus.counts.items():
                oc[s] += w
                oc[o] += w
                pc[r] += w
            expected = {k: w for k, w in corpus.counts.items()
                        if oc[k[0]] >= min_count and pc[k[1]] >= min_count
                        and oc[k[2]] >= min_count}
            assert filtered.counts == expected

    def test_monotone_in_min_count(self):
        rng = np.random.default_rng(6)
        corpus = random_corpus(rng, 300, 8)
        previous = None
        for min_count in (1, 2, 4, 8, 16):
            filtered = filter_vocabulary(corpus, min_count)
            keys = set(filtered.counts)
            if previous is not None:
                assert keys <= previous
            previous = keys

    def test_rejects_zero_min_count(self):  # a bad argument, not a bad file
        with pytest.raises(ConfigError, match="^min_count must be >= 1, got 0$"):
            filter_vocabulary(TripletCorpus(), 0)


def test_extract_from_text_counts_clauses():
    text = "A man wearing a helmet.\nThe player dribbling the ball.\n"
    corpus = extract_from_text(text)
    assert corpus.counts == {("man", "wearing", "helmet"): 1,
                             ("player", "dribbling", "ball"): 1}


def test_clause_breaks_are_punctuation_and_every_line_boundary():
    """extract_from_text splits the whole text once, so a clause may not
    span a line: the break class must be `.;,!?:` plus exactly the code
    points at which str.splitlines ends a line."""
    bad = [hex(c) for c in range(sys.maxunicode + 1)
           if bool(_CLAUSE_SPLIT.fullmatch(chr(c)))
           != (chr(c) in ".;,!?:" or len(f"a{chr(c)}b".splitlines()) == 2)]
    assert bad == []


def test_default_stoplist_contains_articles():
    assert {"a", "an", "the", "is"} <= DEFAULT_STOPLIST


def test_wordlist_non_utf8_is_format_error(tmp_path):
    path = tmp_path / "stop.txt"
    path.write_bytes(b"# stop words\nthe\n\xfe\n")
    with pytest.raises(FormatError, match=":3: byte 17: not UTF-8"):
        load_wordlist(path)
