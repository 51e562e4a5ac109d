"""The memoised caption grammar and the one-pass writer against the
per-token reference in reference_corpus.py."""

import random

import pytest

import reference_corpus as ref
from relkit.corpus import (TripletCorpus, extract_from_text, extract_triplets,
                           save_triplet_file)
from relkit.errors import FormatError

# Stop words, "-ing"/"-s" words, lexicon words, plain nouns, upper case and
# letters whose lower case is not [a-z] or is two characters (dotted capital
# I lowers to "i" plus a combining dot; the Kelvin sign lowers to "k").
WORDS = ["a", "the", "it", "It", "IS", "his", "of", "riding", "Holding",
         "dogs", "runs", "on", "NEAR", "next", "to", "wear", "man", "Dog",
         "helmet", "tree", "bench", "\u0130", "\u0130t", "\u212a",
         "\u212aite", "ß", "straße", "café", "é", "x", "ing", "s"]
# Characters that end up inside a token: digits, "_", "'" and "-".
INNER = ["1", "42", "_", "'", "-", "'s", "--"]
# Whitespace, every str.splitlines break and clause punctuation runs.
BREAKS = [" ", " ", " ", "  ", "\t", "\n", "\r", "\r\n", "\v", "\f", "\x1c",
          "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
PUNCT = [".", ";", ",", "!", "?", ":", ",,", ". ", "?!", ";:."]
STOPLISTS = [None, {"man", "it", "on"}, set()]
LEXICONS = [None, {"helmet", "near", "x"}, set()]


def random_token(rng):
    parts = [rng.choice(WORDS)]
    while rng.random() < 0.35:
        parts.append(rng.choice(INNER + WORDS))
    return "".join(parts)


def random_text(rng):
    out = []
    for _ in range(rng.randrange(0, 14)):
        out.append(random_token(rng))
        r = rng.random()
        out.append(rng.choice(PUNCT) if r < 0.2
                   else rng.choice(BREAKS) if r < 0.45 else " ")
    return "".join(out)


def test_grammar_matches_per_token_reference():
    rng = random.Random(10)
    for _ in range(3000):
        text = random_text(rng)
        stop, lex = rng.choice(STOPLISTS), rng.choice(LEXICONS)
        got = extract_from_text(text, stop, lex)
        want = ref.extract_from_text(text, stop, lex)
        assert list(got.counts.items()) == list(want.counts.items()), text
        for sentence in [text, *text.splitlines()]:
            assert extract_triplets(sentence, stop, lex) \
                == ref.extract_triplets(sentence, stop, lex), sentence


def test_grammar_keeps_the_per_raw_token_stop_rule():
    # "it's" keeps "it" beside "s"; "The-IT" is all stop words and drops.
    text = "it's holding dog. The-IT man riding The-IT dog"
    assert list(extract_from_text(text).counts) \
        == [("it", "s holding", "dog"), ("man", "riding", "dog")]


LABELS = ["man", "café", "大学", "emoji \U0001f600", 'say "hi"',
          "back\\slash", "a/b", "nul\x00", "del\x7f", "\u2028", "\xa0"]


def test_writer_bytes_match_json_dumps(tmp_path):
    rng = random.Random(11)
    corpus = TripletCorpus()
    for _ in range(300):
        key = (rng.choice(LABELS), rng.choice(LABELS), rng.choice(LABELS))
        corpus.counts[key] = rng.choice([1, 2, 7, 2 ** 64, 3 ** 50])
    save_triplet_file(corpus, tmp_path / "got.jsonl")
    ref.save_triplet_file(corpus, tmp_path / "want.jsonl")
    got = (tmp_path / "got.jsonl").read_bytes()
    assert got == (tmp_path / "want.jsonl").read_bytes()
    assert b"\\ud83d\\ude00" in got and b"18446744073709551616" in got


def test_writer_of_empty_corpus_writes_empty_file(tmp_path):
    save_triplet_file(TripletCorpus(), tmp_path / "t.jsonl")
    assert (tmp_path / "t.jsonl").read_bytes() == b""


@pytest.mark.parametrize("bad", [
    {("a\tb", "on", "c"): 1},
    {("a", "on", "c\n"): 1},
    {("a", "on\r", "c"): 1},
    {("a", "", "c"): 1},
    {("a", "on", "c"): 0},
    {("b", "on", "c"): 1, ("a", "on", "c"): -3, ("a", "\t", "b"): 0},
])
def test_bad_key_raises_as_before_and_leaves_no_file(tmp_path, bad):
    corpus = TripletCorpus(counts={("z", "on", "y"): 2, **bad})
    with pytest.raises(FormatError) as want:
        ref.save_triplet_file(corpus, tmp_path / "want.jsonl")
    assert (tmp_path / "want.jsonl").read_bytes() == b""  # the old writer
    path = tmp_path / "got.jsonl"
    with pytest.raises(FormatError) as got:
        save_triplet_file(corpus, path)
    assert str(got.value) == str(want.value)
    assert not path.exists()
