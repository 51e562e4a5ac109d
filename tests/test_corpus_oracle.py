"""The memoised caption grammar, the streaming triplet reader and the
one-pass writer against the per-token reference in reference_corpus.py."""

import json
import random

import pytest

import reference_corpus as ref
from relkit.corpus import (TripletCorpus, extract_from_text, ingest_triplet_file,
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


def read_outcome(reader, path):
    """Keys, counts and their order, or the error's type and message."""
    try:
        corpus = reader(path)
    except Exception as exc:  # the reader's own error, whatever it is
        return type(exc), str(exc)
    return [(key, type(n), n) for key, n in corpus.counts.items()], \
        corpus.provenance


FIELDS = ("subject", "predicate", "object")
GOOD_LABELS = ["man", "dog", "on", "next to", "café", "\u2028", "a\x0bb", " "]
# Unhashable, null, numeric and boolean labels, empty ones and ones that
# hold a tab or a line break.
BAD_LABELS = [["on"], {"x": 1}, None, 5, 0, 1.5, True, "", "a\tb", "on\r",
              "x\ny", "\t"]
GOOD_WEIGHTS = [1, 2, 7, 3 ** 50]
BAD_WEIGHTS = [1.5, True, False, "1", 0, -2, None, 1.0, [1]]
# Blank and whitespace-only lines, documents that are not objects,
# trailing junk and cut-off lines.
BLANKS = ["", " ", "\t", "  \t ", "\f", "\u2028", "\x85"]
NON_OBJECTS = ['["a", "r", "b"]', '"a r b"', "5", "null", "true", "[]", "{}"]
JUNK = [" x", "}", ",", " {}", "]", "\u2028"]


def triplet_line(rng, doc):
    keys = list(doc)
    rng.shuffle(keys)
    text = json.dumps({k: doc[k] for k in keys}, ensure_ascii=rng.random() < 0.5)
    return rng.choice(["", " ", "\t"]) + text + rng.choice(["", " ", "\t "])


def random_triplet_file(rng):
    keys, lines = [], []
    bad_rate = rng.choice([0.0, 0.0, 0.05, 0.2])
    for _ in range(rng.randrange(0, 14)):
        if keys and rng.random() < 0.3:  # a repeated key
            key = rng.choice(keys)
        else:
            key = tuple(rng.choice(GOOD_LABELS) for _ in FIELDS)
            keys.append(key)
        doc = dict(zip(FIELDS, key))
        if rng.random() < 0.5:
            doc["weight"] = rng.choice(GOOD_WEIGHTS)
        r = rng.random()
        if r < 0.1:
            lines.append(rng.choice(BLANKS))
            continue
        if r < 0.1 + bad_rate:
            kind = rng.randrange(6)
            if kind == 0:
                doc[rng.choice(FIELDS)] = rng.choice(BAD_LABELS)
            elif kind == 1:
                doc["weight"] = rng.choice(BAD_WEIGHTS)
            elif kind == 2:
                del doc[rng.choice(FIELDS)]
            elif kind == 3:
                lines.append(rng.choice(NON_OBJECTS))
                continue
            elif kind == 4:
                lines.append(triplet_line(rng, doc) + rng.choice(JUNK))
                continue
            else:
                line = triplet_line(rng, doc)
                lines.append(line[:rng.randrange(len(line))])
                continue
        lines.append(triplet_line(rng, doc))
    end = "\n" if rng.random() < 0.8 else ""
    return "\n".join(lines) + (end if lines else "")


def test_reader_matches_per_line_reference(tmp_path):
    rng = random.Random(13)
    path = tmp_path / "t.jsonl"
    outcomes = set()
    for _ in range(4000):
        text = random_triplet_file(rng)
        path.write_text(text, encoding="utf-8")
        want = read_outcome(ref.ingest_triplet_file, path)
        assert read_outcome(ingest_triplet_file, path) == want, text
        outcomes.add(want[0] if isinstance(want[0], type) else "read")
    assert outcomes == {"read", FormatError}


GOOD = '{"subject": "a", "predicate": "on", "object": "b"}'


@pytest.mark.parametrize("lines, line_no", [
    (['{"subject": ["on"], "predicate": "r", "object": "b"}'], 1),
    ([GOOD, '{"subject": "a", "predicate": {"x": 1}, "object": "b"}'], 2),
    ([GOOD, '{"subject": "a", "predicate": "on", "object": null}'], 2),
    ([GOOD, '{"subject": 5, "predicate": "on", "object": "b"}'], 2),
    ([GOOD, '{"subject": "a", "predicate": ["on"], "object": "b", '
      '"weight": 0}'], 2),
    *[([GOOD, GOOD[:-1] + f', "weight": {w}}}'], 2)
      for w in ["1.5", "true", '"1"', "0", "-2", "null"]],
    ([GOOD, GOOD, GOOD[:-1] + ', "weight": 1.5}'], 3),  # a repeated key
    ([GOOD, r'{"subject": "a\tb", "predicate": "on", "object": "b"}'], 2),
    ([GOOD, r'{"subject": "a", "predicate": "on\r", "object": "b"}'], 2),
    ([GOOD, '{"subject": "a", "predicate": "", "object": "b"}'], 2),
    ([GOOD, "", "   ", "\t", GOOD], None),  # blank lines are skipped
    ([GOOD, '["a", "on", "b"]'], 2),
    ([GOOD, '"a on b"'], 2),
    ([GOOD, GOOD + " x"], 2),
    ([GOOD, GOOD + "}"], 2),
    # Decoded joined as one JSON array this gives 3 objects for 3 lines;
    # read line by line it is broken from line 1.
    (['{"subject": "a", "predicate": "r"', '"object": "o"}',
      '{"subject": "b", "predicate": "r", "object": "o"}, '
      '{"subject": "c", "predicate": "r", "object": "o"}'], 1),
])
def test_reader_matches_reference_on_each_mutation(tmp_path, lines, line_no):
    path = tmp_path / "t.jsonl"
    path.write_text("".join(line + "\n" for line in lines))
    want = read_outcome(ref.ingest_triplet_file, path)
    assert read_outcome(ingest_triplet_file, path) == want
    if line_no is None:
        assert want[0] == [(("a", "on", "b"), int, 2)]
    else:
        assert want[0] is FormatError
        assert want[1].startswith(f"{path}:{line_no}: ")
