import json

import pytest

from json_line_cases import CASES, outcome
from relkit import cli, config, core, corpus, embed
from relkit.errors import ConfigError, FormatError, TextFile, json_line


def read(path, handle):
    with TextFile(path) as lines:
        for line in lines:
            handle(line)
        handle(None)


def fail_on(word, exc):
    def handle(line):
        if line is None or word in line:
            raise exc
    return handle


@pytest.fixture
def path(tmp_path):
    path = tmp_path / "f.txt"
    path.write_text("one\ntwo\nthree\n")
    return path


@pytest.mark.parametrize("exc", [ValueError("bad"), TypeError("bad"),
                                 IndexError("bad"), AttributeError("bad"),
                                 OverflowError("bad")])
def test_parse_error_becomes_located_format_error(path, exc):
    with pytest.raises(FormatError, match=f"^{path}:2: bad$"):
        read(path, fail_on("two", exc))


def test_relkit_error_keeps_its_type(path):
    with pytest.raises(ConfigError, match=f"^{path}:3: bad$"):
        read(path, fail_on("three", ConfigError("bad")))


def test_error_after_the_last_line_names_only_the_file(path):
    with pytest.raises(FormatError, match=f"^{path}: bad$"):
        read(path, fail_on("none of the lines", ValueError("bad")))


def test_other_errors_pass_through(path):
    with pytest.raises(RuntimeError, match="^bad$"):
        read(path, fail_on("one", RuntimeError("bad")))


def test_each_iterator_continues_the_last(path):
    with TextFile(path) as lines:
        assert next(iter(lines)) == "one\n" and lines.lineno == 1
        assert [(line, lines.lineno) for line in lines] == [("two\n", 2),
                                                             ("three\n", 3)]
        assert next(iter(lines), None) is None and lines.lineno is None


def test_whitespace_only_lines_skipped_but_counted(tmp_path):
    path = tmp_path / "f.txt"
    path.write_text("\n  \none\n\t\n \t \ntwo\n\n")
    with TextFile(path) as lines:
        assert [(line, lines.lineno) for line in lines] == [("one\n", 3),
                                                             ("two\n", 6)]
        assert lines.lineno is None


def test_non_utf8_byte_named_by_line_and_offset(tmp_path):
    path = tmp_path / "f.txt"
    path.write_bytes(b"one\nt\xffo\n")
    with pytest.raises(FormatError, match=f"^{path}:2: byte 5: not UTF-8$"):
        read(path, lambda line: None)


def test_non_utf8_offset_counts_a_byte_order_mark(tmp_path):
    path = tmp_path / "f.txt"
    path.write_bytes(b"\xef\xbb\xbfone\nt\xffo\n")
    with pytest.raises(FormatError, match=f"^{path}:2: byte 8: not UTF-8$"):
        read(path, lambda line: None)


@pytest.mark.parametrize("name, load, save", [
    ("objects.tsv", config.load_vocab, config.save_vocab),
    ("vectors.txt", embed.load_embeddings, embed.save_embeddings),
    ("train.jsonl", core.load_scenes, core.save_scenes),
], ids=["objects", "vectors", "scenes"])
def test_byte_order_mark_is_not_part_of_the_first_line(tmp_path, name, load, save):
    # else the first label or token would carry it, and a scenes file would not parse
    assert cli.main(["synth", "--out-dir", str(tmp_path), "--seed", "3",
                     "--train-scenes", "2", "--test-scenes", "1"]) == 0
    plain, marked, resaved = (tmp_path / f"{prefix}{name}" for prefix in ("", "bom-", "re-"))
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    save(load(marked), resaved)
    assert resaved.read_bytes() == plain.read_bytes()


def test_unique_returns_the_key_and_names_its_first_line(tmp_path):
    path = tmp_path / "f.txt"
    path.write_text("\na\n  \nb\na\n")
    keys = []
    with pytest.raises(FormatError, match=f"^{path}:5: token 'a' repeats "
                                          f"line 2$"):
        with TextFile(path) as lines:
            for line in lines:
                keys.append(lines.unique("token", line.strip()))
    assert keys == ["a", "b"]


@pytest.mark.parametrize("line", [line for _, line in CASES],
                         ids=[name for name, _ in CASES])
def test_json_line_decodes_as_json_loads(line):
    assert outcome(json_line, line) == outcome(json.loads, line)


@pytest.mark.parametrize("head", ["", " "], ids=["scanner", "fallback"])
def test_json_line_nested_too_deep_is_invalid_json(head):
    with pytest.raises(json.JSONDecodeError, match="^nested too deep: line 1"):
        json_line(head + "[" * 100_000 + "]" * 100_000 + "\n")


def test_written_files_decode_by_the_scanner_alone(tmp_path, monkeypatch):
    assert cli.main(["synth", "--out-dir", str(tmp_path), "--seed", "3",
                     "--train-scenes", "8", "--test-scenes", "4"]) == 0
    labels = corpus.TripletCorpus({("man", "on", "horse"): 2,
                                   ('a "b" \\ c', "caf\u00e9", "\u2028"): 1})
    corpus.save_triplet_file(labels, tmp_path / "labels.jsonl")
    fallbacks, loads = [], json.loads
    monkeypatch.setattr(json, "loads", lambda line: fallbacks.append(line)
                        or loads(line))
    corpus.ingest_triplet_file(tmp_path / "corpus.jsonl")  # synth's corpus
    assert corpus.ingest_triplet_file(tmp_path / "labels.jsonl").counts == \
        labels.counts
    for split in ("train", "test"):  # save_scenes outputs
        assert core.load_scenes(tmp_path / f"{split}.jsonl")
    assert fallbacks == []
    json_line(" {}\n")  # the spy sees a fallback
    assert fallbacks == [" {}\n"]
