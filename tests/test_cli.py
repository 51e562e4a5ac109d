import argparse
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import relkit
from relkit.cli import _load_run_config, build_parser, main


def run(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Synthetic dataset, ORM, and a small trained checkpoint."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert run("synth", "--out-dir", str(data), "--seed", "3",
               "--train-scenes", "8", "--test-scenes", "4",
               "--predicates", "5", "--heldout", "2") == 0
    assert run("build-orm", "--in", str(data / "corpus.jsonl"),
               "--out", str(data / "orm.tsv")) == 0
    ckpt = root / "model.ckpt"
    assert run("train", "--scenes", str(data / "train.jsonl"),
               "--orm", str(data / "orm.tsv"),
               "--vectors", str(data / "vectors.txt"),
               "--objects", str(data / "objects.tsv"),
               "--predicates", str(data / "predicates.tsv"),
               "--out", str(ckpt), "--epochs", "4", "--seed", "3") == 0
    return {"root": root, "data": data, "ckpt": ckpt}


def edited_scenes(ws, path, edit):
    """Write the first test scene, changed in place by `edit`, to `path`."""
    doc = json.loads((ws["data"] / "test.jsonl").read_text().splitlines()[0])
    edit(doc)
    path.write_text(json.dumps(doc) + "\n")
    return str(path)


def edited_train_scenes(ws, path, edit):
    """Write the training scenes, as the list `edit` returns, to `path`."""
    docs = [json.loads(line) for line in
            (ws["data"] / "train.jsonl").read_text().splitlines()]
    path.write_text("".join(json.dumps(doc) + "\n" for doc in edit(docs)))
    return str(path)


# scene-file edits that no model can pack: code and message
UNPACKABLE = [
    (lambda docs: [{**docs[0], "objects": [], "object_features": [],
                    "edges": [], "pair_features": {}}] + docs[1:], 3,
     "scene 0 has no objects"),
    (lambda docs: docs[:2] + [{**docs[2], "object_features": [
        row + [0.0] for row in docs[2]["object_features"]]}] + docs[3:], 2,
     "scene 2: object features have shape (3, 17), expected (3, 16)")]


def model_args(ws, scenes="train.jsonl"):
    data = ws["data"]
    return ["--scenes", str(data / scenes), "--orm", str(data / "orm.tsv"),
            "--vectors", str(data / "vectors.txt"),
            "--objects", str(data / "objects.tsv"),
            "--predicates", str(data / "predicates.tsv")]


class TestParse:
    def test_free_text_extraction(self, tmp_path, capsys):
        infile = tmp_path / "in.txt"
        infile.write_text("a man wearing a helmet. the player dribbling a ball\n")
        out = tmp_path / "out.jsonl"
        assert run("parse", "--in", str(infile), "--out", str(out)) == 0
        assert capsys.readouterr().out.strip() == "2"
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 2
        again = tmp_path / "again.jsonl"  # parse writes what --jsonl reads
        assert run("parse", "--jsonl", "--in", str(out), "--out", str(again)) == 0
        assert again.read_bytes() == out.read_bytes()

    def test_missing_input_is_data_error(self, tmp_path):
        assert run("parse", "--in", str(tmp_path / "nope.txt"),
                   "--out", str(tmp_path / "o.jsonl")) == 3

    def test_non_utf8_text_is_data_error(self, tmp_path, capsys):
        infile = tmp_path / "in.txt"
        infile.write_bytes(b"a man wearing a helmet\na dog \xffon a mat\n")
        assert run("parse", "--in", str(infile),
                   "--out", str(tmp_path / "o.jsonl")) == 3
        assert f"{infile}:2: byte 29: not UTF-8" in capsys.readouterr().err

    def test_min_count_above_one_drops_rare_labels(self, tmp_path, capsys):
        infile = tmp_path / "in.txt"
        infile.write_text("a man wearing a hat\nthe man wearing a hat\n"
                          "a dog near a man\n")
        out = tmp_path / "out.jsonl"
        assert run("parse", "--in", str(infile), "--out", str(out),
                   "--min-count", "2") == 0
        assert capsys.readouterr().out == "2\n"
        assert out.read_text() == ('{"object": "hat", "predicate": "wearing", '
                                   '"subject": "man", "weight": 2}\n')

    @pytest.mark.parametrize("flag, words, text, key", [
        ("--stoplist", "# articles only\nTHE\n\n", "the dog near it\n",
         '"object": "it", "predicate": "near", "subject": "dog"'),
        ("--predicate-lexicon", "upon\n", "a cat upon a mat\n",
         '"object": "mat", "predicate": "upon", "subject": "cat"')],
        ids=["stoplist", "predicate-lexicon"])
    def test_word_list_replaces_the_default(self, tmp_path, capsys, flag,
                                            words, text, key):
        infile, wordlist = tmp_path / "in.txt", tmp_path / "words.txt"
        infile.write_text(text)
        wordlist.write_text(words)  # comments and blanks skipped, lowercased
        out, plain = tmp_path / "out.jsonl", tmp_path / "plain.jsonl"
        assert run("parse", "--in", str(infile), "--out", str(plain)) == 0
        assert run("parse", "--in", str(infile), "--out", str(out),
                   flag, str(wordlist)) == 0
        assert capsys.readouterr().out == "0\n1\n"
        assert plain.read_text() == ""
        assert out.read_text() == "{" + key + ', "weight": 1}\n'

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_min_count_below_one_is_config_error(self, tmp_path, capsys, value):
        out = tmp_path / "o.jsonl"
        # checked before any input is read: the input does not exist
        assert run("parse", "--in", str(tmp_path / "nope.txt"), "--out",
                   str(out), "--min-count", value) == 2
        assert f"--min-count must be >= 1, got {value}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--stoplist", "--predicate-lexicon"])
    def test_grammar_option_with_jsonl_is_config_error(self, tmp_path, capsys,
                                                       flag):
        infile, words = tmp_path / "t.jsonl", tmp_path / "words.txt"
        infile.write_text('{"subject": "a", "predicate": "r", "object": "b"}\n')
        words.write_text("on\n")
        out = tmp_path / "o.jsonl"
        assert run("parse", "--jsonl", "--in", str(infile), "--out", str(out),
                   flag, str(words)) == 2
        assert "--jsonl takes no --stoplist" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", [["parse", "--jsonl"], ["build-orm"]])
    @pytest.mark.parametrize("line", [
        '{"subject": "a", "predicate": "r", "object": "b", "weight": "x"}',
        '{"subject": "a", "predicate": "r", "object": "b", "weight": 1e400}',
        '{"subject": "a", "predicate": "r", "object": "b", "weight": 0}',
        '{"subject": "", "predicate": "r", "object": "b"}',
        '["a", "r", "b"]', '"a r b"',
        '{"subject": "a", "predicate": "r", "object": "b", "weight": 1.9}',
        '{"subject": "a", "predicate": "r", "object": "b", "weight": true}',
        '{"subject": "a", "predicate": "r", "object": "b", "weight": "2"}',
        r'{"subject": "a\tb", "predicate": "on", "object": "c"}',
        r'{"subject": "a", "predicate": "on\nit", "object": "c"}',
        r'{"subject": "a", "predicate": "on", "object": "c\r"}',
        '{"subject": null, "predicate": "r", "object": "b"}',
        '{"subject": "a", "predicate": ["on"], "object": "b"}',
        '{"subject": "a", "predicate": "r", "object": 5}'],
        ids=["weight-string", "weight-inf", "weight-zero", "empty-field",
             "list", "string", "weight-float", "weight-bool",
             "weight-numeric-string", "tab", "newline", "carriage-return",
             "null-field", "list-field", "number-field"])
    def test_malformed_triplet_is_located_data_error(self, tmp_path, capsys,
                                                     command, line):
        infile = tmp_path / "triplets.jsonl"
        infile.write_text('{"subject": "a", "predicate": "r", "object": "b"}\n'
                          + line + "\n")
        assert run(*command, "--in", str(infile),
                   "--out", str(tmp_path / "out")) == 3
        assert f"relkit: error: {infile}:2: " in capsys.readouterr().err


@pytest.mark.parametrize("command", ["build-orm", "parse", "train"])
def test_deep_nesting_is_located_data_error(workspace, tmp_path, capsys,
                                            command):
    bad, out = tmp_path / "deep.jsonl", tmp_path / "out"
    source = "train.jsonl" if command == "train" else "corpus.jsonl"
    first = (workspace["data"] / source).read_text().splitlines()[0]
    bad.write_text(first + "\n\n" + "[" * 100_000 + "]" * 100_000 + "\n")
    args = {"build-orm": ["--in", str(bad)],
            "parse": ["--jsonl", "--in", str(bad)],
            "train": model_args(workspace, scenes=str(bad))}[command]
    assert run(command, *args, "--out", str(out)) == 3
    assert (f"relkit: error: {bad}:3: invalid JSON: nested too deep"
            in capsys.readouterr().err)
    assert not out.exists()


class TestQuery:
    def test_lookup_output(self, workspace, capsys):
        data = workspace["data"]
        # pick a pair straight from the ORM file
        with open(data / "orm.tsv") as fh:
            for line in fh:
                if not line.startswith("#"):
                    subject, obj, predicate, _ = line.split("\t")
                    break
        assert run("query", "--orm", str(data / "orm.tsv"),
                   "--subject", subject, "--object", obj) == 0
        out = capsys.readouterr().out
        assert predicate in out

    def test_unseen_pair_backoff_note(self, workspace, capsys):
        assert run("query", "--orm", str(workspace["data"] / "orm.tsv"),
                   "--subject", "never", "--object", "seen") == 0
        assert "backoff" in capsys.readouterr().out

    def test_unseen_pair_without_backoff_has_no_candidates(self, workspace, capsys):
        # no marginal is given, so the note must not promise one
        assert run("query", "--orm", str(workspace["data"] / "orm.tsv"),
                   "--subject", "never", "--object", "seen", "--no-backoff") == 0
        assert capsys.readouterr().out == "# pair unseen, backoff off: no candidates\n"

    def test_unseen_pair_draw_has_the_backoff_note(self, workspace, capsys):
        orm = str(workspace["data"] / "orm.tsv")
        unseen = ["--orm", orm, "--subject", "never", "--object", "seen", "--top", "3"]
        assert run("query", *unseen) == 0
        note, *marginal = capsys.readouterr().out.splitlines()
        assert run("query", *unseen, "--draw", "2", "--seed", "7") == 0
        drawn = capsys.readouterr().out.splitlines()
        assert drawn[0] == note == "# backoff: pair unseen, global marginal distribution"
        assert len(set(drawn[1:])) == 2
        assert set(drawn[1:]) <= {line.split("\t")[0] for line in marginal}
        # K > M is refused before the note is printed
        assert run("query", *unseen, "--draw", "4", "--seed", "7") == 2
        assert capsys.readouterr().out == ""

    def test_unseen_pair_draw_without_backoff_has_no_candidates(self, workspace, capsys):
        assert run("query", "--orm", str(workspace["data"] / "orm.tsv"),
                   "--subject", "never", "--object", "seen", "--no-backoff",
                   "--draw", "2", "--seed", "7") == 0
        assert capsys.readouterr().out == "# pair unseen, backoff off: no candidates\n"

    def test_draw_without_seed_is_config_error(self, workspace):
        assert run("query", "--orm", str(workspace["data"] / "orm.tsv"),
                   "--subject", "a", "--object", "b", "--draw", "2") == 2

    @pytest.mark.parametrize("draw", [[], ["--draw", "2", "--seed", "7"]],
                             ids=["lookup", "draw"])
    @pytest.mark.parametrize("top", ["0", "-1"])
    def test_top_below_one_is_config_error(self, workspace, capsys, top, draw):
        assert run("query", "--orm", str(workspace["data"] / "orm.tsv"),
                   "--subject", "a", "--object", "b", "--top", top, *draw) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--top must be >= 1, got {top}" in captured.err

    def test_draw_prints_k_of_the_top_m(self, tmp_path, capsys):
        triplets, orm = tmp_path / "t.jsonl", tmp_path / "orm.tsv"
        triplets.write_text("".join(
            f'{{"subject": "man", "predicate": "{r}", "object": "horse", '
            f'"weight": {w}}}\n'
            for r, w in (("riding", 4), ("on", 3), ("near", 2), ("feeding", 1))))
        assert run("build-orm", "--in", str(triplets), "--out", str(orm)) == 0
        capsys.readouterr()
        draws = []
        for _ in range(2):
            assert run("query", "--orm", str(orm), "--subject", "man",
                       "--object", "horse", "--top", "3", "--draw", "2",
                       "--seed", "7") == 0
            draws.append(capsys.readouterr().out)
        assert draws[0] == draws[1]
        drawn = draws[0].splitlines()
        assert len(set(drawn)) == 2 and set(drawn) <= {"riding", "on", "near"}

    @pytest.mark.parametrize("flags, message", [
        (["--draw", "0", "--seed", "7"],
         "--draw 0 --top 10 --seed 7: K and M must satisfy 1 <= K <= M, got K = 0, M = 10"),
        (["--draw", "5", "--top", "3", "--seed", "7"],
         "--draw 5 --top 3 --seed 7: K and M must satisfy 1 <= K <= M, got K = 5, M = 3"),
    ], ids=["draw-0", "draw-above-top"])
    def test_refused_draw_names_the_flags(self, workspace, capsys, flags, message):
        assert run("query", "--orm", str(workspace["data"] / "orm.tsv"),
                   "--subject", "a", "--object", "b", *flags) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"relkit: error: {message}\n"

    def test_negative_seed_is_config_error(self, workspace, capsys):
        # random.Random(-1) would draw what random.Random(1) draws
        assert run("query", "--orm", str(workspace["data"] / "orm.tsv"),
                   "--subject", "a", "--object", "b", "--draw", "2",
                   "--seed", "-1") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "seed must be >= 0, got -1" in captured.err

    @pytest.mark.parametrize("text, where, message", [
        ("#total 0\n", 1, "expected '#total\\t<n>' header"),
        ("#total\t0\na\tb\ton\t0\n", 2, "count must be >= 1"),
        ("#total\t6\nman\thorse\triding\t2\nman\thorse\ton\t1\n\n"
         "man\thorse\triding\t3\n", 5,
         "triplet ('man', 'horse', 'riding') repeats line 2"),
        ("#total\tx\n", 1, "expected '#total\\t<n>' header"),
        ("#total\t1.0\n", 1, "expected '#total\\t<n>' header"),
        ("#total\t1\na\tb\tr\tx\n", 2,
         "expected 'subject<TAB>object<TAB>predicate<TAB>count'")],
        ids=["header", "count", "repeated-triplet", "header-count-not-integer",
             "header-count-float", "count-not-integer"])
    def test_bad_orm_file_is_located_data_error(self, tmp_path, capsys, text,
                                                where, message):
        orm = tmp_path / "orm.tsv"
        orm.write_text(text)
        assert run("query", "--orm", str(orm),
                   "--subject", "a", "--object", "b") == 3
        assert f"relkit: error: {orm}:{where}: {message}" \
            in capsys.readouterr().err

    def test_non_utf8_orm_is_data_error(self, workspace, tmp_path, capsys):
        bad = tmp_path / "orm.tsv"
        bad.write_bytes((workspace["data"] / "orm.tsv").read_bytes() + b"\xff\n")
        assert run("query", "--orm", str(bad),
                   "--subject", "a", "--object", "b") == 3
        assert "not UTF-8" in capsys.readouterr().err


class TestEmbed:
    def test_known_phrase(self, workspace, capsys):
        assert run("embed", "--vectors",
                   str(workspace["data"] / "vectors.txt"),
                   "--phrase", "relaa relab") == 0
        values = capsys.readouterr().out.split()
        assert len(values) == 8

    def test_all_oov_lenient_is_zero_vector_with_note(self, workspace, capsys):
        assert run("embed", "--vectors",
                   str(workspace["data"] / "vectors.txt"),
                   "--phrase", "zzz qqq", "--lenient") == 0
        captured = capsys.readouterr()
        assert captured.out == " ".join(["0.0"] * 8) + "\n"
        assert "all tokens out of vocabulary; zero vector" in captured.err

    def test_oov_strict_is_data_error(self, workspace):
        assert run("embed", "--vectors",
                   str(workspace["data"] / "vectors.txt"),
                   "--phrase", "zzz") == 3

    @pytest.mark.parametrize("text, where, message", [
        ("a 1.0 2.0\nb 1.0 nan\n", ":2", "non-finite entry"),
        ("a\nb 1.0\n", ":1", "empty vector"),
        ("", "", "empty embedding file"),
        ("\n \n", "", "empty embedding file"),
        ("a 1.0 2.0\nb 1.0 2.0\na 5.0 6.0\n", ":3", "token 'a' repeats line 1")],
        ids=["non-finite", "empty-vector", "empty-file", "blank-file",
             "repeated-token"])
    def test_bad_vectors_file_is_located_data_error(self, tmp_path, capsys,
                                                    text, where, message):
        vectors = tmp_path / "vectors.txt"
        vectors.write_text(text)
        assert run("embed", "--vectors", str(vectors), "--phrase", "a") == 3
        assert f"relkit: error: {vectors}{where}: {message}" \
            in capsys.readouterr().err


class TestSynthCommand:
    def test_writes_all_artifacts(self, workspace):
        data = workspace["data"]
        for name in ("train.jsonl", "test.jsonl", "vectors.txt",
                     "objects.tsv", "predicates.tsv", "corpus.jsonl",
                     "heldout.txt"):
            assert (data / name).exists(), name
        heldout = (data / "heldout.txt").read_text().split()
        assert len(heldout) == 2

    @pytest.mark.parametrize("flag, value", [
        ("--objects", "0"), ("--predicates", "0"), ("--heldout", "-1"),
        ("--train-scenes", "-1"), ("--test-scenes", "-1")])
    def test_count_out_of_range_is_config_error(self, tmp_path, capsys, flag,
                                                value):
        out = tmp_path / "data"
        assert run("synth", "--out-dir", str(out), flag, value) == 2
        assert "relkit: error: " in capsys.readouterr().err
        assert not (out / "train.jsonl").exists()

    def test_negative_seed_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "data"
        assert run("synth", "--out-dir", str(out), "--seed", "-1") == 2
        assert "seed must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["-1", "-1e-09"])
    def test_negative_sigma_is_config_error(self, tmp_path, capsys, value):
        out = tmp_path / "data"
        assert run("synth", "--out-dir", str(out), f"--sigma={value}") == 2
        assert f"sigma = {float(value)}" in capsys.readouterr().err
        assert not out.exists()

    def test_same_seed_byte_identical(self, tmp_path):
        for sub in ("a", "b"):
            assert run("synth", "--out-dir", str(tmp_path / sub),
                       "--seed", "11", "--train-scenes", "3",
                       "--test-scenes", "1") == 0
        for name in ("train.jsonl", "test.jsonl", "vectors.txt",
                     "objects.tsv", "predicates.tsv", "corpus.jsonl"):
            assert (tmp_path / "a" / name).read_bytes() \
                == (tmp_path / "b" / name).read_bytes(), name


class TestTrain:
    def test_reruns_byte_identical(self, workspace, tmp_path, capsys):
        args = model_args(workspace) + ["--epochs", "3", "--seed", "5"]
        outs = []
        for name in ("a.ckpt", "b.ckpt"):
            path = tmp_path / name
            assert run("train", *args, "--out", str(path)) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert (tmp_path / "a.ckpt").read_bytes() \
            == (tmp_path / "b.ckpt").read_bytes()

    def test_head_is_sized_from_its_inputs(self, tmp_path, capsys):
        # d and e are the widths synth wrote, not the config defaults 16 and
        # 8; the classifier covers the 5 trained predicates, not all 7 labels
        cfgfile = tmp_path / "synth.cfg"
        cfgfile.write_text("d = 12\ne = 6\n")
        data = tmp_path / "data"
        assert run("synth", "--config", str(cfgfile), "--out-dir", str(data),
                   "--seed", "3", "--train-scenes", "8", "--test-scenes", "2",
                   "--predicates", "5", "--heldout", "2") == 0
        assert run("build-orm", "--in", str(data / "corpus.jsonl"),
                   "--out", str(data / "orm.tsv")) == 0
        ws = {"data": data}
        ckpt = tmp_path / "model.ckpt"
        assert run("train", *model_args(ws), "--epochs", "2",
                   "--out", str(ckpt)) == 0
        assert ckpt.read_text().splitlines()[1] == "dims 12 4 6 8 5"
        assert run("eval", *model_args(ws), "--checkpoint", str(ckpt)) == 0
        assert "R@50" in capsys.readouterr().out

    def test_config_value_holds_unless_its_flag_is_given(self, workspace,
                                                        tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("epochs = 3\n")
        args = [*model_args(workspace), "--config", str(cfgfile),
                "--out", str(tmp_path / "x.ckpt")]
        for flags, epochs in [([], 3), (["--epochs", "1"], 1)]:
            assert run("train", *args, *flags) == 0
            assert capsys.readouterr().out.count("epoch\t") == epochs

    def test_negative_seed_is_config_error(self, workspace, tmp_path, capsys):
        assert run("train", *model_args(workspace), "--seed", "-5",
                   "--out", str(tmp_path / "x.ckpt")) == 2
        assert "seed must be >= 0, got -5" in capsys.readouterr().err
        assert not (tmp_path / "x.ckpt").exists()

    def test_workers_flag_is_usage_error(self, workspace, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run("train", *model_args(workspace), "--workers", "4",
                "--out", str(tmp_path / "x.ckpt"), "--epochs", "1")
        assert exc.value.code == 2

    def test_missing_scenes_is_data_error(self, workspace, tmp_path):
        args = model_args(workspace)
        args[1] = str(tmp_path / "missing.jsonl")
        assert run("train", *args, "--out", str(tmp_path / "x.ckpt"),
                   "--epochs", "1") == 3

    def test_missing_object_features_is_data_error(self, workspace, tmp_path,
                                                   capsys):
        args = model_args(workspace)
        args[1] = edited_scenes(workspace, tmp_path / "s.jsonl",
                                lambda doc: doc.pop("object_features"))
        assert run("train", *args, "--out", str(tmp_path / "x.ckpt"),
                   "--epochs", "1") == 3
        assert f"{args[1]}:1: scene has 3 objects but no object_features" \
            in capsys.readouterr().err
        assert not (tmp_path / "x.ckpt").exists()


    def test_predicate_without_vector_is_data_error(self, workspace, tmp_path,
                                                    capsys):
        scene = json.loads((workspace["data"] / "train.jsonl").read_text()
                           .splitlines()[0])
        label = (workspace["data"] / "predicates.tsv").read_text() \
            .splitlines()[scene["edges"][0][2]].split("\t")[0]
        vectors = tmp_path / "vectors.txt"
        vectors.write_text("".join(
            row for row in (workspace["data"] / "vectors.txt").read_text()
            .splitlines(keepends=True) if row.split()[0] != label))
        args = model_args(workspace)
        args[args.index("--vectors") + 1] = str(vectors)
        tail = ["--epochs", "1"]
        # a zero target has no cosine loss: refused before training
        assert run("train", *args, *tail, "--out", str(tmp_path / "x.ckpt")) == 3
        assert f"relkit: error: {args[1]}: scene 0: no embeddable token in " \
            f"phrase: {label!r}" in capsys.readouterr().err
        assert not (tmp_path / "x.ckpt").exists()
        # without the cosine loss the lenient zero target still trains
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("lambda3 = 0\n")
        assert run("train", *args, *tail, "--config", str(cfgfile),
                   "--out", str(tmp_path / "y.ckpt")) == 0
        assert (tmp_path / "y.ckpt").exists()

    def test_edge_without_pair_feature_names_file_and_scene(
            self, workspace, tmp_path, capsys):
        lines = (workspace["data"] / "train.jsonl").read_text().splitlines()
        second = json.loads(lines[1])
        s, o, _ = second["edges"][-1]
        del second["pair_features"][f"{s},{o}"]
        args = model_args(workspace)
        args[1] = str(tmp_path / "s.jsonl")
        (tmp_path / "s.jsonl").write_text(lines[0] + "\n" + json.dumps(second)
                                          + "\n")
        assert run("train", *args, "--epochs", "1",
                   "--out", str(tmp_path / "x.ckpt")) == 2
        assert f"relkit: error: {args[1]}: scene 1: edge ({s},{o}) has no " \
            f"ingested pair feature" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, code, message", [
        *UNPACKABLE, (lambda docs: [], 2, "training requires a non-empty dataset"),
        (lambda docs: [{**doc, "object_features": [[] for _ in doc["object_features"]]}
                       for doc in docs], 2, "dimension d must be >= 1")],
        ids=["no-objects", "wide-features", "empty-file", "zero-width-features"])
    def test_packing_error_names_the_scenes_file(self, workspace, tmp_path,
                                                 capsys, edit, code, message):
        args = model_args(workspace)
        args[1] = edited_train_scenes(workspace, tmp_path / "s.jsonl", edit)
        assert run("train", *args, "--epochs", "1",
                   "--out", str(tmp_path / "x.ckpt")) == code
        assert capsys.readouterr().err == \
            f"relkit: error: {args[1]}: {message}\n"
        assert not (tmp_path / "x.ckpt").exists()

    def test_divergence_is_numeric_error(self, workspace, tmp_path, capsys):
        out = tmp_path / "x.ckpt"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run("train", *model_args(workspace), "--epochs", "5",
                       "--learning-rate", "1e100", "--out", str(out)) == 4
        # the typed error alone: no numpy overflow warnings before it
        assert [w for w in caught if w.category is RuntimeWarning] == []
        assert capsys.readouterr().err == "relkit: error: training diverged " \
            "at epoch 1: non-finite values in edge representations\n"
        assert not out.exists()


class TestEval:
    def test_table_output(self, workspace, capsys):
        assert run("eval", *model_args(workspace),
                   "--checkpoint", str(workspace["ckpt"])) == 0
        out = capsys.readouterr().out
        assert "R@50" in out and "R@100" in out

    def test_tsv_output_deterministic(self, workspace, tmp_path):
        args = model_args(workspace) + [
            "--checkpoint", str(workspace["ckpt"]), "--format", "tsv"]
        for name in ("m1.tsv", "m2.tsv"):
            assert run("eval", *args, "--out", str(tmp_path / name)) == 0
        b1 = (tmp_path / "m1.tsv").read_bytes()
        assert b1 == (tmp_path / "m2.tsv").read_bytes()
        assert b"generated" not in b1  # no timestamps unless asked

    def test_timestamps_flag_adds_header(self, workspace, tmp_path):
        out = tmp_path / "m.tsv"
        assert run("eval", *model_args(workspace),
                   "--checkpoint", str(workspace["ckpt"]),
                   "--format", "tsv", "--timestamps",
                   "--out", str(out)) == 0
        assert out.read_text().startswith("# generated ")

    def test_sgcls_protocol_runs(self, workspace, capsys):
        assert run("eval", *model_args(workspace),
                   "--checkpoint", str(workspace["ckpt"]),
                   "--protocol", "sgcls") == 0
        assert "R@50" in capsys.readouterr().out

    def test_ablation_all_off_runs(self, workspace, tmp_path, capsys):
        ckpt = tmp_path / "off.ckpt"
        assert run("train", *model_args(workspace), "--ablation", "all-off",
                   "--epochs", "4", "--seed", "3", "--out", str(ckpt)) == 0
        assert run("eval", *model_args(workspace), "--checkpoint", str(ckpt)) == 0
        assert "R@50" in capsys.readouterr().out

    def test_checkpoint_switches_score_the_trained_network(self, tmp_path,
                                                          capsys):
        # the README world: scored under other switches, the all-off head
        # reads R@50 0.073333
        data = tmp_path / "data"
        assert run("synth", "--out-dir", str(data), "--seed", "42",
                   "--predicates", "10", "--heldout", "3") == 0
        assert run("build-orm", "--in", str(data / "corpus.jsonl"),
                   "--out", str(tmp_path / "orm.tsv")) == 0
        args = ["--scenes", str(data / "train.jsonl"),
                "--orm", str(tmp_path / "orm.tsv"),
                "--vectors", str(data / "vectors.txt"),
                "--objects", str(data / "objects.tsv"),
                "--predicates", str(data / "predicates.tsv")]
        ckpt = tmp_path / "off.ckpt"
        assert run("train", *args, "--epochs", "200", "--ablation", "all-off",
                   "--out", str(ckpt)) == 0
        # the head is sized for the 10 trained predicates, not the 13 labels
        assert ckpt.read_text().splitlines()[1:4] == [
            "dims 16 4 8 8 10", "lambdas 1.0 1.0 1.0", "toggles 0 0 0 0 1"]
        capsys.readouterr()
        assert run("eval", *args, "--checkpoint", str(ckpt),
                   "--format", "tsv") == 0
        assert "R@50\t1.000000\n" in capsys.readouterr().out

    def test_micro_flag_wins_over_the_config_file(self, workspace, tmp_path,
                                                  capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("micro_recall = false\n")
        args = [*model_args(workspace), "--checkpoint", str(workspace["ckpt"])]
        args[1] = edited_train_scenes(  # one 1-edge scene: micro != macro
            workspace, tmp_path / "s.jsonl",
            lambda docs: [{**docs[0], "edges": docs[0]["edges"][:1]}] + docs[1:])
        parsed = build_parser().parse_args(["eval", *args, "--config", str(cfgfile),
                                            "--micro"])
        assert _load_run_config(parsed).micro_recall is True
        assert run("eval", *args, "--micro") == 0
        micro = capsys.readouterr().out
        cfgfile.write_text("micro_recall = true\n")
        assert run("eval", *args, "--config", str(cfgfile)) == 0
        assert capsys.readouterr().out == micro
        assert run("eval", *args) == 0
        assert capsys.readouterr().out != micro

    @pytest.mark.parametrize("flag", [["--ablation", "all-off"],
                                      ["--seed", "1"]], ids=["ablation", "seed"])
    @pytest.mark.parametrize("command", ["eval", "zeroshot"])
    def test_training_flag_is_usage_error(self, workspace, capsys, command,
                                          flag):
        extra = ["--labels", str(workspace["data"] / "heldout.txt")] \
            if command == "zeroshot" else []
        with pytest.raises(SystemExit) as exc:
            run(command, *model_args(workspace), *extra,
                "--checkpoint", str(workspace["ckpt"]), *flag)
        assert exc.value.code == 2
        assert f"relkit: error: unrecognized arguments: {' '.join(flag)}" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("setting", ["k_candidates = 0",
                                         "k_candidates = -1",
                                         "m_candidates = 0"])
    def test_k_or_m_below_one_is_config_error(self, workspace, tmp_path,
                                              capsys, setting):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(setting + "\n")
        assert run("eval", *model_args(workspace), "--config", str(cfgfile),
                   "--checkpoint", str(workspace["ckpt"])) == 2
        assert "1 <= K <= M" in capsys.readouterr().err

    @pytest.mark.parametrize("protocol", ["predcls", "sgcls"])
    def test_missing_object_features_is_data_error(self, workspace, tmp_path,
                                                   capsys, protocol):
        args = model_args(workspace)
        args[1] = edited_scenes(workspace, tmp_path / "s.jsonl",
                                lambda doc: doc.pop("object_features"))
        assert run("eval", *args, "--checkpoint", str(workspace["ckpt"]),
                   "--protocol", protocol) == 3
        assert f"{args[1]}:1: scene has 3 objects but no object_features" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["eval"], ["zeroshot", "--labels"]])
    def test_wrong_feature_width_names_the_scene(self, workspace, tmp_path,
                                                 capsys, command):
        lines = (workspace["data"] / "test.jsonl").read_text().splitlines()
        doc = json.loads(lines[2])
        for row in doc["object_features"]:
            row.append(0.5)
        lines[2] = json.dumps(doc)
        args = model_args(workspace)
        args[1] = str(tmp_path / "s.jsonl")
        (tmp_path / "s.jsonl").write_text("\n".join(lines) + "\n")
        if command[0] == "zeroshot":
            command = command + [str(workspace["data"] / "heldout.txt")]
        assert run(*command, *args, "--checkpoint", str(workspace["ckpt"])) == 2
        assert "scene 2: object features have shape" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, name, extend, message", [
        ("--vectors", "vectors.txt", lambda rows: [row + " 0.5" for row in rows],
         "embedding table width 9 != e = 8"),
        ("--objects", "objects.tsv", lambda rows: rows + ["objzz\t1"],
         "object vocabulary size 9 != n_object_labels = 8")],
        ids=["vectors", "objects"])
    @pytest.mark.parametrize("orm", ["empty", "real"])
    @pytest.mark.parametrize("command", ["eval", "zeroshot"])
    def test_vectors_wider_than_checkpoint_is_config_error(
            self, workspace, tmp_path, capsys, command, orm, flag, name,
            extend, message):
        # one column more than the checkpoint's e, or one label more than
        # its object classes
        rows = (workspace["data"] / name).read_text().splitlines()
        (tmp_path / name).write_text("".join(row + "\n" for row in extend(rows)))
        args = model_args(workspace, "test.jsonl")
        args[args.index(flag) + 1] = str(tmp_path / name)
        if orm == "empty":
            (tmp_path / "orm.tsv").write_text("#total\t0\n")
            args[args.index("--orm") + 1] = str(tmp_path / "orm.tsv")
        extra = ["--labels", str(workspace["data"] / "heldout.txt")] \
            if command == "zeroshot" else []
        assert run(command, *args, *extra,
                   "--checkpoint", str(workspace["ckpt"])) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("relkit: error: --vectors ")
        vectors, objects = (args[args.index(f) + 1] for f in ("--vectors", "--objects"))
        assert captured.err == f"relkit: error: --vectors {vectors}, --objects {objects}, " \
                               f"--checkpoint {workspace['ckpt']}: {message}\n"

    def test_bad_checkpoint_is_data_error(self, workspace, tmp_path):
        bad = tmp_path / "bad.ckpt"
        bad.write_text("garbage\n")
        assert run("eval", *model_args(workspace),
                   "--checkpoint", str(bad)) == 3

    def test_ragged_object_features_is_data_error(self, workspace, tmp_path,
                                                  capsys):
        def drop_a_value(doc):
            doc["object_features"][1].pop()
        args = model_args(workspace)
        args[1] = edited_scenes(workspace, tmp_path / "s.jsonl", drop_a_value)
        assert run("eval", *args, "--checkpoint", str(workspace["ckpt"])) == 3
        assert f"{args[1]}:1: object_features rows differ in length" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("protocol", ["predcls", "sgcls"])
    def test_object_label_outside_vocabulary_is_config_error(
            self, workspace, tmp_path, capsys, protocol):
        args = model_args(workspace, "test.jsonl")
        if protocol == "predcls":  # caught when the scenes are loaded
            def relabel(doc):
                doc["objects"][0]["label"] = 99
            message = r": scene 0 object 0: label 99 outside the 8 labels of "
        else:  # the classifier's 8 labels are not a 1-label vocabulary
            def relabel(doc):
                for obj in doc["objects"]:
                    obj["label"] = 0
            objects = tmp_path / "objects.tsv"
            objects.write_text((workspace["data"] / "objects.tsv")
                               .read_text().splitlines()[0] + "\n")
            args[args.index("--objects") + 1] = str(objects)
            message = r"object vocabulary size 1 != n_object_labels = 8\n"
        args[1] = edited_scenes(workspace, tmp_path / "s.jsonl", relabel)
        assert run("eval", *args, "--checkpoint", str(workspace["ckpt"]),
                   "--protocol", protocol) == 2
        err = capsys.readouterr().err
        assert re.search(message, err)
        if protocol == "sgcls":  # the size mismatch names the files behind it
            vectors = args[args.index("--vectors") + 1]
            assert f"relkit: error: --vectors {vectors}, --objects {objects}, " \
                   f"--checkpoint {workspace['ckpt']}: object vocabulary" in err

    @pytest.mark.parametrize("header",
                             ["tensor", "tensor W_r 3 x", "tensor W_r -1 -1"])
    def test_bad_tensor_header_is_data_error(self, workspace, tmp_path, capsys,
                                             header):
        lines = workspace["ckpt"].read_text().splitlines()
        assert lines[4].startswith("tensor ")
        lines[4] = header
        bad = tmp_path / "bad.ckpt"
        bad.write_text("\n".join(lines) + "\n")
        assert run("eval", *model_args(workspace),
                   "--checkpoint", str(bad)) == 3
        assert f"{bad}:5: bad tensor header" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, where, message", [
        (lambda lines: ["RELKIT-CKPT 1"] + lines[1:3] + lines[4:],
         ":1", "not a RELKIT-CKPT 2 checkpoint"),
        (lambda lines: lines[:3] + ["toggles 1 1 1 1"] + lines[4:],
         ":4", "need five 0/1 ablation switches"),
        (lambda lines: lines[:3] + ["toggles 1 1 2 1 1"] + lines[4:],
         ":4", "need five 0/1 ablation switches")],
        ids=["version-1", "four-switches", "switch-2"])
    def test_bad_version_or_switches_is_located_data_error(
            self, workspace, tmp_path, capsys, edit, where, message):
        bad = tmp_path / "bad.ckpt"
        bad.write_text("\n".join(edit(workspace["ckpt"].read_text()
                                      .splitlines())) + "\n")
        assert run("eval", *model_args(workspace),
                   "--checkpoint", str(bad)) == 3
        assert f"relkit: error: {bad}{where}: {message}" \
            in capsys.readouterr().err


    @pytest.mark.parametrize("edit, where, message", [
        (lambda lines: lines[:max(i for i, line in enumerate(lines)
                                  if line.startswith("tensor "))],
         "", "tensor set mismatch: missing={'b_txt'} extra=set()"),
        (lambda lines: [("tensor b_o 2 4" if line == "tensor b_o 8" else line)
                        for line in lines],
         "", "b_o: shape (2, 4), expected (8,)"),
        (lambda lines: lines[:2] + ["lambdas 1.0 -1.0 1.0"] + lines[3:],
         "", "loss weights must be >= 0"),
        (lambda lines: lines[:2] + ["lambdas nan 1.0 1.0"] + lines[3:],
         "", "loss weights must be >= 0"),
        (lambda lines: lines[:2] + ["lambdas 1.0 inf 1.0"] + lines[3:],
         "", "loss weights must be >= 0"),
        (lambda lines: lines[:2] + ["lambdas 1.0 1.0"] + lines[3:],
         ":3", "need three loss weights"),
        (lambda lines: lines[:1] + ["toggles" + lines[1][len("dims"):]]
         + lines[2:], ":2", "expected a dims line"),
        (lambda lines: lines[:1] + [lines[1].replace("dims 16 ", "dims 0 ")]
         + lines[2:], ":2", "dimension d must be >= 1"),
        # two copies of the 9-line b_o block (header and 8 values) up front
        (lambda lines: lines[:4] + 2 * lines[lines.index("tensor b_o 8"):][:9]
         + lines[4:], ":14", "tensor 'b_o' repeats line 5")],
        ids=["missing-tensor", "wrong-shape", "negative-weight", "nan-weight",
             "inf-weight", "two-weights", "swapped-header", "zero-width", "repeated-tensor"])
    def test_bad_checkpoint_is_located_data_error(self, workspace, tmp_path,
                                                  capsys, edit, where, message):
        bad = tmp_path / "bad.ckpt"
        bad.write_text("\n".join(edit(workspace["ckpt"].read_text()
                                      .splitlines())) + "\n")
        assert run("eval", *model_args(workspace),
                   "--checkpoint", str(bad)) == 3
        assert f"relkit: error: {bad}{where}: {message}" \
            in capsys.readouterr().err


class TestZeroshot:
    def test_ranking_output(self, workspace, tmp_path, capsys):
        labels = tmp_path / "labels.txt"
        labels.write_text("relaa\nrelab\nrelac\nrelad\nrelae\n")
        assert run("zeroshot", *model_args(workspace),
                   "--checkpoint", str(workspace["ckpt"]),
                   "--labels", str(labels), "--topk", "1,3") == 0
        out = capsys.readouterr().out
        assert "top1_accuracy\t" in out and "top3_accuracy\t" in out

    @pytest.mark.parametrize("topk, message", [
        ("5,x", "--topk takes integers >= 1, got 'x'"),
        ("0", "--topk takes integers >= 1, got '0'"),
        ("3,-1", "--topk takes integers >= 1, got '-1'"),
        ("1,1", "--topk repeats a k: '1,1'"),
        ("\u0661", "--topk takes integers >= 1, got '\u0661'"),
        ("3,\uff11", "--topk takes integers >= 1, got '\uff11'")],
        ids=["5,x", "0", "3,-1", "1,1", "arabic-indic", "fullwidth"])
    def test_bad_topk_is_config_error(self, workspace, tmp_path, capsys, topk,
                                      message):
        labels = tmp_path / "labels.txt"
        labels.write_text("relaa\nrelab\n")
        # checked before any file is read: the scenes file does not exist
        args = model_args(workspace, "missing.jsonl")
        assert run("zeroshot", *args, "--checkpoint", str(workspace["ckpt"]),
                   "--labels", str(labels), "--topk", topk) == 2
        assert capsys.readouterr().err == f"relkit: error: {message}\n"

    def test_edge_without_pair_feature_is_config_error(self, workspace,
                                                       tmp_path, capsys):
        def drop_pair(doc):
            s, o, _ = doc["edges"][-1]
            del doc["pair_features"][f"{s},{o}"]
        args = model_args(workspace)
        args[1] = edited_scenes(workspace, tmp_path / "s.jsonl", drop_pair)
        labels = tmp_path / "labels.txt"
        labels.write_text("relaa\nrelab\n")
        assert run("zeroshot", *args, "--checkpoint", str(workspace["ckpt"]),
                   "--labels", str(labels), "--topk", "1") == 2
        assert re.search(re.escape(f"relkit: error: {args[1]}: scene 0: edge (")
                         + r"\d+,\d+\) has no ingested pair feature",
                         capsys.readouterr().err)

    def test_late_failure_leaves_no_output_file(self, workspace, tmp_path):
        lines = (workspace["data"] / "test.jsonl").read_text().splitlines()
        second = json.loads(lines[1])
        s, o, _ = second["edges"][-1]
        del second["pair_features"][f"{s},{o}"]
        scenes = tmp_path / "s.jsonl"
        scenes.write_text(lines[0] + "\n" + json.dumps(second) + "\n")
        args = model_args(workspace)
        args[1] = str(scenes)
        labels = tmp_path / "labels.txt"
        labels.write_text("relaa\nrelab\n")
        out = tmp_path / "zs.tsv"
        assert run("zeroshot", *args, "--checkpoint", str(workspace["ckpt"]),
                   "--labels", str(labels), "--topk", "1",
                   "--out", str(out)) == 2
        assert not out.exists()

    @pytest.mark.parametrize("text, message", [
        ("", "no labels"),  # what synth writes with --heldout 0
        ("relaa\nzzz\n", "no embeddable token in phrase: 'zzz'")])
    def test_bad_labels_file_is_data_error(self, workspace, tmp_path, capsys,
                                           text, message):
        labels = tmp_path / "heldout.txt"
        labels.write_text(text)
        assert run("zeroshot", *model_args(workspace),
                   "--checkpoint", str(workspace["ckpt"]),
                   "--labels", str(labels), "--topk", "1") == 3
        assert f"relkit: error: {labels}: {message}" in capsys.readouterr().err

    def test_empty_scenes_file_is_numeric_error(self, workspace, tmp_path,
                                                capsys):
        """A scenes file with no scene, or with scenes that hold no edge,
        leaves nothing to score; both commands name it."""
        lines = (workspace["data"] / "test.jsonl").read_text().splitlines()
        edgeless = [json.dumps({**json.loads(line), "edges": [],
                                "pair_features": {}}) + "\n" for line in lines]
        for name, text in (("empty", ""), ("edgeless", "".join(edgeless))):
            scenes = tmp_path / f"{name}.jsonl"
            scenes.write_text(text)
            args = model_args(workspace)
            args[1] = str(scenes)
            out = tmp_path / "zs.tsv"
            assert run("zeroshot", *args, "--checkpoint", str(workspace["ckpt"]),
                       "--labels", str(workspace["data"] / "heldout.txt"),
                       "--topk", "5", "--out", str(out)) == 4
            assert capsys.readouterr().err == f"relkit: error: {scenes}: top-k " \
                "accuracy undefined: no edge was scored\n"
            assert not out.exists()
            assert run("eval", *args, "--checkpoint", str(workspace["ckpt"])) == 4
            assert capsys.readouterr().err == f"relkit: error: {scenes}: recall " \
                "undefined for empty ground truth\n"

    def test_repeated_label_is_located_data_error(self, workspace, tmp_path,
                                                  capsys):
        labels = tmp_path / "labels.txt"
        labels.write_text("unseenrelaa\nunseenrelab\nunseenrelaa\n")
        out = tmp_path / "zs.tsv"
        assert run("zeroshot", *model_args(workspace),
                   "--checkpoint", str(workspace["ckpt"]),
                   "--labels", str(labels), "--topk", "1",
                   "--out", str(out)) == 3
        assert capsys.readouterr().err == f"relkit: error: {labels}:3: label " \
            f"'unseenrelaa' repeats line 1\n"
        assert not out.exists()

    @pytest.mark.parametrize("text, where, first", [
        ("unseenrelaa\n\nunseenrelab\nunseenrelaa\n", 4, 1),
        ("unseenrelab\nunseenrelaa\n  unseenrelaa \t\n", 3, 2)],
        ids=["after-blank-line", "padded"])
    def test_repeat_is_named_at_its_file_line(self, workspace, tmp_path,
                                              capsys, text, where, first):
        labels = tmp_path / "labels.txt"
        labels.write_text(text)
        assert run("zeroshot", *model_args(workspace),
                   "--checkpoint", str(workspace["ckpt"]),
                   "--labels", str(labels), "--topk", "1") == 3
        assert capsys.readouterr().err == f"relkit: error: {labels}:{where}: " \
            f"label 'unseenrelaa' repeats line {first}\n"

    def test_non_utf8_labels_is_data_error(self, workspace, tmp_path):
        labels = tmp_path / "labels.txt"
        labels.write_bytes(b"relaa\nrel\xe9b\n")
        assert run("zeroshot", *model_args(workspace),
                   "--checkpoint", str(workspace["ckpt"]),
                   "--labels", str(labels), "--topk", "1") == 3


def change_first_edge(obj=None, predicate=None):
    """A scene edit that gives the first edge a new object ("self": its
    subject) and that pair a pair feature, or a new predicate id."""
    def edit(doc):
        edge = doc["edges"][0]
        if obj is not None:
            edge[1] = edge[0] if obj == "self" else obj
            doc["pair_features"][f"{edge[0]},{edge[1]}"] = [0.0] * 16
        if predicate is not None:
            edge[2] = predicate
    return edit


# Scene defects that reach every model command, with the exit code and the
# message after the scene path. The synthetic predicate vocabulary has 7
# labels, the object vocabulary 8, and each scene has 3 objects.
SCENE_DEFECTS = {
    "predicate-beyond-vocabulary": (
        change_first_edge(predicate=7), 2,
        r": scene 0 edge 0: predicate id 7 outside the 7 labels of "),
    "negative-predicate": (
        change_first_edge(predicate=-1), 3,
        r":1: edge 0: \[\d, \d, -1\] needs .* a predicate id >= 0"),
    "edge-out-of-range": (
        change_first_edge(obj=9), 3,
        r":1: edge 0: \[\d, 9, \d\] needs two distinct objects in \[0, 3\)"),
    "self-loop": (
        change_first_edge(obj="self"), 3,
        r":1: edge 0: \[(\d), \1, \d\] needs two distinct objects"),
    "duplicate-pair": (
        lambda doc: doc["edges"].append(doc["edges"][0][:2] + [0]), 3,
        r":1: two edges join the same \(subject, object\) pair"),
    "object-label-beyond-vocabulary": (
        lambda doc: doc["objects"][0].update(label=10 ** 20), 2,
        r": scene 0 object 0: label 10{20} outside the 8 labels of "),
    "pair-feature-key-out-of-range": (
        lambda doc: doc["pair_features"].update({"0,9": [0.0] * 16}), 3,
        r":1: pair_features key 0,9: not two distinct objects in \[0, 3\)"),
}


@pytest.mark.parametrize("defect", sorted(SCENE_DEFECTS))
@pytest.mark.parametrize("command", ["train", "eval", "zeroshot"])
def test_scene_defect_is_located_error(workspace, tmp_path, capsys, command,
                                       defect):
    edit, code, message = SCENE_DEFECTS[defect]
    args = model_args(workspace)
    args[1] = edited_scenes(workspace, tmp_path / "s.jsonl", edit)
    labels = tmp_path / "labels.txt"
    labels.write_text("relaa\nrelab\n")
    extra = {"train": ["--out", str(tmp_path / "x.ckpt"), "--epochs", "1"],
             "eval": ["--checkpoint", str(workspace["ckpt"])],
             "zeroshot": ["--checkpoint", str(workspace["ckpt"]),
                          "--labels", str(labels), "--topk", "1"]}[command]
    assert run(command, *args, *extra) == code
    err = capsys.readouterr().err
    assert re.search(re.escape(f"relkit: error: {args[1]}") + message, err), err


@pytest.mark.parametrize("command", ["train", "eval", "zeroshot"])
def test_strict_oov_orm_phrase_fails_before_training(workspace, tmp_path,
                                                     capsys, command):
    """Under strict OOV, a top-M phrase without a vector is an error before
    epoch 0, even one that only a draw could pick; it names the ORM file,
    the label pair and the phrase."""
    data = workspace["data"]
    scene = json.loads((data / "train.jsonl").read_text().splitlines()[0])
    names = [line.split("\t")[0] for line in
             (data / "objects.tsv").read_text().splitlines()]
    s, o, _ = scene["edges"][0]
    pair = (names[scene["objects"][s]["label"]], names[scene["objects"][o]["label"]])
    # train: count 1 ranks it last, in the top M but outside inference's top K
    count = 1 if command == "train" else 1000
    total, *rows = (data / "orm.tsv").read_text().splitlines(keepends=True)
    orm = tmp_path / "orm.tsv"
    orm.write_text(f"#total\t{int(total.split()[1]) + count}\n" + "".join(rows)
                   + f"{pair[0]}\t{pair[1]}\tzzzoov\t{count}\n")
    assert sum(row.startswith(f"{pair[0]}\t{pair[1]}\t") for row in rows) >= 1
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("strict_oov = true\nk_candidates = 1\n")
    args = model_args(workspace)
    args[args.index("--orm") + 1] = str(orm)
    labels = tmp_path / "labels.txt"
    labels.write_text("relaa\nrelab\n")
    ckpt = tmp_path / "x.ckpt"
    extra = {"train": ["--out", str(ckpt), "--epochs", "1"],
             "eval": ["--checkpoint", str(workspace["ckpt"])],
             "zeroshot": ["--checkpoint", str(workspace["ckpt"]),
                          "--labels", str(labels), "--topk", "1"]}[command]
    assert run(command, *args, *extra, "--config", str(cfgfile)) == 3
    out, err = capsys.readouterr()
    assert err == f"relkit: error: {orm}: label pair {pair}: no embeddable " \
        f"token in phrase: 'zzzoov'\n"
    assert out == "" and not ckpt.exists()


@pytest.mark.parametrize("which", ["scenes", "out"])
def test_directory_for_a_file_is_data_error(workspace, tmp_path, capsys,
                                            which):
    args = model_args(workspace) + ["--out", str(tmp_path / "x.ckpt"),
                                    "--epochs", "1"]
    args[args.index(f"--{which}") + 1] = str(tmp_path)
    assert run("train", *args) == 3
    assert "relkit: error: " in capsys.readouterr().err


class TestReport:
    def test_splits_and_synonyms(self, workspace, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("longtail_threshold = 10\n")
        assert run("report", "--config", str(cfgfile),
                   "--predicates", str(workspace["data"] / "predicates.tsv"),
                   "--vectors", str(workspace["data"] / "vectors.txt")) == 0
        out = capsys.readouterr().out
        assert "#longtail_threshold\t10" in out
        assert "rare" in out

    def test_warning_is_one_relkit_line_each_run(self, workspace, tmp_path,
                                                 capsys):
        predicates = tmp_path / "predicates.tsv"
        predicates.write_text("relaa\t3\nzzz qqq\t2\n")
        for _ in range(2):
            assert run("report", "--predicates", str(predicates),
                       "--vectors", str(workspace["data"] / "vectors.txt")) == 0
            assert capsys.readouterr().err == "relkit: warning: skipping " \
                "out-of-vocabulary label: 'zzz qqq'\n"

    @pytest.mark.parametrize("key", ["not_a_key", "workers",
                                     "zeroshot_temperature"])
    def test_unknown_config_key_is_data_error(self, workspace, tmp_path,
                                              capsys, key):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"{key} = 4\n")
        assert run("report", "--config", str(cfgfile),
                   "--predicates", str(workspace["data"] / "predicates.tsv"),
                   "--vectors", str(workspace["data"] / "vectors.txt")) == 3
        assert f":1: unknown key {key!r}" in capsys.readouterr().err

    def test_dimension_below_one_is_config_error(self, workspace, tmp_path,
                                                 capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("d = 0\n")
        assert run("report", "--config", str(cfgfile),
                   "--predicates", str(workspace["data"] / "predicates.tsv"),
                   "--vectors", str(workspace["data"] / "vectors.txt")) == 2
        # checked once the whole file is read, as every setting is
        assert f"relkit: error: {cfgfile}: dimensions must be >= 1" \
            in capsys.readouterr().err

    def test_invalid_config_combination_is_config_error(self, workspace,
                                                        tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("m_candidates = 2\nk_candidates = 5\n")
        assert run("report", "--config", str(cfgfile),
                   "--predicates", str(workspace["data"] / "predicates.tsv"),
                   "--vectors", str(workspace["data"] / "vectors.txt")) == 2

    @pytest.mark.parametrize("line", [
        "synonym_threshold = nan", "sigma = -inf"])
    def test_non_finite_value_is_config_error(
            self, workspace, tmp_path, capsys, line):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(line + "\n")
        assert run("report", "--config", str(cfgfile),
                   "--predicates", str(workspace["data"] / "predicates.tsv"),
                   "--vectors", str(workspace["data"] / "vectors.txt")) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert line.split(" =")[0] in captured.err

    def test_non_utf8_predicates_is_data_error(self, workspace, tmp_path,
                                                capsys):
        predicates = tmp_path / "predicates.tsv"
        predicates.write_bytes(
            (workspace["data"] / "predicates.tsv").read_bytes() + b"\xff\t1\n")
        assert run("report", "--predicates", str(predicates),
                   "--vectors", str(workspace["data"] / "vectors.txt")) == 3
        assert "not UTF-8" in capsys.readouterr().err


def command_args(ws, tmp_path, command):
    """Everything but --config that `command` needs; synth and train would
    write tmp_path/data and tmp_path/x."""
    data, ckpt = ws["data"], str(ws["ckpt"])
    return {"synth": ["--out-dir", str(tmp_path / "data")],
            "train": [*model_args(ws), "--out", str(tmp_path / "x")],
            "eval": [*model_args(ws), "--checkpoint", ckpt],
            "zeroshot": [*model_args(ws), "--checkpoint", ckpt,
                         "--labels", str(data / "heldout.txt")],
            "report": ["--predicates", str(data / "predicates.tsv"),
                       "--vectors", str(data / "vectors.txt")]}[command]


@pytest.mark.parametrize("line", [
    "epochs = -1", "learning_rate = -0.5", "seed = -1",
    "longtail_threshold = 0"])
@pytest.mark.parametrize("command", ["synth", "train", "eval", "zeroshot",
                                     "report"])
def test_invalid_config_is_config_error_at_load(workspace, tmp_path, capsys,
                                                command, line):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(line + "\n")
    tail = command_args(workspace, tmp_path, command)
    assert run(command, "--config", str(cfgfile), *tail) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"relkit: error: {cfgfile}: {line.split(' =')[0]} must be" \
        in captured.err or f"relkit: error: {cfgfile}: epochs and learning " \
        f"rate must be >= 0" in captured.err
    assert not (tmp_path / "data").exists() and not (tmp_path / "x").exists()


@pytest.mark.parametrize("command", ["synth", "train", "eval", "zeroshot",
                                     "report"])
def test_removed_temperature_key_is_unknown_at_load(workspace, tmp_path,
                                                    capsys, command):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("epochs = 3\nzeroshot_temperature = 1\n")
    tail = command_args(workspace, tmp_path, command)
    assert run(command, "--config", str(cfgfile), *tail) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == \
        f"relkit: error: {cfgfile}:2: unknown key 'zeroshot_temperature'\n"
    assert not (tmp_path / "data").exists() and not (tmp_path / "x").exists()


@pytest.mark.parametrize("command", ["synth", "train", "eval", "zeroshot",
                                     "report"])
def test_repeated_config_key_is_located_data_error(workspace, tmp_path,
                                                   capsys, command):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("epochs = 5\n\nepochs = 7\n")
    tail = command_args(workspace, tmp_path, command)
    assert run(command, "--config", str(cfgfile), *tail) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == \
        f"relkit: error: {cfgfile}:3: key 'epochs' repeats line 1\n"
    assert not (tmp_path / "data").exists() and not (tmp_path / "x").exists()


@pytest.mark.parametrize("edit, code, message", UNPACKABLE,
                         ids=["no-objects", "wide-features"])
@pytest.mark.parametrize("command", ["eval", "zeroshot"])
def test_scoring_packing_error_names_the_scenes_file(
        workspace, tmp_path, capsys, command, edit, code, message):
    tail = command_args(workspace, tmp_path, command)
    scenes = edited_train_scenes(workspace, tmp_path / "s.jsonl", edit)
    tail[tail.index("--scenes") + 1] = scenes
    assert run(command, *tail, "--out", str(tmp_path / "out")) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"relkit: error: {scenes}: {message}\n"
    assert not (tmp_path / "out").exists()


# every integer flag; synth's size flags set SynthConfig fields
INTEGER_FLAGS = [("parse", "--min-count"), ("query", "--top"), ("query", "--draw"),
                 ("query", "--seed"), ("train", "--seed"), ("train", "--epochs"),
                 *(("synth", flag) for flag in (
                     "--objects", "--predicates", "--heldout", "--train-scenes",
                     "--test-scenes", "--objects-per-scene", "--edges-per-scene",
                     "--seed"))]


@pytest.mark.parametrize("value", ["1_0", "\u0661"], ids=["underscore", "arabic-indic"])
@pytest.mark.parametrize("command, flag", INTEGER_FLAGS,
                         ids=[" ".join(flag) for flag in INTEGER_FLAGS])
def test_integer_flag_takes_ascii_digits_only(workspace, tmp_path, capsys, command,
                                              flag, value):
    # int() reads both as an integer; the flag refuses them before any file is read
    tail = {"parse": ["--in", str(tmp_path / "in.txt"), "--out", str(tmp_path / "out")],
            "query": ["--orm", str(tmp_path / "orm.tsv"), "--subject", "a",
                      "--object", "b"]}
    tail = tail.get(command) or command_args(workspace, tmp_path, command)
    with pytest.raises(SystemExit) as exc:
        run(command, *tail, flag, value)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(
        f"relkit {command}: error: argument {flag}: invalid integer value: {value!r}\n")
    assert list(tmp_path.iterdir()) == []


SUBCOMMANDS = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)).choices


# the long options of each subcommand, without --help: 68 in all
LONG_OPTIONS = {"parse": 6, "build-orm": 2, "query": 7, "embed": 3, "synth": 11,
                "train": 11, "eval": 12, "zeroshot": 11, "report": 5}


def _value(action):
    """A value the option parses, or None for a flag that takes none."""
    if action.nargs == 0:
        return None
    return action.choices[0] if action.choices else "1"


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_flags_match_by_full_name_only(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)  # a prefix that parsed would run the command
    parser = SUBCOMMANDS[command]
    with pytest.raises(SystemExit) as exc:
        run(command, "--help")
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: relkit {command} ")
    required = [word for a in parser._actions if a.required
                for word in (a.option_strings[0], _value(a))]
    options = {option: _value(action) for option, action
               in parser._option_string_actions.items()
               if option.startswith("--") and option != "--help"}
    assert len(options) == LONG_OPTIONS[command]
    for option, value in options.items():
        short = option[:-1]
        if short in options:
            continue
        spellings = [[short]] if value is None else [[short, value],
                                                     [f"{short}={value}"]]
        for spelling in spellings:
            with pytest.raises(SystemExit) as exc:
                run(command, *required, *spelling)
            assert exc.value.code == 2, spelling
            assert f"relkit: error: unrecognized arguments: {' '.join(spelling)}\n" \
                in capsys.readouterr().err, spelling


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("command", ["query", "zeroshot"])
def test_closed_stdout_ends_with_status_0_and_no_stderr(workspace, tmp_path, command,
                                                        unbuffered):
    # `relkit query ... | head -0`: the reader closed the pipe before the first line
    data = workspace["data"]
    argv = {"query": ["--orm", str(data / "orm.tsv"), "--subject", "objaa",
                      "--object", "objab"],
            "zeroshot": command_args(workspace, tmp_path, "zeroshot")}[command]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(relkit.__file__).parents[1])
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "relkit.cli", command, *argv],
                              stdout=write_end, stderr=subprocess.PIPE, env=env,
                              timeout=120)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr.decode()) == (0, "")
