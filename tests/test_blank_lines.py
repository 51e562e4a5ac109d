"""One blank-line rule for every input file: `TextFile` skips lines that
hold only whitespace, and a later error still names its physical line."""

import pytest

from relkit.cli import main
from relkit.config import load_config, load_vocab
from relkit.core import load_scenes, scene_to_dict
from relkit.corpus import ingest_triplet_file, load_wordlist
from relkit.embed import load_embeddings
from relkit.errors import RelkitError
from relkit.orm import load_orm
from relkit.relhead import load_params

BLANKS = {"empty": "\n", "spaces": "   \n", "tab": "\t\n"}


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """Every input kind, written by relkit itself where it writes one."""
    data = tmp_path_factory.mktemp("blank")
    assert main(["synth", "--out-dir", str(data), "--seed", "4",
                 "--train-scenes", "6", "--test-scenes", "3",
                 "--predicates", "4", "--heldout", "2"]) == 0
    assert main(["build-orm", "--in", str(data / "corpus.jsonl"),
                 "--out", str(data / "orm.tsv")]) == 0
    assert main(["train", *model_args(data, "train.jsonl"), "--epochs", "1",
                 "--out", str(data / "model.ckpt")]) == 0
    (data / "run.cfg").write_text("# settings\nepochs = 3\n"
                                  "learning_rate = 0.25  # halved\nseed = 2\n")
    (data / "words.txt").write_text("# stop words\nThe\na\nof\n")
    (data / "captions.txt").write_text("A man riding a horse.\n"
                                       "the dog sitting on a mat\n")
    return data


def model_args(data, scenes="test.jsonl"):
    return ["--scenes", str(data / scenes), "--orm", str(data / "orm.tsv"),
            "--vectors", str(data / "vectors.txt"),
            "--objects", str(data / "objects.tsv"),
            "--predicates", str(data / "predicates.tsv")]


def zeroshot_output(labels, data):
    """The ranking `zeroshot` writes for a label file."""
    out = labels.with_suffix(".out")
    assert main(["zeroshot", *model_args(data), "--checkpoint",
                 str(data / "model.ckpt"), "--labels", str(labels),
                 "--topk", "1,2", "--out", str(out)]) == 0
    return out.read_text()


def parse_output(captions, _):
    """The triplet file `parse` writes for a caption file."""
    out = captions.with_suffix(".jsonl")
    assert main(["parse", "--in", str(captions), "--out", str(out)]) == 0
    return out.read_text()


def params_of(path, _):
    params = load_params(path)
    return (params.dims, params.lambdas,
            {name: t.tolist() for name, t in params.tensors.items()})


def tensor_positions(lines):
    """Before the magic line, before the dims, between the first tensor's
    header and its values, among its values, and between two tensors."""
    second = [i for i, line in enumerate(lines) if line.startswith("tensor ")][1]
    return [0, 1, 4, 5, second]


# kind: file name; loader(path, world) giving a comparable result; the
# indices at which a blank line goes in; a line that fails where it stands
KINDS = {
    "vocabulary": ("predicates.tsv", lambda p, _: load_vocab(p),
                   lambda lines: [0, 2, len(lines)], "x\n"),
    "orm": ("orm.tsv", lambda p, _: load_orm(p).pair_counts,
            lambda lines: [0, 1, 3, len(lines)], "a\tb\n"),
    "vectors": ("vectors.txt",
                lambda p, _: {t: v.tolist() for t, v in
                              load_embeddings(p).vectors.items()},
                lambda lines: [0, 2, len(lines)], "tok 1.0\n"),
    "checkpoint": ("model.ckpt", params_of, tensor_positions, "garbage\n"),
    "scenes": ("test.jsonl",
               lambda p, _: [scene_to_dict(s) for s in load_scenes(p)],
               lambda lines: [0, 1, len(lines)], "{\n"),
    "triplets": ("corpus.jsonl", lambda p, _: ingest_triplet_file(p).counts,
                 lambda lines: [0, 2, len(lines)], "{\n"),
    "captions": ("captions.txt", parse_output,
                 lambda lines: [0, 1, len(lines)], None),
    "config": ("run.cfg", lambda p, _: load_config(p),
               lambda lines: [0, 1, 2, len(lines)], "garbage\n"),
    "wordlist": ("words.txt", lambda p, _: load_wordlist(p),
                 lambda lines: [0, 1, 2, len(lines)], None),
    "labels": ("heldout.txt", zeroshot_output,
               lambda lines: [0, 1, len(lines)], None),
}


def write(path, lines):
    path.write_text("".join(lines))
    return path


@pytest.mark.parametrize("blank", sorted(BLANKS))
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_blank_line_loads_like_none(world, tmp_path, kind, blank):
    name, load, positions, _ = KINDS[kind]
    lines = (world / name).read_text().splitlines(keepends=True)
    expected = load(write(tmp_path / f"plain-{name}", lines), world)
    for at in positions(lines):
        with_blank = lines[:at] + [BLANKS[blank]] + lines[at:]
        assert load(write(tmp_path / f"{at}-{name}", with_blank), world) \
            == expected, at


@pytest.mark.parametrize("kind", sorted(k for k in KINDS if KINDS[k][3]))
def test_later_error_names_its_physical_line(world, tmp_path, kind):
    name, load, _, bad = KINDS[kind]
    lines = (world / name).read_text().splitlines(keepends=True)
    lines = ["\n", " \t\n"] + lines + ["   \n", bad]
    path = write(tmp_path / name, lines)
    with pytest.raises(RelkitError, match=f"^{path}:{len(lines)}: "):
        load(path, world)
