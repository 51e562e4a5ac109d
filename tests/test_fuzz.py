"""Seeded fuzz of every file that `train`, `eval` and `zeroshot` read, of
the triplet file that `parse --jsonl` and `build-orm` read, and of the
`--config` file, which `report` reads too.

Each case mutates one input file (truncation, one flipped bit, a few
deleted bytes, a duplicated line or a line replaced by a JSON value of
another kind) and runs the commands that read it through `relkit.cli.main`,
in-process. A command may succeed on a mutated file, but it may fail only
with a typed error: exit code 2, 3 or 4 and a `relkit: error:` line on
stderr, never an escaped exception.
"""

import numpy as np
import pytest

from relkit.cli import main

MUTATIONS_PER_FILE = 24
JSON_VALUES = [b'"x"', b"[0]", b"1e400", b"{}"]
TARGETS = ["scenes", "orm", "vectors", "objects", "predicates", "checkpoint",
           "triplets", "labels", "config"]
# the commands that read a target; the others are read by train, eval, zeroshot
READERS = {"checkpoint": ["eval", "zeroshot"], "triplets": ["parse", "build-orm"],
           "labels": ["zeroshot"], "config": ["train", "eval", "zeroshot", "report"]}
# every setting at its default value, so only a mutation changes a run
CONFIG = """# run config
learning_rate = 0.5
m_candidates = 10
k_candidates = 5
seed = 0
orm_backoff = true
strict_oov = no
object_attention = 1
r = 4
lambda3 = 1.0
sigma = 0.1
synonym_threshold = 0.6
longtail_threshold = 1024
"""


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """A small synthetic world, its ORM, a checkpoint, a label file and a
    config file."""
    root = tmp_path_factory.mktemp("fuzz")
    assert main(["synth", "--out-dir", str(root), "--seed", "5",
                 "--train-scenes", "6", "--test-scenes", "1",
                 "--predicates", "5"]) == 0
    assert main(["build-orm", "--in", str(root / "corpus.jsonl"),
                 "--out", str(root / "orm.tsv")]) == 0
    files = {"scenes": root / "train.jsonl", "orm": root / "orm.tsv",
             "vectors": root / "vectors.txt", "objects": root / "objects.tsv",
             "predicates": root / "predicates.tsv",
             "checkpoint": root / "model.ckpt", "labels": root / "labels.txt",
             "triplets": root / "corpus.jsonl", "config": root / "run.cfg"}
    files["config"].write_text(CONFIG)
    assert main(["train", *model_args(files), "--out", str(files["checkpoint"]),
                 "--epochs", "2"]) == 0
    files["labels"].write_text("relaa\nrelab\nrelac\n")
    return files


def model_args(files):
    return [arg for name in ("config", "scenes", "orm", "vectors", "objects",
                             "predicates")
            for arg in (f"--{name}", str(files[name]))]


def mutate(data: bytes, rng: np.random.Generator) -> bytes:
    at = int(rng.integers(len(data)))
    kind = int(rng.integers(5))
    if kind == 0:  # truncation
        return data[:at]
    if kind == 1:  # one flipped bit
        return data[:at] + bytes([data[at] ^ 1 << int(rng.integers(8))]) \
            + data[at + 1:]
    if kind == 2:  # up to 8 deleted bytes
        return data[:at] + data[at + int(rng.integers(1, 9)):]
    lines = data.splitlines(keepends=True)
    i = int(rng.integers(len(lines)))
    if kind == 3:  # a duplicated line
        return b"".join(lines[:i + 1] + lines[i:])
    value = JSON_VALUES[int(rng.integers(len(JSON_VALUES)))]  # a foreign value
    return b"".join(lines[:i] + [value + b"\n"] + lines[i + 1:])


@pytest.mark.parametrize("target", TARGETS)
def test_mutated_input_fails_with_typed_error(world, tmp_path, capsys, target):
    rng = np.random.default_rng(TARGETS.index(target))
    original = world[target].read_bytes()
    commands = READERS.get(target, ["train", "eval", "zeroshot"])
    escapes = []
    for case in range(MUTATIONS_PER_FILE):
        files = dict(world)
        files[target] = tmp_path / f"{case}-{world[target].name}"
        files[target].write_bytes(mutate(original, rng))
        out = str(tmp_path / "out")
        argv = {"parse": ["--jsonl", "--in", str(files["triplets"]), "--out", out],
                "build-orm": ["--in", str(files["triplets"]), "--out", out],
                "train": [*model_args(files), "--out", out, "--epochs", "2"],
                "eval": [*model_args(files), "--checkpoint", str(files["checkpoint"])],
                "zeroshot": [*model_args(files),
                             "--checkpoint", str(files["checkpoint"]),
                             "--labels", str(files["labels"]), "--topk", "1"],
                "report": ["--config", str(files["config"]), "--predicates",
                           str(files["predicates"]), "--vectors", str(files["vectors"])]}
        for command in commands:
            try:
                code = main([command, *argv[command]])
            except Exception as exc:  # any escape is the failure
                escapes.append(f"{files[target]} {command}: {exc!r}")
                continue
            err = capsys.readouterr().err
            if code not in (0, 2, 3, 4) or (code and "relkit: error: " not in err):
                escapes.append(f"{files[target]} {command}: exit {code}, {err!r}")
    assert not escapes, "\n".join(escapes)
