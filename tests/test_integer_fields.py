"""One integer rule for every integer field of an input file: ASCII
`-?[0-9]+`. Python's int() also reads `1_0`, ` +10 ` and `١٠` (Arabic-Indic
digits) as 10; a loader refuses each at its line, and a negative value still
reaches the field's own range check."""

import json

import pytest

from relkit import errors
from relkit.config import load_config, load_vocab
from relkit.core import load_scenes
from relkit.errors import ConfigError, FormatError
from relkit.orm import load_orm
from relkit.relhead import Dims, init_params, load_params, save_params

SPELLINGS = {"underscore": "1_0", "padded-sign": " +10 ", "arabic-indic": "١٠"}


def checkpoint(path, start):
    """A checkpoint of 10 predicate labels with {v} for the 10 that ends the
    line that starts with `start`, and that line's number."""
    save_params(init_params(Dims(6, 2, 3, 4, 10), seed=0), path)
    lines = path.read_text().splitlines(keepends=True)
    at = next(i for i, line in enumerate(lines) if line.startswith(start))
    lines[at] = lines[at].replace(" 10\n", " {v}\n")
    return "".join(lines), at + 1


def not_an_integer(value):  # a config value is stripped, a checkpoint's split
    return f"{value.strip()!r} is not an integer"


SCENE = json.dumps({"objects": [{"label": 0, "box": [0, 0, 1, 1]}] * 11,
                    "object_features": [[1.0]] * 11, "edges": [[10, 0, 0]],
                    "pair_features": {"{v},0": [1.0]}}) + "\n"

# field: (file name, loader, template with {v} where the 10 goes and its line,
# or the line a checkpoint's starts with, the refusal's wording after
# `path:line: ` given the value, and a negative value's error and wording)
FIELDS = {
    "orm-header": ("orm.tsv", load_orm, "#total\t{v}\na\tb\tr\t10\n", 1,
                   lambda _: "expected '#total\\t<n>' header",
                   (FormatError, "declared total -1 != summed counts 10")),
    "orm-row": ("orm.tsv", load_orm, "#total\t10\na\tb\tr\t{v}\n", 2,
                lambda _: "expected 'subject<TAB>object<TAB>predicate<TAB>count'",
                (FormatError, "count must be >= 1")),
    "vocabulary": ("objects.tsv", load_vocab, "dog\t3\ncat\t{v}\n", 2,
                   lambda _: "expected 'label<TAB>count'",
                   (FormatError, "count -1 must be >= 0")),
    "config": ("run.cfg", load_config, "seed = 1\nepochs = {v}  # passes\n", 2,
               not_an_integer,
               (ConfigError, "epochs and learning rate must be >= 0")),
    "scene-pair-key": ("scenes.jsonl", load_scenes, SCENE, 1,
                       lambda v: f"malformed scene document: {v!r} is not an integer",
                       (FormatError, "key -1,0: not two distinct objects in \\[0, 11\\)")),
    "checkpoint-dims": ("model.ckpt", load_params, "dims ", None,
                        not_an_integer,
                        (FormatError, "dimension n_predicate_labels must be >= 1")),
    "checkpoint-shape": ("model.ckpt", load_params, "tensor b_r ", None,
                         lambda v: f"bad tensor header: 'tensor b_r {v.rstrip()}'",
                         (FormatError, "bad tensor header: 'tensor b_r -1'")),
}


def write(tmp_path, field, value):
    name, _, template, line, *_ = FIELDS[field]
    path = tmp_path / name
    if name == "model.ckpt":
        template, line = checkpoint(path, template)
    path.write_text(template.replace("{v}", value))
    return path, line


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_ascii_digits_load(tmp_path, field):
    path, _ = write(tmp_path, field, "10")
    FIELDS[field][1](path)


@pytest.mark.parametrize("spelling", sorted(SPELLINGS))
@pytest.mark.parametrize("field", sorted(FIELDS))
def test_other_spellings_are_refused_at_their_line(tmp_path, field, spelling):
    value = SPELLINGS[spelling]
    path, line = write(tmp_path, field, value)
    wording = FIELDS[field][4](value)
    with pytest.raises(FormatError) as refused:
        FIELDS[field][1](path)
    assert str(refused.value) == f"{path}:{line}: {wording}"
    assert refused.value.exit_code == 3


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_negative_value_reaches_its_range_check(tmp_path, field):
    path, _ = write(tmp_path, field, "-1")
    error, wording = FIELDS[field][5]
    with pytest.raises(error, match=wording) as refused:
        FIELDS[field][1](path)
    assert refused.value.exit_code == error.exit_code


@pytest.mark.parametrize("text", ["0", "-0", "7", "-12", "007"])
def test_integer_reads_ascii_digits(text):
    assert errors.integer(text) == int(text)


@pytest.mark.parametrize("text", ["", "-", "+1", " 1", "1 ", "1_0", "1.0",
                                  "١", "²", "--1", "1\n"])
def test_integer_refuses_everything_else(text):
    with pytest.raises(ValueError, match="is not an integer"):
        errors.integer(text)
