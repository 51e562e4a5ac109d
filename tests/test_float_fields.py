"""One float rule for every float field of an input file and every float
flag: ASCII text with no `_`, as Python's float() reads it. float() also reads
`1_0` as 10, `١` (an Arabic-Indic digit) as 1 and `１.5` (a fullwidth digit)
as 1.5; a loader refuses each at its line in float's own words, and a flag
before any file is read."""

import math

import pytest

from relkit import errors
from relkit.cli import main
from relkit.config import load_config
from relkit.embed import load_embeddings
from relkit.errors import FormatError
from relkit.relhead import Dims, init_params, load_params, save_params

SPELLINGS = {"underscore": "1_0", "arabic-indic": "١", "fullwidth": "１.5"}


def checkpoint(path, start, below, new):
    """A checkpoint whose line `below` lines under the one that starts with
    `start` is `new`, and that line's number."""
    save_params(init_params(Dims(6, 2, 3, 4, 5), seed=0), path)
    lines = path.read_text().splitlines(keepends=True)
    at = below + next(i for i, line in enumerate(lines) if line.startswith(start))
    lines[at] = new
    return "".join(lines), at + 1


# field: (file name, loader, template with {v} where a 1.5 goes and its line,
# or a checkpoint's edit, and the value the loaded object reads back)
FIELDS = {
    "vectors": ("vectors.txt", load_embeddings, "cat 0.5 2\ndog {v} 2\n", 2,
                lambda table: table.vectors["dog"][0]),
    "config-learning-rate": ("run.cfg", load_config, "seed = 1\nlearning_rate = {v}\n",
                             2, lambda cfg: cfg.learning_rate),
    "config-sigma": ("run.cfg", load_config, "sigma = {v}  # noise\n", 1,
                     lambda cfg: cfg.sigma),
    "checkpoint-lambdas": ("model.ckpt", load_params,
                           ("lambdas ", 0, "lambdas {v} 1.0 1.0\n"), None,
                           lambda params: params.lambdas[0]),
    "checkpoint-value": ("model.ckpt", load_params, ("tensor b_r ", 1, "{v}\n"), None,
                         lambda params: params.tensors["b_r"][0]),
}


def write(tmp_path, field, value):
    name, _, template, line, _ = FIELDS[field]
    path = tmp_path / name
    if name == "model.ckpt":
        template, line = checkpoint(path, *template)
    path.write_text(template.replace("{v}", value))
    return path, line


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_ascii_text_loads(tmp_path, field):
    path, _ = write(tmp_path, field, "1.5")
    assert FIELDS[field][4](FIELDS[field][1](path)) == 1.5


@pytest.mark.parametrize("spelling", sorted(SPELLINGS))
@pytest.mark.parametrize("field", sorted(FIELDS))
def test_other_spellings_are_refused_at_their_line(tmp_path, field, spelling):
    value = SPELLINGS[spelling]
    path, line = write(tmp_path, field, value)
    text = value + "\n" if field == "checkpoint-value" else value  # a whole line
    with pytest.raises(FormatError) as refused:
        FIELDS[field][1](path)
    assert str(refused.value) == \
        f"{path}:{line}: could not convert string to float: {text!r}"
    assert refused.value.exit_code == 3


@pytest.mark.parametrize("command, flag", [("train", "--learning-rate"),
                                           ("synth", "--sigma")],
                         ids=["train --learning-rate", "synth --sigma"])
@pytest.mark.parametrize("spelling", sorted(SPELLINGS))
def test_float_flag_refuses_other_spellings(tmp_path, capsys, command, flag, spelling):
    # refused before any file is read or written: no train input exists
    value = SPELLINGS[spelling]
    names = ["out-dir"] if command == "synth" else [
        "scenes", "orm", "vectors", "objects", "predicates", "out"]
    with pytest.raises(SystemExit) as exc:
        main([command, *(word for name in names
                         for word in (f"--{name}", str(tmp_path / name))), flag, value])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        f"relkit {command}: error: argument {flag}: invalid real value: {value!r}\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("text", ["1.5", "-0.5", "1e-3", "2E+5", " 7 ", "1\n",
                                  "inf", "-Infinity"])
def test_real_reads_what_float_reads_in_ascii(text):
    assert errors.real(text) == float(text)


def test_real_reads_nan_for_the_finiteness_checks():
    assert math.isnan(errors.real("nan"))


@pytest.mark.parametrize("text", ["", "x", "1_0", "1_0.5", "١", "١.5", "１.5", "1.٥"])
def test_real_refuses_everything_else_in_floats_words(text):
    with pytest.raises(ValueError) as refused:
        errors.real(text)
    assert str(refused.value) == f"could not convert string to float: {text!r}"
