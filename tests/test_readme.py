"""Runs the README's CLI walkthrough as written and checks what it makes.

The walkthrough is the `sh` block under "## CLI walkthrough". Its `relkit`
lines run in order through `relkit.cli.main`, in one temporary directory.
Besides them the block may hold only two shell forms, which this module
performs itself: `cat > f <<'EOF'` (a heredoc) and `cat a b > c`. Any other
line fails, so the block also runs unchanged in a shell:

    python tests/test_readme.py > walkthrough.sh
    bash -euo pipefail walkthrough.sh   # in an empty directory
"""

import contextlib
import io
import os
import re
import shlex
from pathlib import Path

import pytest

from relkit.cli import main
from relkit.config import load_vocab
from relkit.core import load_scenes
from relkit.orm import load_orm

README = Path(__file__).resolve().parents[1] / "README.md"


def walkthrough() -> str:
    """The `sh` block under the README's "CLI walkthrough" heading."""
    section = README.read_text().split("\n## CLI walkthrough\n", 1)[1]
    return re.match(r"\s*```sh\n(.*?)^```", section, re.S | re.M).group(1)


def steps(block):
    """(words, heredoc body or None) per command: `\\` continuations joined,
    blank and comment lines skipped."""
    lines = iter(block.splitlines())
    for line in lines:
        while line.endswith("\\"):
            line = line[:-1] + next(lines)
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        words = shlex.split(line)
        if words[-1] == "<<EOF":  # the body runs up to the EOF line
            yield words[:-1], "".join(f"{body}\n" for body in
                                      iter(lines.__next__, "EOF"))
        else:
            yield words, None


def run_step(words, body):
    """Perform one step in the current directory; a `relkit` step returns
    its stdout and must exit 0."""
    if words[0] == "relkit":
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(words[1:])
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
        assert code == 0, f"{shlex.join(words)}: exit {code}\n{err.getvalue()}"
        return out.getvalue()
    if body is not None and words[:2] == ["cat", ">"] and len(words) == 3:
        Path(words[2]).write_text(body)
    elif body is None and words[0] == "cat" and len(words) > 3 \
            and words[-2] == ">" and ">" not in words[1:-2]:
        Path(words[-1]).write_bytes(b"".join(Path(name).read_bytes()
                                             for name in words[1:-2]))
    else:
        pytest.fail(f"unsupported walkthrough line: {shlex.join(words)}")


def option(words, flag):
    return words[words.index(flag) + 1]


@pytest.fixture(scope="module")
def walk(tmp_path_factory):
    """The directory the walkthrough ran in, and (words, stdout) of each of
    its `relkit` steps."""
    root, cwd = tmp_path_factory.mktemp("readme"), os.getcwd()
    os.chdir(root)
    try:
        ran = [(words, run_step(words, body))
               for words, body in steps(walkthrough())]
    finally:
        os.chdir(cwd)
    return root, [(words[1:], out) for words, out in ran if words[0] == "relkit"]


def runs(walk, command):
    return [(words, out) for words, out in walk[1] if words[0] == command]


def test_query_prints_the_text_pair(walk):
    outs = {"--draw" in words: out for words, out in runs(walk, "query")}
    assert outs == {False: "riding\t1\n", True: "riding\n"}


def test_synth_corpus_holds_the_training_edges(walk):
    [out] = [out for words, out in runs(walk, "build-orm")
             if option(words, "--in") == "data/corpus.jsonl"]
    assert out.endswith("total\t150\n")


def test_checkpoints_record_their_head(walk):
    root, _ = walk
    heads = {"--ablation" in words: (root / option(words, "--out")).read_text()
             .splitlines()[1:4] for words, _ in runs(walk, "train")}
    assert heads.keys() == {False, True}
    assert heads[False][0] == "dims 16 4 8 8 10"
    assert heads[True][2] == "toggles 0 0 0 0 1"


def test_every_trained_head_recalls(walk):
    recall = {}
    for words, out in runs(walk, "eval"):
        rows = dict(line.split() for line in out.splitlines())
        recall[option(words, "--checkpoint")] = float(rows["R@50"])
    trained = {option(words, "--out") for words, _ in runs(walk, "train")}
    assert recall.keys() == trained
    assert min(recall.values()) >= 0.9, recall


def test_zeroshot_ranks_heldout_labels(walk):
    [(_, out)] = runs(walk, "zeroshot")
    assert float(re.search(r"^top1_accuracy\t(.*)$", out, re.M)[1]) >= 0.9


def test_training_orm_holds_every_training_pair(walk):
    root, _ = walk
    for words, _ in runs(walk, "train"):
        labels = load_vocab(root / option(words, "--objects")).labels
        pairs = load_orm(root / option(words, "--orm")).pair_counts
        missing = {(labels[scene.graph.objects[s][0]],
                    labels[scene.graph.objects[o][0]])
                   for scene in load_scenes(root / option(words, "--scenes"))
                   for s, o, _ in scene.graph.edges} - pairs.keys()
        assert not missing, f"{option(words, '--orm')} lacks {sorted(missing)}"


@pytest.mark.parametrize("line", [
    "ls data", "cat a > b > c", "cat > f", "relkit parse --in a | tee b",
    "relkit --version"])
def test_other_lines_fail(tmp_path, monkeypatch, line):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a").write_text("")
    with pytest.raises((pytest.fail.Exception, AssertionError)):
        for words, body in steps(line + "\n"):
            run_step(words, body)


def test_steps_join_continuations_and_read_heredocs():
    block = ("# comment\n\ncat > t.txt <<'EOF'\na b\n\\ c\nEOF\n"
             "relkit parse --in t.txt \\\n    --out t.jsonl\n")
    assert list(steps(block)) == [
        (["cat", ">", "t.txt"], "a b\n\\ c\n"),
        (["relkit", "parse", "--in", "t.txt", "--out", "t.jsonl"], None)]


if __name__ == "__main__":
    print(walkthrough(), end="")
