"""relkit command-line interface.

Subcommands: parse, build-orm, query, embed, synth, train, eval, zeroshot,
report. Every command is deterministic given its config and seed; outputs
carry no timestamps unless --timestamps is passed.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import datetime
import sys
import warnings
from pathlib import Path

from . import config as cfgmod
from . import corpus as corpusmod
from . import core, embed, evalkit, orm as ormmod, synth, zeroshot
from .errors import (ConfigError, EmptySceneError, FormatError, NumericError,
                     OutOfVocabularyError, RelkitError, TextFile)
from .relhead import (check_inputs, Dims, build_example, init_params,
                      load_params, predict_batch, save_params, train)


def _given(args, cls) -> dict:
    """The fields of dataclass `cls` that a flag of this command line set."""
    return {f.name: getattr(args, f.name) for f in dataclasses.fields(cls)
            if getattr(args, f.name, None) is not None}


def _load_run_config(args) -> cfgmod.RunConfig:
    cfg = cfgmod.load_config(args.config) if args.config else cfgmod.RunConfig()
    overrides = _given(args, cfgmod.RunConfig)
    if getattr(args, "ablation", None) == "all-off":
        overrides.update(dict.fromkeys(cfgmod.MECHANISMS, False))
    return dataclasses.replace(cfg, **overrides)


@contextlib.contextmanager
def _output(args):
    """The --out file, or stdout, after the optional timestamp line."""
    with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as out:
        if args.timestamps:
            out.write(f"# generated {datetime.datetime.now().isoformat()}\n")
        yield out


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_parse(args) -> int:
    if args.min_count < 1:
        raise ConfigError(f"--min-count must be >= 1, got {args.min_count}")
    if args.jsonl and (args.stoplist or args.predicate_lexicon):
        raise ConfigError("--jsonl takes no --stoplist or --predicate-lexicon")
    if args.jsonl:
        corpus = corpusmod.ingest_triplet_file(args.infile)
    else:
        stoplist, lexicon = (corpusmod.load_wordlist(path) if path else None
                             for path in (args.stoplist, args.predicate_lexicon))
        with TextFile(args.infile) as lines:
            text = "".join(lines)
        corpus = corpusmod.extract_from_text(text, stoplist, lexicon,
                                             source=str(args.infile))
    if args.min_count > 1:
        corpus = corpusmod.filter_vocabulary(corpus, args.min_count)
    corpusmod.save_triplet_file(corpus, args.out)
    print(corpus.total_weight())
    return 0


def cmd_build_orm(args) -> int:
    table = ormmod.build_orm(corpusmod.ingest_triplet_file(args.infile))
    ormmod.save_orm(table, args.out)
    print(f"pairs\t{len(table)}")
    print(f"total\t{table.total()}")
    return 0


def cmd_query(args) -> int:
    if args.top < 1:
        raise ConfigError(f"--top must be >= 1, got {args.top}")
    if args.draw is not None and args.seed is None:
        raise ConfigError("--draw requires --seed")
    table, backoff = ormmod.load_orm(args.orm), not args.no_backoff
    result = ormmod.lookup(table, args.subject, args.object, backoff=backoff)
    if args.draw is None:
        lines = [f"{predicate}\t{prob:.6g}" for predicate, prob in result.entries[:args.top]]
    else:  # checks K <= M and the seed before anything is printed
        try:
            lines = ormmod.sample_candidates(table, args.subject, args.object, m=args.top,
                                             k=args.draw, seed=args.seed, backoff=backoff)
        except ConfigError as exc:
            raise ConfigError(f"--draw {args.draw} --top {args.top} --seed {args.seed}: "
                              f"{exc}") from None
    if result.backoff:
        print("# pair unseen, backoff off: no candidates" if args.no_backoff
              else "# backoff: pair unseen, global marginal distribution")
    for line in lines:
        print(line)
    return 0


def cmd_embed(args) -> int:
    table = embed.load_embeddings(args.vectors)
    vec, known = embed.embed_phrase(table, args.phrase, strict=not args.lenient)
    if not known:
        print("# all tokens out of vocabulary; zero vector", file=sys.stderr)
    print(" ".join(repr(float(v)) for v in vec))
    return 0


def cmd_synth(args) -> int:
    cfg = _load_run_config(args)
    given = _given(args, synth.SynthConfig)  # the sizes; cfg has --seed and --sigma
    data = synth.generate(synth.SynthConfig(
        **given | dict(d=cfg.d, e=cfg.e, sigma=cfg.sigma, seed=cfg.seed)))
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    core.save_scenes(data.train_scenes, out / "train.jsonl")
    core.save_scenes(data.test_scenes, out / "test.jsonl")
    embed.save_embeddings(data.embeddings, out / "vectors.txt")
    cfgmod.save_vocab(data.object_vocab, out / "objects.tsv")
    cfgmod.save_vocab(data.predicate_vocab, out / "predicates.tsv")
    corpusmod.save_triplet_file(data.corpus, out / "corpus.jsonl")
    (out / "heldout.txt").write_text(
        "".join(label + "\n" for label in data.heldout_predicates))
    print(f"train_scenes\t{len(data.train_scenes)}")
    print(f"test_scenes\t{len(data.test_scenes)}")
    return 0


def _load_shared(args):
    object_vocab = cfgmod.load_vocab(args.objects)
    predicate_vocab = cfgmod.load_vocab(args.predicates)
    table = embed.load_embeddings(args.vectors)
    orm_table = ormmod.load_orm(args.orm)
    scenes = core.load_scenes(args.scenes)
    for si, scene in enumerate(scenes):
        for i, label in enumerate(scene.graph.labels()):
            if label >= len(object_vocab):
                raise ConfigError(f"{args.scenes}: scene {si} object {i}: label "
                                  f"{label} outside the {len(object_vocab)} "
                                  f"labels of {args.objects}")
        for k, (_, _, p) in enumerate(scene.graph.edges):
            if p >= len(predicate_vocab):
                raise ConfigError(f"{args.scenes}: scene {si} edge {k}: predicate "
                                  f"id {p} outside the {len(predicate_vocab)} labels "
                                  f"of {args.predicates}")
    return object_vocab, predicate_vocab, table, orm_table, scenes


def cmd_train(args) -> int:
    cfg = _load_run_config(args)
    object_vocab, predicate_vocab, table, orm_table, scenes = _load_shared(args)
    # the inputs fix d, e and the head's size: the trained predicates only
    d = next((len(s.object_features[0]) for s in scenes if s.object_features), 1)
    n_pred = 1 + max((p for s in scenes for _, _, p in s.graph.edges), default=0)
    examples = []
    for si, scene in enumerate(scenes):  # a zero target has no cosine loss
        try:
            examples.append(build_example(scene, object_vocab, predicate_vocab,
                                          table, cfg.strict_oov or cfg.lambda3 > 0))
        except RelkitError as exc:
            raise type(exc)(f"{args.scenes}: scene {si}: {exc}") from exc
    try:  # packing errors name a scene, and a zero d comes from the scenes
        dims = Dims(d, cfg.r, table.dimension, len(object_vocab), n_pred)
        params = init_params(dims, seed=cfg.seed,
                             lambdas=(cfg.lambda1, cfg.lambda2, cfg.lambda3),
                             toggles=cfg.toggles)
        params, losses = train(cfg, examples, orm_table, object_vocab, table, params)
    except (ConfigError, EmptySceneError) as exc:
        raise type(exc)(f"{args.scenes}: {exc}") from exc
    except OutOfVocabularyError as exc:  # a candidate phrase: targets were checked above
        raise OutOfVocabularyError(f"{args.orm}: {exc}") from exc
    save_params(params, args.out)
    for epoch, loss in enumerate(losses):
        print(f"epoch\t{epoch}\t{loss:.6f}")
    return 0


def _predict(args, cfg, inputs, protocol):
    """`predict_batch` over the `_load_shared` inputs with the checkpoint and
    the config's candidate settings; an error names the files behind it."""
    object_vocab, predicate_vocab, table, orm_table, scenes = inputs
    params = load_params(args.checkpoint)
    try:
        check_inputs(params, table, object_vocab)
    except ConfigError as exc:
        raise ConfigError(f"{exc} (--vectors {args.vectors}, --objects {args.objects}, "
                          f"--checkpoint {args.checkpoint})") from exc
    try:
        return predict_batch(params, scenes, orm_table, object_vocab,
                             predicate_vocab, table, k_candidates=cfg.k_candidates,
                             orm_backoff=cfg.orm_backoff,
                             strict_oov=cfg.strict_oov, protocol=protocol)
    except (ConfigError, EmptySceneError) as exc:
        raise type(exc)(f"{args.scenes}: {exc}") from exc
    except OutOfVocabularyError as exc:  # a candidate phrase
        raise OutOfVocabularyError(f"{args.orm}: {exc}") from exc


def cmd_eval(args) -> int:
    cfg = _load_run_config(args)
    *_, scenes = inputs = _load_shared(args)
    predictions = [pred for pred, _ in _predict(args, cfg, inputs, args.protocol)]
    evaluate = evalkit.predcls_eval if args.protocol == "predcls" else evalkit.sgcls_eval
    try:  # recall is undefined when --scenes holds no edge
        metrics = evaluate(predictions, scenes, micro=cfg.micro_recall,
                           graph_constraint=cfg.graph_constraint)
    except NumericError as exc:
        raise NumericError(f"{args.scenes}: {exc}") from exc
    with _output(args) as out:
        evalkit.format_metrics(metrics, args.format, out)
    return 0


def cmd_zeroshot(args) -> int:
    ks = [v.strip() for v in args.topk.split(",")]
    bad = [v for v in ks if not v.isdecimal() or int(v) < 1]
    if bad:
        raise ConfigError(f"--topk takes integers >= 1, got {bad[0]!r}")
    ks = [int(v) for v in ks]
    if len(set(ks)) < len(ks):
        raise ConfigError(f"--topk repeats a k: {args.topk!r}")
    cfg = _load_run_config(args)
    _, predicate_vocab, table, _, scenes = inputs = _load_shared(args)
    with TextFile(args.labels) as lines:
        labels = [lines.unique("label", line.strip()) for line in lines]
        if not labels:
            raise FormatError("no labels")
        matrix = zeroshot.build_label_matrix(labels, table)
    predictions = _predict(args, cfg, inputs, "predcls")
    lines, ranked_lists, gt_names = [], [], []
    for si, (scene, (_, pair_embs)) in enumerate(zip(scenes, predictions)):
        for s, o, p in scene.graph.edges:
            if (s, o) not in pair_embs:
                raise ConfigError(f"{args.scenes}: scene {si}: edge ({s},{o}) "
                                  f"has no ingested pair feature")
            probs = zeroshot.predict_unseen(pair_embs[(s, o)], matrix)
            ranked_lists.append(zeroshot.topk(probs, matrix.labels, max(ks)))
            gt_names.append(predicate_vocab.labels[p])
            lines.append(f"{si}\t{s}\t{o}\t{gt_names[-1]}\t{','.join(ranked_lists[-1])}\n")
    try:  # so is top-k accuracy
        accuracies = [evalkit.topk_accuracy(ranked_lists, gt_names, k) for k in ks]
    except NumericError as exc:
        raise NumericError(f"{args.scenes}: {exc}") from exc
    with _output(args) as out:  # written only once every scene is scored
        out.writelines(lines)
        for k, acc in zip(ks, accuracies):
            out.write(f"top{k}_accuracy\t{acc:.6f}\n")
    return 0


def cmd_report(args) -> int:
    cfg = _load_run_config(args)
    vocab = cfgmod.load_vocab(args.predicates)
    table = embed.load_embeddings(args.vectors)
    rare, frequent = evalkit.longtail_split(vocab, cfg.longtail_threshold)
    report = evalkit.synonym_report(vocab, table, cfg.synonym_threshold,
                                    strict=cfg.strict_oov)
    with _output(args) as out:
        out.write(f"#longtail_threshold\t{cfg.longtail_threshold}\n")
        out.write(f"#rare\t{len(rare)}\t#frequent\t{len(frequent)}\n")
        out.write("label\tcount\tsplit\tsynonyms\tsynonym_instances\n")
        rare_set = set(rare)
        for label, count in zip(vocab.labels, vocab.counts):
            split = "rare" if label in rare_set else "frequent"
            n_syn, inst = report.get(label, (0, 0))
            out.write(f"{label}\t{count}\t{split}\t{n_syn}\t{inst}\n")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_common_model_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="run config file (key = value lines)")
    p.add_argument("--scenes", required=True, help="scene JSONL file")
    p.add_argument("--orm", required=True, help="ORM TSV file")
    p.add_argument("--vectors", required=True, help="word embedding text file")
    p.add_argument("--objects", required=True, help="object vocabulary TSV")
    p.add_argument("--predicates", required=True, help="predicate vocabulary TSV")


def _add_output_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out")
    p.add_argument("--timestamps", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    """The whole CLI. Flags match by full name only: no prefix abbreviations."""
    parser = argparse.ArgumentParser(
        prog="relkit", allow_abbrev=False,
        description="Scene-graph relationship toolkit: text-derived predicate "
                    "statistics, a trainable relationship head, zero-shot "
                    "classification, and evaluation.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(func, help):  # cmd_build_orm runs the subcommand build-orm
        p = sub.add_parser(func.__name__[4:].replace("_", "-"), help=help,
                           allow_abbrev=False)
        p.set_defaults(func=func)
        return p

    p = command(cmd_parse, "extract or ingest triplets")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--jsonl", action="store_true", help="input is pre-parsed triplet JSONL")
    p.add_argument("--stoplist")
    p.add_argument("--predicate-lexicon")
    p.add_argument("--min-count", type=int, default=1)

    p = command(cmd_build_orm, "build the object-relationship mapping")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)

    p = command(cmd_query, "look up predicate candidates for a pair")
    p.add_argument("--orm", required=True)
    p.add_argument("--subject", required=True)
    p.add_argument("--object", required=True)
    p.add_argument("--top", type=int, default=10)
    p.add_argument("--draw", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--no-backoff", action="store_true")

    p = command(cmd_embed, "pool a phrase embedding")
    p.add_argument("--vectors", required=True)
    p.add_argument("--phrase", required=True)
    p.add_argument("--lenient", action="store_true")

    # a size flag sets the SynthConfig field it names; SynthConfig has the defaults
    p = command(cmd_synth, "generate a synthetic dataset")
    p.add_argument("--config")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--objects", type=int, dest="n_object_labels", metavar="OBJECTS")
    p.add_argument("--predicates", type=int, dest="n_seen_predicates",
                   metavar="PREDICATES")
    p.add_argument("--heldout", type=int, dest="n_heldout_predicates",
                   metavar="HELDOUT")
    p.add_argument("--train-scenes", type=int, dest="n_train_scenes",
                   metavar="TRAIN_SCENES")
    p.add_argument("--test-scenes", type=int, dest="n_test_scenes",
                   metavar="TEST_SCENES")
    p.add_argument("--objects-per-scene", type=int)
    p.add_argument("--edges-per-scene", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--sigma", type=float)

    p = command(cmd_train, "train the relationship head")
    _add_common_model_args(p)
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--seed", type=int)
    p.add_argument("--ablation", choices=["all-off"],
                   help="disable object self-attention, both geometric "
                        "encodings and subject-object attention")
    p.add_argument("--epochs", type=int)
    p.add_argument("--learning-rate", type=float)

    p = command(cmd_eval, "run an evaluation protocol")
    _add_common_model_args(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--protocol", choices=["predcls", "sgcls"], default="predcls")
    p.add_argument("--format", choices=["tsv", "table"], default="table")
    p.add_argument("--micro", dest="micro_recall", action="store_true", default=None)
    _add_output_args(p)

    p = command(cmd_zeroshot, "zero-shot classification over labels")
    _add_common_model_args(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--labels", required=True,
                   help="text file, one candidate label per line")
    p.add_argument("--topk", default="5,10")
    _add_output_args(p)

    p = command(cmd_report, "long-tail split and synonym report")
    p.add_argument("--config")
    p.add_argument("--predicates", required=True)
    p.add_argument("--vectors", required=True)
    _add_output_args(p)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():  # the caller's settings come back after
        warnings.simplefilter("default")
        warnings.showwarning = lambda message, *_: print(
            f"relkit: warning: {message}", file=sys.stderr)
        try:
            return args.func(args)
        except RelkitError as exc:
            print(f"relkit: error: {exc}", file=sys.stderr)
            return exc.exit_code
        except OSError as exc:
            print(f"relkit: error: {exc}", file=sys.stderr)
            return 3


if __name__ == "__main__":
    sys.exit(main())
