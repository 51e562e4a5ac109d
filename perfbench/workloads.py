"""Workload profiles, seeded input generation, set-up and one timed cycle.

Every workload runs the whole relkit chain, in the order the CLI runs it:
parse -> build-orm -> query, and train -> eval (predcls, sgcls) ->
zeroshot. The workloads differ in how large each stage is, so that each
one is dominated by a different layer (see README.md). Every relkit call
goes through a module attribute, never a name bound at import time, so
the tracer's wrappers see it.
"""

from __future__ import annotations

import hashlib
import logging
import math
import random
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import process_time as cpu_time
from typing import Dict, List, Optional, Tuple

import numpy as np

from relkit import config, core, corpus, embed, evalkit, orm, relhead, synth, zeroshot

TRAIN_SEED = 0      # the CLI's default run seed
TOP_M = 10          # candidates per pair (README default M)
DRAW_K = 5          # drawn candidates per edge (README default K)
ZEROSHOT_KS = (1, 5)
UNSEEN_QUERY_SHARE = 0.01
UNPARSABLE_LINE_SHARE = 0.10


@dataclass(frozen=True)
class Profile:
    # SynthConfig of the pinned synthetic world (vectors, affine maps, pools)
    synth: Dict[str, object]
    head_train_scenes: int      # first N train scenes train the head
    test_scenes: int            # drawn by --seed from the test pool; 0 = all
    # split Pred-Cls / SG-Cls score. The README world's test split holds
    # only held-out predicates, which the classifier cannot output, so
    # there they score the train split (training fit).
    eval_split: str             # "train" or "test"
    epochs: int
    zeroshot_labels: str        # "heldout" or "all"
    caption_lines: int
    caption_nouns: int
    queries: int
    # quality gates, each cleared by the seed commit with margin
    max_final_loss: float
    min_zeroshot_top1: float
    min_predcls_top1: float


README_WORLD = dict(n_object_labels=8, n_seen_predicates=10,
                    n_heldout_predicates=3, d=16, r=4, e=8, sigma=0.1,
                    n_train_scenes=75, n_test_scenes=30, objects_per_scene=3,
                    edges_per_scene=2, seed=42)

PROFILES = {
    # The README default: synth seed 42, 75/30 scenes, 100 epochs.
    "train-default": Profile(
        synth=README_WORLD, head_train_scenes=75,
        test_scenes=0, eval_split="train", epochs=100,
        zeroshot_labels="heldout",
        caption_lines=20_000, caption_nouns=120, queries=2_000,
        max_final_loss=0.2, min_zeroshot_top1=0.8, min_predcls_top1=0.8),
    # 1000 scenes of 8 objects and 8 ingested pairs; sigma 0.5 keeps top-1
    # below 1. The ORM sees all 150 train scenes, so about half of the eval
    # lookups back off; the head trains on the first 50.
    "infer-dense": Profile(
        synth=dict(n_object_labels=40, n_seen_predicates=20,
                   n_heldout_predicates=0, d=16, r=4, e=8, sigma=0.5,
                   n_train_scenes=150, n_test_scenes=2000,
                   objects_per_scene=8, edges_per_scene=8, seed=7),
        head_train_scenes=50, test_scenes=1000, eval_split="test", epochs=40,
        zeroshot_labels="all", caption_lines=20_000, caption_nouns=120,
        queries=2_000,
        max_final_loss=2.0, min_zeroshot_top1=0.5, min_predcls_top1=0.7),
    # The model-free text path at 200k caption lines; the head runs the
    # README world for 20 epochs as a control.
    "corpus-orm": Profile(
        synth=README_WORLD, head_train_scenes=75,
        test_scenes=0, eval_split="train", epochs=20,
        zeroshot_labels="heldout",
        caption_lines=200_000, caption_nouns=400, queries=10_000,
        max_final_loss=2.0, min_zeroshot_top1=0.6, min_predcls_top1=0.6),
}

# Caption vocabulary. Nouns are consonant-vowel pairs, which never end in
# "s" or "ing" and so never read as predicate tokens; every predicate
# phrase is made only of predicate tokens, so each parsable clause yields
# exactly the triplet it was written from.
_CONSONANTS = "bdfgklmnprtvz"
_VOWELS = "aeiou"
CAPTION_PREDICATES = (
    "on", "near", "under", "behind", "above", "beside", "next to",
    "in front", "on top", "holding", "riding", "wearing", "sitting on",
    "standing near", "looking at", "lying on", "walking on", "hanging on",
    "carrying", "playing with", "covering", "against", "inside", "over")


def caption_nouns(count: int) -> List[str]:
    syllables = [c + v for c in _CONSONANTS for v in _VOWELS]
    reserved = corpus.DEFAULT_STOPLIST | corpus.DEFAULT_PREDICATE_LEXICON
    out = []
    for a in syllables:
        for b in syllables:
            word = a + b
            if word not in reserved:
                out.append(word)
    # a fixed stride spreads the nouns over the alphabet
    return [out[(i * 37) % len(out)] for i in range(count)]


Triple = Tuple[str, str, str]


CAPTION_SHARD_LINES = 5_000     # one `relkit parse` input file


@dataclass
class Captions:
    shards: List[str]                # caption files' text
    lines: int
    expected: List[Dict[Triple, int]]  # per shard, what parsing must yield
    queries: List[Tuple[str, str, str, int]]  # (kind, subject, object, seed)


def _zipf_cum(n: int, exponent: float) -> List[float]:
    acc, out = 0.0, []
    for rank in range(n):
        acc += 1.0 / (rank + 1) ** exponent
        out.append(acc)
    return out


def make_captions(n_lines: int, n_nouns: int, n_queries: int,
                  seed: int) -> Captions:
    """Seeded caption text with a Zipf-skewed pair distribution."""
    rng = random.Random(seed)
    nouns = caption_nouns(n_nouns)
    preds = CAPTION_PREDICATES
    obj_perm = list(range(n_nouns))
    rng.shuffle(obj_perm)
    noun_cum = _zipf_cum(n_nouns, 1.1)
    pred_cum = _zipf_cum(len(preds), 1.5)
    shard_expected: List[Dict[Triple, int]] = []

    def clause() -> str:
        s = rng.choices(range(n_nouns), cum_weights=noun_cum)[0]
        o = obj_perm[rng.choices(range(n_nouns), cum_weights=noun_cum)[0]]
        shift = rng.choices(range(len(preds)), cum_weights=pred_cum)[0]
        p = preds[(7 * s + 13 * o + shift) % len(preds)]
        key = (nouns[s], p, nouns[o])
        expected = shard_expected[-1]
        expected[key] = expected.get(key, 0) + 1
        art1, art2 = rng.choice(("the", "a", "")), rng.choice(("the", "a", ""))
        return f"{art1} {nouns[s]} {p} {art2} {nouns[o]}"

    def junk() -> str:
        a, b = rng.choice(nouns), rng.choice(nouns)
        return rng.choice((f"a photo of the {a}", f"{a} and {b}",
                           f"{rng.choice(preds)} the {a}", f"the {a} {rng.choice(preds)}"))

    lines = []
    for i in range(n_lines):
        if i % CAPTION_SHARD_LINES == 0:
            shard_expected.append({})
        if rng.random() < UNPARSABLE_LINE_SHARE:
            body = junk()
        elif rng.random() < 0.3:
            body = clause() + rng.choice((", ", "; ")) + clause()
        else:
            body = clause()
        if rng.random() < 0.5:
            body = body.strip().capitalize()
        lines.append(" ".join(body.split()) + rng.choice((".", "!", "")))

    pairs = sorted({(s, o) for shard in shard_expected for s, _p, o in shard})
    seen = set(pairs)
    unseen_at = set(rng.sample(range(n_queries),
                               round(n_queries * UNSEEN_QUERY_SHARE)))
    queries = []
    for qi in range(n_queries):
        if qi in unseen_at:
            while True:
                pair = (rng.choice(nouns), rng.choice(nouns))
                if pair not in seen:
                    break
        else:
            pair = pairs[rng.randrange(len(pairs))]
        kind = "lookup" if qi % 2 == 0 else "sample"
        queries.append((kind, pair[0], pair[1], rng.randrange(1 << 30)))
    shards = ["".join(line + "\n" for line in lines[i:i + CAPTION_SHARD_LINES])
              for i in range(0, n_lines, CAPTION_SHARD_LINES)]
    return Captions(shards, n_lines, shard_expected, queries)


def merged_counts(parts) -> Dict[Triple, int]:
    out: Dict[Triple, int] = {}
    for part in parts:
        for key, w in part.items():
            out[key] = out.get(key, 0) + w
    return out


@dataclass
class Files:
    """Every input a workload reads, written once per run by prep()."""

    vectors: Path
    objects: Path
    predicates: Path
    train_scenes: Path
    test_scenes: Path
    labels: Path
    train_triplets: Path
    model_orm: Path
    captions: List[Path]             # caption shards
    triplet_parts: List[Path]        # each shard's parsed triplets
    caption_orm: Path
    n_seen_predicates: int
    train_edges: int
    caption_data: Captions = field(repr=False, default=None)
    triplet_bytes: List[bytes] = field(repr=False, default=None)


def prep(profile: Profile, seed: int, root: Path) -> Files:
    """Generate every input of one run; untimed."""
    root.mkdir(parents=True, exist_ok=True)
    world = synth.generate(synth.SynthConfig(**profile.synth))
    f = Files(vectors=root / "vectors.txt",
              objects=root / "objects.tsv", predicates=root / "predicates.tsv",
              train_scenes=root / "train.jsonl", test_scenes=root / "test.jsonl",
              labels=root / "labels.txt",
              train_triplets=root / "train_triplets.jsonl",
              model_orm=root / "orm.tsv", captions=[], triplet_parts=[],
              caption_orm=root / "captions_orm.tsv",
              n_seen_predicates=len(world.seen_predicates),
              train_edges=sum(len(s.graph.edges) for s in world.train_scenes))
    embed.save_embeddings(world.embeddings, f.vectors)
    config.save_vocab(world.object_vocab, f.objects)
    config.save_vocab(world.predicate_vocab, f.predicates)
    core.save_scenes(world.train_scenes[:profile.head_train_scenes],
                     f.train_scenes)
    tests = world.test_scenes
    if profile.test_scenes:
        picks = sorted(random.Random(seed).sample(range(len(tests)),
                                                  profile.test_scenes))
        tests = [tests[i] for i in picks]
    core.save_scenes(tests, f.test_scenes)
    labels = (world.heldout_predicates if profile.zeroshot_labels == "heldout"
              else list(world.predicate_vocab.labels))
    f.labels.write_text("".join(label + "\n" for label in labels))

    # The ORM the head reads comes from the train split only: synth's own
    # corpus also holds the test scenes' triplets.
    train_corpus = corpus.TripletCorpus(provenance=["train split"])
    obj_labels = world.object_vocab.labels
    pred_labels = world.predicate_vocab.labels
    for scene in world.train_scenes:
        ids = scene.graph.labels()
        for s, o, p in scene.graph.edges:
            train_corpus.add(corpus.Triplet(obj_labels[ids[s]], pred_labels[p],
                                            obj_labels[ids[o]]))
    corpus.save_triplet_file(train_corpus, f.train_triplets)
    orm.save_orm(orm.build_orm(corpus.ingest_triplet_file(f.train_triplets)),
                 f.model_orm)

    # The caption ORM is built from the generated triplets, not by parsing,
    # so every cycle's parse + build is checked against it.
    caps = make_captions(profile.caption_lines, profile.caption_nouns,
                         profile.queries, seed)
    for i, (text, expected) in enumerate(zip(caps.shards, caps.expected)):
        f.captions.append(root / f"captions-{i:02d}.txt")
        f.captions[-1].write_text(text)
        f.triplet_parts.append(root / f"triplets-{i:02d}.jsonl")
        corpus.save_triplet_file(corpus.TripletCorpus(dict(expected)),
                                 f.triplet_parts[-1])
    f.triplet_bytes = [p.read_bytes() for p in f.triplet_parts]
    orm.save_orm(orm.build_orm(corpus.TripletCorpus(merged_counts(caps.expected))),
                 f.caption_orm)
    f.caption_data = caps
    return f


@dataclass
class Inputs:
    object_vocab: core.Vocabulary
    predicate_vocab: core.Vocabulary
    table: embed.EmbeddingTable
    model_orm: orm.OrmTable
    train_scenes: list
    test_scenes: list
    examples: list
    label_matrix: zeroshot.LabelEmbeddingMatrix
    caption_orm: orm.OrmTable


def setup(f: Files) -> Inputs:
    """Load what the chain's commands load before their first compute."""
    object_vocab = config.load_vocab(f.objects)
    predicate_vocab = config.load_vocab(f.predicates)
    table = embed.load_embeddings(f.vectors)
    model_orm = orm.load_orm(f.model_orm)
    train_scenes = core.load_scenes(f.train_scenes)
    test_scenes = core.load_scenes(f.test_scenes)
    examples = [relhead.build_example(s, object_vocab, predicate_vocab, table)
                for s in train_scenes]
    labels = [line for line in f.labels.read_text().splitlines() if line]
    matrix = zeroshot.build_label_matrix(labels, table)
    caption_orm = orm.load_orm(f.caption_orm)
    return Inputs(object_vocab, predicate_vocab, table, model_orm,
                  train_scenes, test_scenes, examples, matrix, caption_orm)


class Failures:
    """Counts operations attempted and those that raised."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.first_error: Optional[str] = None

    def run(self, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # counted, reported, and gated
            self.failed += 1
            if self.first_error is None:
                self.first_error = f"{type(exc).__name__}: {exc}"
            return None


# Timings are CPU seconds of this single-threaded process, so that time
# the core spends on other tenants is not counted. The machine's speed also
# drifts by +-30% over seconds, which no number of repeats in a 20 s run
# averages away, so every timing is taken in reference-speed seconds: the
# raw interval times NOMINAL_PROBE_S over the CPU time of a fixed probe
# (small numpy products plus dict updates, like relkit's inner loops) run
# next to it. A probe is re-run, outside every timed interval, once the
# last one is older than PROBE_INTERVAL_S.
NOMINAL_PROBE_S = 0.0025
PROBE_INTERVAL_S = 0.1
PROBE_WINDOW = 5
_PROBE_RNG = np.random.default_rng(0)
_PROBE_A = _PROBE_RNG.normal(size=(20, 20))
_PROBE_V = _PROBE_RNG.normal(size=20)


def _probe_work() -> float:
    acc, counts = 0.0, {}
    for i in range(2000):
        acc += float((_PROBE_V @ _PROBE_A)[i % 20])
        counts[i % 97] = counts.get(i % 97, 0) + 1
    return acc


class SpeedClock:
    """Times calls in reference-speed seconds (see NOMINAL_PROBE_S)."""

    def __init__(self) -> None:
        self.probes: List[float] = []
        self.total = 0.0
        self._last = -math.inf
        self._factor = 1.0
        self.factor()

    def factor(self, fresh: bool = False) -> float:
        """Current raw-to-reference factor, probing again when stale."""
        if fresh or cpu_time() - self._last > PROBE_INTERVAL_S:
            t0 = cpu_time()
            _probe_work()
            dt = cpu_time() - t0
            self.probes.append(dt)
            # the median of the last few probes damps one probe's own noise
            self._factor = NOMINAL_PROBE_S / statistics.median(
                self.probes[-PROBE_WINDOW:])
            self._last = cpu_time()
        return self._factor

    def current(self) -> float:
        """The factor of the last probe, without probing."""
        return self._factor

    def scaled(self, raw: float, before: float) -> float:
        value = raw * (before + self.factor()) / 2.0
        self.total += value
        return value

    def time(self, fn, *args, **kwargs):
        """(fn's result, its duration in reference-speed seconds)."""
        before = self.factor()
        t0 = cpu_time()
        result = fn(*args, **kwargs)
        return result, self.scaled(cpu_time() - t0, before)


class EpochClock(logging.Handler):
    """Times each training epoch from relkit.train's per-epoch log record."""

    def __init__(self, clock: SpeedClock) -> None:
        super().__init__(level=logging.INFO)
        self.clock = clock
        self.epoch_ms: List[float] = []
        self.logger = logging.getLogger("relkit.train")

    def emit(self, record) -> None:
        raw = cpu_time() - self._t0
        before = self._before
        self._before = self.clock.factor(fresh=True)
        self.epoch_ms.append(self.clock.scaled(raw, before) * 1e3)
        self._t0 = cpu_time()

    def __enter__(self):
        self.logger.addHandler(self)
        self.logger.setLevel(logging.INFO)
        self.logger.propagate = False
        self._before = self.clock.factor(fresh=True)
        self._t0 = cpu_time()
        return self

    def __exit__(self, *exc):
        self.logger.removeHandler(self)
        return False


@dataclass
class CycleResult:
    rates: Dict[str, float]
    epoch_ms: List[List[float]]      # one list per training run
    predict_ms: Dict[Tuple[str, str, int], List[float]]
    quality: Dict[str, float]
    losses: List[float]
    checkpoint_digest: str
    output_digest: str
    outputs: Dict[str, object] = field(repr=False, default_factory=dict)


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()[:16]


def _parse(path: Path, out: Path, fails: Failures):
    """relkit parse --in captions.txt --out triplets.jsonl"""
    parsed = fails.run(corpus.extract_from_text, path.read_text(),
                       source=str(path))
    fails.run(corpus.save_triplet_file, parsed, out)
    return parsed


def _build(parts: List[Path], path: Path, out: Path, fails: Failures):
    """cat triplets-*.jsonl > triplets.jsonl;
    relkit build-orm --in triplets.jsonl --out orm.tsv"""
    with open(path, "wb") as fh:
        for part in parts:
            fh.write(part.read_bytes())
    built = fails.run(orm.build_orm,
                      fails.run(corpus.ingest_triplet_file, path))
    fails.run(orm.save_orm, built, out)
    return built


def _queries(table, queries, fails: Failures) -> list:
    answers = []
    for kind, s, o, qseed in queries:
        if kind == "lookup":
            res = fails.run(orm.lookup, table, s, o)
            answers.append(None if res is None
                           else (res.entries[:TOP_M], res.backoff))
        else:
            answers.append(fails.run(orm.sample_candidates, table, s, o,
                                     TOP_M, DRAW_K, qseed))
    return answers


QUERY_CHUNK = 200
EVAL_CHUNK = 100
# Every stage but training runs in pieces that are interleaved: the stage
# with the least time so far runs its next piece, until every piece ran
# once, every stage ran MIN_STAGE_RUNS pieces and covered MIN_STAGE_S of
# raw CPU time. The machine's speed drifts within seconds, so a stage
# timed in one contiguous block would see one machine state; interleaved,
# every stage sees the whole cycle. Training repeats until TRAIN_MIN_S.
MIN_STAGE_S = 0.6
MIN_STAGE_RUNS = 2
TRAIN_MIN_S = 2.0


class Stage:
    """A list of pieces, each a callable -> (result, amount of work)."""

    def __init__(self, name: str, pieces, clock: SpeedClock) -> None:
        self.name = name
        self.pieces = pieces
        self.clock = clock
        self.results = [None] * len(pieces)
        self.work = 0
        self.seconds = 0.0      # reference-speed, the stage's measurement
        self.raw = 0.0          # raw CPU, for the stopping rule
        self.runs = 0

    def done(self) -> bool:
        return (self.runs >= max(len(self.pieces), MIN_STAGE_RUNS)
                and self.raw >= MIN_STAGE_S)

    def step(self) -> None:
        i = self.runs % len(self.pieces)
        t0 = cpu_time()
        (result, amount), dt = self.clock.time(self.pieces[i])
        self.raw += cpu_time() - t0
        self.results[i] = result
        self.work += amount
        self.seconds += dt
        self.runs += 1


def interleave(stages: List[Stage]) -> None:
    while True:
        pending = [st for st in stages if not st.done()]
        if not pending:
            return
        min(pending, key=lambda st: st.raw).step()


def _chunks(items, size: int):
    return [items[i:i + size] for i in range(0, len(items), size)]


def run_cycle(profile: Profile, f: Files, inp: Inputs, work: Path,
              clock: SpeedClock, fails: Failures) -> CycleResult:
    """One pass over every stage of the chain, each stage timed."""
    caps = f.caption_data
    predict_ms: Dict[Tuple[str, str, int], List[float]] = {}

    # train: relkit train ... --out model.ckpt
    world = profile.synth
    dims = relhead.Dims(world["d"], world["r"], world["e"],
                        len(inp.object_vocab), f.n_seen_predicates)
    tcfg = relhead.TrainConfig(epochs=profile.epochs, seed=TRAIN_SEED,
                               m_candidates=TOP_M, k_candidates=DRAW_K)
    params0 = relhead.init_params(dims, seed=TRAIN_SEED)
    ckpt = work / "model.ckpt"
    epoch_runs: List[List[float]] = []
    t0 = cpu_time()
    while not epoch_runs or cpu_time() - t0 < TRAIN_MIN_S:
        with EpochClock(clock) as epochs:
            trained = fails.run(relhead.train, tcfg, inp.examples,
                                inp.model_orm, inp.object_vocab, inp.table,
                                params0)
        if trained is None:
            raise RuntimeError(f"training failed: {fails.first_error}")
        epoch_runs.append(epochs.epoch_ms)
    params, losses = trained
    fails.run(relhead.save_params, params, ckpt)
    params = fails.run(relhead.load_params, ckpt)

    # Prep wrote each shard's expected triplet file, so build pieces can run
    # before this cycle's parse pieces rewrite them (byte-identical).
    parts = f.triplet_parts

    def parse_piece(i):
        return (_parse(f.captions[i], parts[i], fails),
                caps.shards[i].count("\n"))

    def build_piece():
        built = _build(parts, work / "triplets.jsonl", work / "orm.tsv", fails)
        return built, (built.total() if built else 0)

    def query_piece(chunk):
        return _queries(inp.caption_orm, chunk, fails), len(chunk)

    split = profile.eval_split
    scenes = inp.train_scenes if split == "train" else inp.test_scenes
    eval_chunks = _chunks(list(enumerate(scenes)), EVAL_CHUNK)
    test_chunks = _chunks(list(enumerate(inp.test_scenes)), EVAL_CHUNK)
    matrix = inp.label_matrix

    def predict(split_name, chunk, protocol):
        """predict_scene per scene, each call's time filed under (protocol,
        split, scene index) so that repeats of one call can be pooled."""
        out = []
        for idx, scene in chunk:
            t0 = cpu_time()
            res = fails.run(relhead.predict_scene, params, scene,
                            inp.model_orm, inp.object_vocab,
                            inp.predicate_vocab, inp.table,
                            k_candidates=DRAW_K, protocol=protocol)
            predict_ms.setdefault((protocol, split_name, idx), []).append(
                (cpu_time() - t0) * clock.current() * 1e3)
            if res is None:
                raise RuntimeError(f"predict_scene failed: {fails.first_error}")
            out.append(res)
        return out

    def predcls_piece(chunk):
        preds = [p for p, _ in predict(split, chunk, "predcls")]
        chunk_scenes = [scene for _, scene in chunk]
        return (evalkit.predcls_eval(preds, chunk_scenes, accuracy_ks=(1, 5)),
                len(chunk))

    def sgcls_piece(chunk):
        preds = [p for p, _ in predict(split, chunk, "sgcls")]
        return evalkit.sgcls_eval(preds, [scene for _, scene in chunk]), len(chunk)

    def zeroshot_piece(chunk):
        ranked, gts = [], []
        for (_, scene), (_, pair_embs) in zip(chunk,
                                              predict("test", chunk, "predcls")):
            for s, o, p in scene.graph.edges:
                probs = zeroshot.predict_unseen(pair_embs[(s, o)], matrix)
                ranked.append(zeroshot.topk(probs, matrix.labels,
                                            max(ZEROSHOT_KS)))
                gts.append(inp.predicate_vocab.labels[p])
        return (ranked, gts), len(gts)

    def pieces(fn, items):
        return [lambda item=item: fn(item) for item in items]

    stages = [
        Stage("parse", pieces(parse_piece, range(len(parts))), clock),
        Stage("build", [build_piece], clock),
        Stage("query", pieces(query_piece, _chunks(caps.queries, QUERY_CHUNK)),
              clock),
        Stage("predcls", pieces(predcls_piece, eval_chunks), clock),
        Stage("sgcls", pieces(sgcls_piece, eval_chunks), clock),
        Stage("zeroshot", pieces(zeroshot_piece, test_chunks), clock),
    ]
    interleave(stages)
    parse, build, query, predcls, sgcls, zs_stage = stages

    ranked = [r for rs, _ in zs_stage.results for r in rs]
    gts = [g for _, gs in zs_stage.results for g in gs]
    zs = {f"top{k}": evalkit.topk_accuracy(ranked, gts, k) for k in ZEROSHOT_KS}
    n_edges = [sum(len(scene.graph.edges) for _, scene in chunk)
               for chunk in eval_chunks]
    predcls_top1 = (sum(round(m["top1"] * n) for m, n in zip(predcls.results, n_edges))
                    / sum(n_edges))
    answers = [a for block in query.results for a in block]
    rates = {
        "parse_lines_per_s": parse.work / parse.seconds,
        "orm_build_triplets_per_s": build.work / build.seconds,
        "orm_queries_per_s": query.work / query.seconds,
        "predcls_scenes_per_s": predcls.work / predcls.seconds,
        "sgcls_scenes_per_s": sgcls.work / sgcls.seconds,
        "zeroshot_edges_per_s": zs_stage.work / zs_stage.seconds,
    }
    quality = {"final_loss": losses[-1], "zeroshot_top1": zs["top1"],
               "predcls_top1": predcls_top1}
    triplet_bytes = [part.read_bytes() for part in parts]
    orm_bytes = (work / "orm.tsv").read_bytes()
    return CycleResult(
        rates=rates,
        epoch_ms=epoch_runs, predict_ms=predict_ms, quality=quality,
        losses=losses, checkpoint_digest=_digest(ckpt.read_bytes()),
        output_digest=_digest(triplet_bytes, orm_bytes, answers, losses,
                              predcls.results, sgcls.results, zs, ranked),
        outputs={"parsed": parse.results, "orm_bytes": orm_bytes,
                 "triplet_bytes": triplet_bytes,
                 "answers": answers})


def _ranked_counts(counts: Dict[str, int]) -> List[Tuple[str, float]]:
    total = sum(counts.values())
    return [(r, c / total) for r, c in
            sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))]


def check_cycle(profile: Profile, f: Files, inp: Inputs,
                res: CycleResult) -> List[str]:
    """Correctness checks against references computed independently of
    the library; returns one message per failed check."""
    problems: List[str] = []
    caps = f.caption_data
    for i, (parsed, expected) in enumerate(zip(res.outputs["parsed"],
                                               caps.expected)):
        if parsed is None or parsed.counts != expected:
            problems.append(f"parse: shard {i} triplets differ from the generated ones")
    if res.outputs["triplet_bytes"] != f.triplet_bytes:
        problems.append("parse: a triplet file differs from the expected one")
    if res.outputs["orm_bytes"] != f.caption_orm.read_bytes():
        problems.append("build-orm: rebuilt ORM file differs from the prep build")

    by_pair: Dict[Tuple[str, str], Dict[str, int]] = {}
    marginal: Dict[str, int] = {}
    for (s, p, o), c in merged_counts(caps.expected).items():
        by_pair.setdefault((s, o), {})[p] = c
        marginal[p] = marginal.get(p, 0) + c
    backoff_rank = _ranked_counts(marginal)
    bad = 0
    for (kind, s, o, qseed), answer in zip(caps.queries, res.outputs["answers"]):
        counts = by_pair.get((s, o))
        ranked = _ranked_counts(counts) if counts else backoff_rank
        if kind == "lookup":
            ok = answer == (tuple(ranked[:TOP_M]), counts is None)
        else:
            top = [r for r, _ in ranked[:TOP_M]]
            want = (top if len(top) <= DRAW_K
                    else random.Random(qseed).sample(top, DRAW_K))
            ok = answer == want
        bad += not ok
    if bad:
        problems.append(f"query: {bad} of {len(caps.queries)} answers are wrong")

    if inp.model_orm.total() != f.train_edges:
        problems.append("model ORM does not hold exactly the train-split edges")
    if not all(np.isfinite(res.losses)) or res.losses[-1] >= res.losses[0]:
        problems.append("train: loss is not finite or did not decrease")
    q = res.quality
    if not q["final_loss"] <= profile.max_final_loss:
        problems.append(f"final_loss {q['final_loss']:.4f} > {profile.max_final_loss}")
    if not q["zeroshot_top1"] >= profile.min_zeroshot_top1:
        problems.append(f"zeroshot_top1 {q['zeroshot_top1']:.4f} < {profile.min_zeroshot_top1}")
    if not q["predcls_top1"] >= profile.min_predcls_top1:
        problems.append(f"predcls_top1 {q['predcls_top1']:.4f} < {profile.min_predcls_top1}")
    return problems
