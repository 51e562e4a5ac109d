"""Acceptance gate: one test per release criterion.

conftest.py prints one PASS/FAIL line per criterion in the terminal
summary. Runtime budgets are asserted with wall-clock checks.
"""

import itertools
import math
import time

import numpy as np

from helpers import random_corpus, random_example
from relkit.cli import main as cli_main
from relkit.core import Vocabulary
from relkit.corpus import Triplet, TripletCorpus
from relkit.evalkit import (TripletPrediction, longtail_split, recall_at_k,
                            topk_accuracy)
from relkit.orm import build_orm, lookup, sample_candidates
from relkit.relhead import (Dims, Toggles, TrainConfig, build_example,
                            forward_scene, init_params, loss_and_gradients,
                            predict_scene, scene_loss, train)
from relkit.synth import SynthConfig, generate


def budget(start: float, seconds: float) -> None:
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"runtime {elapsed:.1f}s over {seconds}s budget"


def test_01_orm_oracle_equivalence():
    """Every conditional probability equals a brute-force recount."""
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    for _ in range(100):
        corpus = random_corpus(rng, max_triplets=1000, max_labels=50)
        table = build_orm(corpus)
        pair_counts = {}
        for (s, r, o), w in corpus.counts.items():
            pair_counts.setdefault((s, o), {})
            pair_counts[(s, o)][r] = pair_counts[(s, o)].get(r, 0) + w
        for (s, o), by_pred in pair_counts.items():
            total = sum(by_pred.values())
            result = lookup(table, s, o)
            assert not result.backoff
            got = dict(result.entries)
            assert set(got) == set(by_pred)
            for r, w in by_pred.items():
                assert abs(got[r] - w / total) <= 1e-12
    budget(start, 5.0)


def test_02_anchored_conditional_probability():
    """54 of 100 (man, helmet) observations are 'wearing'."""
    corpus = TripletCorpus()
    corpus.add(Triplet("man", "wearing", "helmet", weight=54))
    corpus.add(Triplet("man", "holding", "helmet", weight=30))
    corpus.add(Triplet("man", "carrying", "helmet", weight=16))
    head, prob = lookup(build_orm(corpus), "man", "helmet").entries[0]
    assert head == "wearing"
    assert abs(prob - 0.54) <= 1e-12


def test_03_gradients_match_finite_differences():
    """Analytic gradients vs central differences for every tensor."""
    start = time.perf_counter()
    dims = Dims(d=8, r=4, e=6, n_object_labels=4, n_predicate_labels=5)
    configs = [
        Toggles(object_attention=False, geometric_objects=False,
                geometric_relationships=False, subject_object_attention=False),
        Toggles(object_attention=True, geometric_objects=False,
                geometric_relationships=False, subject_object_attention=False),
        Toggles(object_attention=True, geometric_objects=True,
                geometric_relationships=True, subject_object_attention=False),
        Toggles(),
    ]
    rng = np.random.default_rng(103)
    h = 1e-5
    for ci, toggles in enumerate(configs):
        params = init_params(dims, seed=103 + ci, scale=0.3, toggles=toggles)
        batch = [random_example(rng, dims) for _ in range(5)]

        def batch_loss():
            return float(np.mean([
                scene_loss(forward_scene(params, ex), ex,
                           params.lambdas) for ex in batch]))

        _, analytic = loss_and_gradients(params, batch)
        for name, arr in params.tensors.items():
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                ix = it.multi_index
                orig = arr[ix]
                arr[ix] = orig + h
                up = batch_loss()
                arr[ix] = orig - h
                down = batch_loss()
                arr[ix] = orig
                numeric = (up - down) / (2 * h)
                a = float(analytic[name][ix])
                rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
                assert rel <= 1e-4, (name, ix, ci, a, numeric)
    budget(start, 30.0)


def _train_on(dataset, epochs, seed, n_predicate_labels):
    cfg = dataset.config
    dims = Dims(cfg.d, cfg.r, cfg.e, cfg.n_object_labels, n_predicate_labels)
    examples = [build_example(s, dataset.object_vocab,
                              dataset.predicate_vocab, dataset.embeddings)
                for s in dataset.train_scenes]
    orm = build_orm(dataset.corpus)
    tcfg = TrainConfig(learning_rate=0.5, epochs=epochs, seed=seed)
    params = init_params(dims, seed=seed)
    params, losses = train(tcfg, examples, orm, dataset.object_vocab,
                           dataset.embeddings, params)
    return params, losses, orm


def test_04_trainability():
    """Training separates the synthetic predicates nearly perfectly."""
    start = time.perf_counter()
    dataset = generate(SynthConfig(seed=42, n_seen_predicates=10, sigma=0.1,
                                   n_train_scenes=75, n_test_scenes=1))
    assert sum(len(s.graph.edges) for s in dataset.train_scenes) == 150
    params, losses, orm = _train_on(dataset, epochs=200, seed=42,
                                    n_predicate_labels=10)
    assert np.mean(losses[:5]) > np.mean(losses[5:10])  # early descent
    hits = total = 0
    for scene in dataset.train_scenes:
        pred, _ = predict_scene(params, scene, orm, dataset.object_vocab,
                                dataset.predicate_vocab, dataset.embeddings)
        for s, o, p in scene.graph.edges:
            hits += int(np.argmax(pred.pair_probs[(s, o)]) == p)
            total += 1
    assert total == 150
    assert hits / total >= 0.95
    budget(start, 60.0)


def test_05_zero_shot_transfer():
    """Held-out predicates are recovered well above chance."""
    from relkit.zeroshot import build_label_matrix, predict_unseen, topk

    start = time.perf_counter()
    chance = 5 / 13
    accuracies = []
    for seed in range(5):
        dataset = generate(SynthConfig(seed=seed, n_seen_predicates=10,
                                       n_heldout_predicates=3, sigma=0.1,
                                       n_train_scenes=75, n_test_scenes=30))
        params, _, orm = _train_on(dataset, epochs=150, seed=seed,
                                   n_predicate_labels=10)
        matrix = build_label_matrix(list(dataset.predicate_vocab.labels),
                                    dataset.embeddings)
        hits = total = 0
        for scene in dataset.test_scenes:
            _, pair_embs = predict_scene(
                params, scene, orm, dataset.object_vocab,
                dataset.predicate_vocab, dataset.embeddings)
            for s, o, p in scene.graph.edges:
                gt = dataset.predicate_vocab.labels[p]
                assert gt in dataset.heldout_predicates
                probs = predict_unseen(pair_embs[(s, o)], matrix)
                hits += int(gt in topk(probs, matrix.labels, 5))
                total += 1
        accuracies.append(hits / total)
    mean_acc = float(np.mean(accuracies))
    assert mean_acc >= 2 * chance, accuracies
    budget(start, 120.0)


def test_06_metric_oracles():
    """Ranking metrics agree with brute-force references on random cases."""
    start = time.perf_counter()
    rng = np.random.default_rng(106)
    from helpers import random_box
    from relkit.core import SceneGraph

    for _ in range(400):  # recall oracle
        n = int(rng.integers(2, 6))
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        idx = rng.choice(len(pairs), size=int(rng.integers(1, len(pairs))),
                         replace=False)
        edges = [(pairs[c][0], pairs[c][1], int(rng.integers(0, 4)))
                 for c in sorted(int(v) for v in idx)]
        gt = SceneGraph.make([(0, random_box(rng)) for _ in range(n)], edges)
        preds = [TripletPrediction(int(rng.integers(0, n)),
                                   int(rng.integers(0, n)),
                                   int(rng.integers(0, 4)),
                                   float(rng.choice([0.2, 0.5, 0.5, 0.8])))
                 for _ in range(int(rng.integers(0, 12)))]
        ks = sorted(int(rng.integers(1, 15)) for _ in range(3))
        values = []
        for k in ks:
            ordered = sorted(preds, key=lambda t: (-t.confidence, t.subject,
                                                   t.object, t.predicate))[:k]
            expected = sum(
                any((t.subject, t.object, t.predicate) == e for t in ordered)
                for e in edges) / len(edges)
            got = recall_at_k(preds, gt, k)
            assert got == expected
            values.append(got)
        assert values == sorted(values)  # monotone in K

    for _ in range(400):  # top-k accuracy oracle
        m = int(rng.integers(1, 15))
        ranked = [list(rng.permutation(6)) for _ in range(m)]
        gts = [int(rng.integers(0, 8)) for _ in range(m)]
        k = int(rng.integers(1, 7))
        assert topk_accuracy(ranked, gts, k) \
            == sum(g in r[:k] for r, g in zip(ranked, gts)) / m

    for _ in range(200):  # long-tail split oracle
        items = [(f"l{i}", int(rng.integers(0, 2048)))
                 for i in range(int(rng.integers(0, 30)))]
        threshold = int(rng.integers(1, 2048))
        rare, frequent = longtail_split(Vocabulary.make(items), threshold)
        assert set(rare) == {l for l, c in items if c < threshold}
        assert set(frequent) == {l for l, c in items if c >= threshold}

    rare, frequent = longtail_split(
        Vocabulary.make([("edge_rare", 1023), ("edge_freq", 1024)]), 1024)
    assert rare == ["edge_rare"] and frequent == ["edge_freq"]
    budget(start, 10.0)


def test_07_sampling_contract():
    """Candidate draws stay inside top-M and are uniform over K-subsets."""
    start = time.perf_counter()
    corpus = TripletCorpus()
    for i, weight in enumerate((60, 50, 40, 30, 20, 10)):
        corpus.add(Triplet("man", f"r{i}", "bike", weight=weight))
    table = build_orm(corpus)
    top_m = {"r0", "r1", "r2", "r3"}
    n_draws = 10_000
    freq = {frozenset(c): 0 for c in itertools.combinations(sorted(top_m), 2)}
    for seed in range(n_draws):
        drawn = sample_candidates(table, "man", "bike", m=4, k=2, seed=seed)
        assert set(drawn) <= top_m
        freq[frozenset(drawn)] += 1
    p = 1 / 6
    sigma = math.sqrt(n_draws * p * (1 - p))
    for subset, count in freq.items():
        assert abs(count - n_draws * p) <= 5 * sigma, (sorted(subset), count)
    budget(start, 5.0)


def test_08_end_to_end_determinism(tmp_path):
    """Reruns give byte-identical artifacts."""

    def pipeline(root):
        data = root / "data"
        assert cli_main(["synth", "--out-dir", str(data), "--seed", "13",
                         "--train-scenes", "6", "--test-scenes", "3",
                         "--predicates", "4"]) == 0
        assert cli_main(["build-orm", "--in", str(data / "corpus.jsonl"),
                         "--out", str(data / "orm.tsv")]) == 0
        common = ["--scenes", str(data / "train.jsonl"),
                  "--orm", str(data / "orm.tsv"),
                  "--vectors", str(data / "vectors.txt"),
                  "--objects", str(data / "objects.tsv"),
                  "--predicates", str(data / "predicates.tsv")]
        assert cli_main(["train"] + common
                        + ["--out", str(root / "model.ckpt"),
                           "--epochs", "3", "--seed", "13"]) == 0
        assert cli_main(["eval"] + common
                        + ["--checkpoint", str(root / "model.ckpt"),
                           "--format", "tsv",
                           "--out", str(root / "metrics.tsv")]) == 0
        return {name: (root / name).read_bytes()
                for name in ("data/orm.tsv", "model.ckpt", "metrics.tsv")}

    runs = [pipeline(tmp_path / "run1"), pipeline(tmp_path / "run2")]
    for name in runs[0]:
        assert runs[0][name] == runs[1][name], f"{name} differs across reruns"
