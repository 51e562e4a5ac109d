import numpy as np
import pytest

from helpers import planted_vector, random_box, random_instance
from relkit.core import SceneGraph, SceneInstance, Vocabulary
from relkit.embed import EmbeddingTable, cosine
from relkit.errors import NumericError, OutOfVocabularyError
from relkit.evalkit import (ScenePrediction, TripletPrediction, _scene_rows,
                            longtail_split, predcls_eval, ranked_predicates,
                            recall_at_k, sgcls_eval, synonym_report,
                            topk_accuracy)


def graph_with_edges(edges, n=4):
    rng = np.random.default_rng(0)
    objects = [(i % 3, random_box(rng)) for i in range(n)]
    return SceneGraph.make(objects, edges)


def brute_force_recall(predictions, gt_edges, k):
    ordered = sorted(predictions,
                     key=lambda t: (-t.confidence, t.subject, t.object,
                                    t.predicate))[:k]
    hits = 0
    for edge in gt_edges:
        if any((t.subject, t.object, t.predicate) == edge for t in ordered):
            hits += 1
    return hits / len(gt_edges)


class TestRecallAtK:
    def test_all_matched(self):
        gt = graph_with_edges([(0, 1, 2), (1, 2, 0)])
        preds = [TripletPrediction(0, 1, 2, 0.9),
                 TripletPrediction(1, 2, 0, 0.8)]
        assert recall_at_k(preds, gt, 5) == 1.0

    def test_zero_matches(self):
        gt = graph_with_edges([(0, 1, 2), (1, 2, 0)])
        preds = [TripletPrediction(0, 1, 1, 0.9),
                 TripletPrediction(2, 1, 0, 0.8)]
        assert recall_at_k(preds, gt, 1) == 0.0

    def test_empty_ground_truth_rejected(self):
        gt = graph_with_edges([])
        with pytest.raises(NumericError):
            recall_at_k([], gt, 10)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            n = int(rng.integers(2, 6))
            pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
            idx = rng.choice(len(pairs), size=int(rng.integers(1, len(pairs))),
                             replace=False)
            edges = [(pairs[c][0], pairs[c][1], int(rng.integers(0, 4)))
                     for c in sorted(int(v) for v in idx)]
            gt = graph_with_edges(edges, n=n)
            preds = [TripletPrediction(int(rng.integers(0, n)),
                                       int(rng.integers(0, n)),
                                       int(rng.integers(0, 4)),
                                       float(rng.choice([0.1, 0.5, 0.5, 0.9])))
                     for _ in range(int(rng.integers(0, 12)))]
            k = int(rng.integers(1, 15))
            assert recall_at_k(preds, gt, k) == brute_force_recall(preds, edges, k)

    def test_monotone_in_k(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            gt = graph_with_edges([(0, 1, 1), (1, 0, 2), (2, 3, 0)])
            preds = [TripletPrediction(int(rng.integers(0, 4)),
                                       int(rng.integers(0, 4)),
                                       int(rng.integers(0, 3)),
                                       float(rng.random()))
                     for _ in range(10)]
            values = [recall_at_k(preds, gt, k) for k in range(1, 12)]
            assert all(a <= b for a, b in zip(values, values[1:]))

    def test_invariant_to_order_preserving_permutation(self):
        rng = np.random.default_rng(3)
        gt = graph_with_edges([(0, 1, 1), (1, 2, 0)])
        preds = [TripletPrediction(int(rng.integers(0, 3)),
                                   int(rng.integers(0, 3)),
                                   int(rng.integers(0, 3)),
                                   float(rng.random())) for _ in range(8)]
        shuffled = list(preds)
        rng.shuffle(shuffled)
        for k in (1, 3, 8):
            assert recall_at_k(preds, gt, k) == recall_at_k(shuffled, gt, k)


class TestTopkAccuracy:
    def test_always_rank_one(self):
        assert topk_accuracy([[3, 1], [2, 0]], [3, 2], 1) == 1.0

    def test_never_in_list(self):
        assert topk_accuracy([[3, 1], [2, 0]], [5, 5], 10) == 0.0

    def test_no_instances_is_numeric_error(self):
        with pytest.raises(NumericError, match="no edge was scored"):
            topk_accuracy([], [], 5)

    @pytest.mark.parametrize("k", [0, -2])
    def test_k_below_one_is_numeric_error(self, k):
        with pytest.raises(NumericError, match="requires k >= 1"):
            topk_accuracy([[3, 1]], [3], k)

    def test_mixed_case_vs_direct_count(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            m = int(rng.integers(1, 20))
            ranked = [list(rng.permutation(6)) for _ in range(m)]
            gts = [int(rng.integers(0, 8)) for _ in range(m)]
            k = int(rng.integers(1, 7))
            expected = sum(g in r[:k] for r, g in zip(ranked, gts)) / m
            assert topk_accuracy(ranked, gts, k) == expected


def perfect_prediction(scene: SceneInstance, n_preds=5,
                       n_obj=4) -> ScenePrediction:
    pair_probs = {}
    for s, o, p in scene.graph.edges:
        probs = np.full(n_preds, 0.01)
        probs[p] = 1.0
        pair_probs[(s, o)] = probs / probs.sum()
    n = scene.graph.n_objects
    obj = np.full((n, n_obj), 0.01)
    for i, label in enumerate(scene.graph.labels()):
        obj[i, label] = 1.0
    obj /= obj.sum(axis=1, keepdims=True)
    return ScenePrediction(pair_probs=pair_probs, object_probs=obj)


class TestProtocols:
    def test_perfect_model_scores_one(self):
        rng = np.random.default_rng(5)
        scenes = [random_instance(rng) for _ in range(5)]
        preds = [perfect_prediction(s) for s in scenes]
        metrics = predcls_eval(preds, scenes)
        assert metrics == {"R@50": 1.0, "R@100": 1.0, "top5": 1.0, "top10": 1.0}
        sg = sgcls_eval(preds, scenes)
        assert sg == {"R@50": 1.0, "R@100": 1.0}

    def test_empty_predictions_recall_zero(self):
        rng = np.random.default_rng(6)
        scenes = [random_instance(rng)]
        preds = [ScenePrediction(pair_probs={})]
        metrics = predcls_eval(preds, scenes)
        assert metrics["R@50"] == 0.0

    def test_wrong_object_label_not_counted_in_sgcls(self):
        rng = np.random.default_rng(7)
        scene = random_instance(rng, n=2, n_edges=1)
        pred = perfect_prediction(scene)
        # flip the subject label prediction
        s = scene.graph.edges[0][0]
        pred.object_probs[s] = np.roll(pred.object_probs[s], 1)
        assert predcls_eval([pred], [scene])["R@50"] == 1.0
        assert sgcls_eval([pred], [scene])["R@50"] == 0.0

    def test_sgcls_requires_object_probabilities(self):
        scene = random_instance(np.random.default_rng(9), n=2, n_edges=1)
        pred = perfect_prediction(scene)
        pred = ScenePrediction(pair_probs=pred.pair_probs)  # predcls output
        with pytest.raises(NumericError, match="requires object probability"):
            sgcls_eval([pred], [scene])

    def test_sgcls_never_exceeds_predcls(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            scenes = [random_instance(rng) for _ in range(3)]
            preds = []
            for scene in scenes:
                pair_probs = {
                    (s, o): np.random.default_rng(int(rng.integers(1e6)))
                    .dirichlet(np.ones(5))
                    for s, o, _ in scene.graph.edges}
                obj = np.random.default_rng(int(rng.integers(1e6))) \
                    .dirichlet(np.ones(4), size=scene.graph.n_objects)
                preds.append(ScenePrediction(pair_probs, obj))
            p = predcls_eval(preds, scenes)
            s = sgcls_eval(preds, scenes)
            for k in ("R@50", "R@100"):
                assert s[k] <= p[k] + 1e-12

    def test_small_case_vs_hand_count(self):
        # two scenes, K=1: only the most confident pair counts
        scene = random_instance(np.random.default_rng(9), n=3, n_edges=2)
        (s1, o1, p1), (s2, o2, p2) = scene.graph.edges
        probs1 = np.full(5, 0.05)
        probs1[p1] = 0.8
        probs2 = np.full(5, 0.05)
        probs2[p2] = 0.4
        pred = ScenePrediction({(s1, o1): probs1 / probs1.sum(),
                                (s2, o2): probs2 / probs2.sum()})
        assert predcls_eval([pred], [scene], recall_ks=(1,),
                            accuracy_ks=())["R@1"] == 0.5


class TestLongtailSplit:
    def test_boundary_strict_less_than(self):
        vocab = Vocabulary.make([("rare", 1023), ("freq", 1024)])
        rare, frequent = longtail_split(vocab, 1024)
        assert rare == ["rare"]
        assert frequent == ["freq"]

    def test_empty_vocab(self):
        rare, frequent = longtail_split(Vocabulary.make([]))
        assert rare == [] and frequent == []

    @pytest.mark.parametrize("threshold", [0, -5])
    def test_threshold_below_one_is_numeric_error(self, threshold):
        with pytest.raises(NumericError, match="threshold must be >= 1"):
            longtail_split(Vocabulary.make([("a", 3)]), threshold)

    def test_partition_matches_direct_filter(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            items = [(f"l{i}", int(rng.integers(0, 3000)))
                     for i in range(int(rng.integers(0, 20)))]
            vocab = Vocabulary.make(items)
            threshold = int(rng.integers(1, 2500))
            rare, frequent = longtail_split(vocab, threshold)
            assert set(rare) == {l for l, c in items if c < threshold}
            assert set(frequent) == {l for l, c in items if c >= threshold}
            assert set(rare) | set(frequent) == set(vocab.labels)
            assert not (set(rare) & set(frequent))


class TestSynonymReport:
    def _table(self, rng, tokens, dim=6):
        return EmbeddingTable(dim, {t: rng.normal(size=dim) for t in tokens})

    def test_isolated_label(self):
        rng = np.random.default_rng(11)
        table = EmbeddingTable(2, {"up": np.array([1.0, 0.0]),
                                   "down": np.array([-1.0, 0.0])})
        vocab = Vocabulary.make([("up", 10), ("down", 20)])
        report = synonym_report(vocab, table, 0.6)
        assert report["up"] == (0, 0)
        assert report["down"] == (0, 0)

    def test_shared_tokens_are_mutual_synonyms(self):
        table = EmbeddingTable(2, {"standing": np.array([1.0, 2.0])})
        vocab = Vocabulary.make([("standing", 7), ("standing standing", 3)])
        report = synonym_report(vocab, table, 0.99)
        assert report["standing"] == (1, 3)
        assert report["standing standing"] == (1, 7)

    def test_matches_all_pairs_oracle(self):
        rng = np.random.default_rng(12)
        tokens = [f"t{i}" for i in range(8)]
        table = self._table(rng, tokens)
        labels = [(f"t{i} t{(i + 1) % 8}", int(rng.integers(1, 50)))
                  for i in range(8)]
        vocab = Vocabulary.make(labels)
        threshold = 0.3
        report = synonym_report(vocab, table, threshold)
        vecs = {}
        for label, _ in labels:
            a, b = label.split()
            vecs[label] = (table.vectors[a] + table.vectors[b]) / 2
        for label, _ in labels:
            expected_syn = [other for other, _ in labels if other != label
                            and cosine(vecs[label], vecs[other]) >= threshold]
            count = sum(c for l, c in labels if l in expected_syn)
            assert report[label] == (len(expected_syn), count)

    def test_oov_label_skipped_with_warning(self):
        table = EmbeddingTable(2, {"up": np.array([1.0, 0.0])})
        vocab = Vocabulary.make([("up", 1), ("mystery", 2)])
        with pytest.warns(UserWarning):
            report = synonym_report(vocab, table, 0.5)
        assert "mystery" not in report

    def test_oov_label_strict_raises(self):
        table = EmbeddingTable(2, {"up": np.array([1.0, 0.0])})
        vocab = Vocabulary.make([("up", 1), ("mystery", 2)])
        with pytest.raises(OutOfVocabularyError, match="mystery"):
            synonym_report(vocab, table, 0.5, strict=True)

    def test_zero_embedding_label_skipped_with_warning(self):
        table = EmbeddingTable(2, {"up": np.array([1.0, 0.0]),
                                   "void": np.zeros(2)})
        vocab = Vocabulary.make([("up", 1), ("void", 2)])
        with pytest.warns(UserWarning, match="zero-embedding label: 'void'"):
            report = synonym_report(vocab, table, 0.5)
        assert report == {"up": (0, 0)}

    def test_zero_embedding_label_strict_raises(self):
        table = EmbeddingTable(2, {"up": np.array([1.0, 0.0]),
                                   "void": np.zeros(2)})
        vocab = Vocabulary.make([("up", 1), ("void", 2)])
        with pytest.raises(NumericError, match="zero embedding for label 'void'"):
            synonym_report(vocab, table, 0.5, strict=True)


def test_ranked_predicates_tie_break():
    assert ranked_predicates(np.array([0.4, 0.4, 0.2])) == [0, 1, 2]


def sorted_rank(probs):
    """The sorted rule: descending probability, ties ascending id."""
    return sorted(range(len(probs)), key=lambda i: (-probs[i], i))


def test_numpy_ranking_matches_the_sorted_rule():
    rng = np.random.default_rng(41)
    for _ in range(300):
        v = planted_vector(rng, int(rng.integers(1, 21)))
        expected = sorted_rank(v)
        assert ranked_predicates(v) == expected
        ((neg_conf, _, _, predicate),) = _scene_rows(
            ScenePrediction({(0, 1): v}), graph_constraint=True)[0]
        assert (predicate, -neg_conf) == (expected[0], float(v[expected[0]]))


def reference_sgcls_recall(preds, scenes, k):
    """SG-Cls R@K with labels and predicates picked by the sorted rule."""
    values = []
    for pred, scene in zip(preds, scenes):
        rows = pred.object_probs
        labels = [sorted_rank(row)[0] for row in rows]
        gt = scene.graph.labels()
        scored = []
        for (s, o), probs in pred.pair_probs.items():
            p = sorted_rank(probs)[0]
            conf = float(rows[s][labels[s]]) * float(rows[o][labels[o]]) * float(probs[p])
            ok = labels[s] == gt[s] and labels[o] == gt[o]
            scored.append((-conf, s, o, p if ok else -1))
        top = {(s, o, p) for _, s, o, p in sorted(scored)[:k]}
        values.append(len(set(scene.graph.edges) & top) / len(scene.graph.edges))
    return float(np.mean(values))


def test_sgcls_labels_match_the_sorted_rule():
    rng = np.random.default_rng(42)
    for _ in range(60):
        scenes = [random_instance(rng, n=4, n_edges=int(rng.integers(1, 6)))
                  for _ in range(3)]
        preds = []
        for scene in scenes:
            rows = np.array([planted_vector(rng, 4) for _ in scene.graph.labels()])
            for i, label in enumerate(scene.graph.labels()):
                if rng.random() < 0.5:  # tie the true label with another one
                    rows[i, label] = rows[i].max()
            pair_probs = {(s, o): planted_vector(rng, 5)
                          for s, o, _ in scene.graph.edges}
            preds.append(ScenePrediction(pair_probs, rows))
        got = sgcls_eval(preds, scenes, recall_ks=(1, 2, 50))
        for k in (1, 2, 50):
            assert got[f"R@{k}"] == reference_sgcls_recall(preds, scenes, k)
