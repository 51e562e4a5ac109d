import numpy as np
import pytest

from relkit.core import scene_from_dict, scene_to_dict
from relkit.errors import ConfigError
from relkit.synth import SynthConfig, SynthDataset, generate


class TestConfigValidation:
    def test_too_few_objects_rejected(self):
        with pytest.raises(ConfigError):
            SynthConfig(objects_per_scene=1)

    @pytest.mark.parametrize("field, value", [
        ("n_object_labels", 0), ("n_seen_predicates", 0),
        ("n_object_labels", -2), ("n_heldout_predicates", -1),
        ("n_train_scenes", -1), ("n_test_scenes", -1)])
    def test_counts_out_of_range_rejected(self, field, value):
        with pytest.raises(ConfigError):
            SynthConfig(**{field: value})

    def test_zero_heldout_and_scene_counts_accepted(self):
        data = generate(SynthConfig(n_object_labels=1, n_seen_predicates=1,
                                    n_heldout_predicates=0, n_train_scenes=0,
                                    n_test_scenes=0))
        assert data.train_scenes == [] and data.test_scenes == []

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
            SynthConfig(seed=-1)

    @pytest.mark.parametrize("counts", [
        {"n_object_labels": 677},
        {"n_seen_predicates": 600, "n_heldout_predicates": 77}],
        ids=["objects", "predicates"])
    def test_more_than_676_labels_rejected(self, counts):
        with pytest.raises(ConfigError, match="at most 676 labels"):
            SynthConfig(**counts)
        SynthConfig(**{k: v - 1 for k, v in counts.items()})

    @pytest.mark.parametrize("field, value", [
        ("d", 0), ("d", -1), ("e", 0), ("sigma", -0.5), ("sigma", float("nan")),
        ("sigma", float("inf")), ("sigma", float("-inf"))])
    def test_widths_below_one_and_bad_noise_rejected(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} = {value}"):
            SynthConfig(**{field: value})

    def test_zero_noise_and_unread_r_accepted(self):
        SynthConfig(sigma=0.0, r=0)  # generate never reads r

    def test_edges_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            SynthConfig(objects_per_scene=2, edges_per_scene=3)


class TestGenerate:
    def test_shapes_and_counts(self):
        cfg = SynthConfig(n_train_scenes=10, n_test_scenes=4, seed=1)
        ds = generate(cfg)
        assert len(ds.train_scenes) == 10
        assert len(ds.test_scenes) == 4
        assert len(ds.object_vocab.labels) == cfg.n_object_labels
        assert len(ds.predicate_vocab.labels) == cfg.n_seen_predicates
        for scene in ds.train_scenes + ds.test_scenes:
            assert scene.graph.n_objects == cfg.objects_per_scene
            assert len(scene.graph.edges) == cfg.edges_per_scene
            assert scene_from_dict(scene_to_dict(scene)) == scene
            assert scene.object_feature_matrix().shape == (
                cfg.objects_per_scene, cfg.d)
            for vec in scene.pair_feature_map().values():
                assert vec.shape == (cfg.d,)

    def test_same_seed_is_identical(self):
        a = generate(SynthConfig(n_train_scenes=5, n_test_scenes=2, seed=9))
        b = generate(SynthConfig(n_train_scenes=5, n_test_scenes=2, seed=9))
        assert a.object_vocab.labels == b.object_vocab.labels
        for sa, sb in zip(a.train_scenes + a.test_scenes,
                          b.train_scenes + b.test_scenes):
            assert sa.graph.edges == sb.graph.edges
            assert np.array_equal(sa.object_feature_matrix(),
                                  sb.object_feature_matrix())
            for pair, vec in sa.pair_feature_map().items():
                assert np.array_equal(vec, sb.pair_feature_map()[pair])

    def test_different_seed_differs(self):
        a = generate(SynthConfig(n_train_scenes=5, seed=1))
        b = generate(SynthConfig(n_train_scenes=5, seed=2))
        assert not np.array_equal(a.train_scenes[0].object_feature_matrix(),
                                  b.train_scenes[0].object_feature_matrix())

    def test_zero_noise_features_are_exact_affine_images(self):
        cfg = SynthConfig(sigma=0.0, n_train_scenes=6, n_test_scenes=2, seed=3)
        ds = generate(cfg)
        # with no noise, every object sharing a label has identical features
        by_label = {}
        for scene in ds.train_scenes:
            feats = scene.object_feature_matrix()
            for i, label in enumerate(scene.graph.labels()):
                if label in by_label:
                    assert np.array_equal(by_label[label], feats[i])
                else:
                    by_label[label] = feats[i]
        # and every pair with the same predicate has identical pair features
        by_pred = {}
        for scene in ds.train_scenes:
            pf = scene.pair_feature_map()
            for s, o, p in scene.graph.edges:
                if p in by_pred:
                    assert np.array_equal(by_pred[p], pf[(s, o)])
                else:
                    by_pred[p] = pf[(s, o)]

    def test_heldout_predicates_only_in_test_scenes(self):
        cfg = SynthConfig(n_seen_predicates=4, n_heldout_predicates=3,
                          n_train_scenes=20, n_test_scenes=10, seed=5)
        ds = generate(cfg)
        assert len(ds.heldout_predicates) == 3
        assert ds.predicate_vocab.labels == tuple(ds.seen_predicates
                                                  + ds.heldout_predicates)
        n_seen = cfg.n_seen_predicates
        for scene in ds.train_scenes:
            assert all(p < n_seen for _, _, p in scene.graph.edges)
        test_ids = {p for scene in ds.test_scenes
                    for _, _, p in scene.graph.edges}
        assert test_ids and all(p >= n_seen for p in test_ids)

    def test_corpus_counts_match_scene_edges(self):
        cfg = SynthConfig(n_train_scenes=12, n_test_scenes=5, seed=6)
        ds = generate(cfg)
        expected = {}  # the test split stays out of the ORM's corpus
        for scene in ds.train_scenes:
            labels = scene.graph.labels()
            for s, o, p in scene.graph.edges:
                key = (ds.object_vocab.labels[labels[s]],
                       ds.predicate_vocab.labels[p],
                       ds.object_vocab.labels[labels[o]])
                expected[key] = expected.get(key, 0) + 1
        assert ds.corpus.counts == expected

    def test_vocab_counts_come_from_training_split(self):
        cfg = SynthConfig(n_train_scenes=8, n_test_scenes=4, seed=7)
        ds = generate(cfg)
        assert sum(ds.predicate_vocab.counts) \
            == cfg.n_train_scenes * cfg.edges_per_scene
        assert sum(ds.object_vocab.counts) \
            == cfg.n_train_scenes * cfg.objects_per_scene

    def test_embeddings_cover_both_vocabularies(self):
        ds = generate(SynthConfig(n_heldout_predicates=2, seed=8,
                                  n_train_scenes=3, n_test_scenes=1))
        for label in ds.object_vocab.labels + ds.predicate_vocab.labels:
            assert label in ds.embeddings.vectors
