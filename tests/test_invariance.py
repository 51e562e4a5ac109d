"""Oracles that share no code with the model: invariances, and a recount of
the packed layout.

The reference head restates the model's formulas, so a fault both share
passes it: an order dependence, or an offset that uniform scenes hide.
These properties need no second implementation:
- shuffling each scene's objects (edges and pair features remapped), its
  edges and the batch's scene order permutes `predict_batch`'s outputs;
- with no edge drawn (K = M), the scene order leaves training alone;
- renaming the object labels in the vocabulary and the ORM, in the same
  vocabulary order, changes no output bit.
The recount walks the scenes with its own running counts and checks that
`PackedBatch.firsts` places each scene's rows there.
"""

import importlib

import numpy as np
import pytest

from helpers import random_example
from relkit.core import SceneGraph, SceneInstance, Vocabulary
from relkit.orm import OrmTable
from relkit.relhead import (build_example, Dims, predict_batch, train,
                            TrainConfig)
from relkit.relhead.model import pack_batch
from test_candidates import make_world, ragged_batch, scores

train_mod = importlib.import_module("relkit.relhead.train")

TOL = 1e-12


@pytest.fixture(scope="module")
def world():
    return make_world()


def shuffled(scene, rng):
    """`scene` with its objects and edges in a random order, and each old
    object's new index. SceneInstance keeps pair features sorted by key, so
    their rows move with the objects; they are handed over shuffled too."""
    order = rng.permutation(scene.graph.n_objects)  # old index at each new one
    new = np.argsort(order)
    edges = [(new[s], new[o], p) for s, o, p in scene.graph.edges]
    pairs = [scene.pair_features[i] for i in rng.permutation(len(scene.pair_features))]
    return SceneInstance.make(
        SceneGraph.make([scene.graph.objects[i] for i in order],
                        [edges[i] for i in rng.permutation(len(edges))]),
        [scene.object_features[i] for i in order],
        {(new[s], new[o]): v for (s, o), v in pairs}), new.tolist()


def assert_close_same_argmax(got, want):
    np.testing.assert_allclose(got, want, rtol=0, atol=TOL)
    assert np.array_equal(np.argmax(got, axis=-1), np.argmax(want, axis=-1))


@pytest.mark.parametrize("protocol", ["predcls", "sgcls"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_shuffled_scenes_permute_predict_batch_outputs(world, protocol, seed):
    data, orm, _, params = world
    rng = np.random.default_rng(seed)
    scenes = ragged_batch(data)
    moved, new = zip(*(shuffled(scene, rng) for scene in scenes))
    args = (orm, data.object_vocab, data.predicate_vocab, data.embeddings)
    want = predict_batch(params, scenes, *args, k_candidates=4, protocol=protocol)
    got = predict_batch(params, moved[::-1], *args, k_candidates=4, protocol=protocol)[::-1]
    assert any(n != sorted(n) for n in new)
    for (pred, embs), (pred2, embs2), n in zip(want, got, new):
        assert set(pred2.pair_probs) == {(n[s], n[o]) for s, o in pred.pair_probs}
        for (s, o), probs in pred.pair_probs.items():
            assert_close_same_argmax(pred2.pair_probs[n[s], n[o]], probs)
            np.testing.assert_allclose(embs2[n[s], n[o]], embs[s, o], rtol=0, atol=TOL)
        if protocol == "sgcls":
            assert_close_same_argmax(pred2.object_probs[n], pred.object_probs)
        else:
            assert pred2.object_probs is None


def ragged_examples(data, examples):
    """The world's training examples and ragged_batch's scenes with a pair
    feature on every edge: 1 to 12 objects, and scenes without edges."""
    return examples + [build_example(scene, data.object_vocab, data.predicate_vocab,
                                     data.embeddings) for scene in ragged_batch(data)
                       if len(scene.pair_features) == len(scene.graph.edges)]


def test_scene_order_leaves_training_alone(monkeypatch):
    data, orm, examples, params = make_world()
    examples = ragged_examples(data, examples)
    assert any(not ex.edges for ex in examples) and any(len(ex.features) == 1 for ex in examples)

    def no_draw(*args, **kwargs):
        raise AssertionError("K = M draws no edge")

    monkeypatch.setattr(train_mod, "sample_candidates", no_draw)
    cfg = TrainConfig(m_candidates=6, k_candidates=6, seed=4, epochs=4, learning_rate=0.3)
    args = (orm, data.object_vocab, data.embeddings, params)
    want, want_losses = train(cfg, examples, *args)
    got, got_losses = train(cfg, examples[::-1], *args)
    np.testing.assert_allclose(got_losses, want_losses, rtol=0, atol=TOL)
    for name, tensor in want.tensors.items():
        np.testing.assert_allclose(got.tensors[name], tensor, rtol=0, atol=TOL, err_msg=name)


def renamed(vocab, orm):
    """The vocabulary with new label names, in reverse sort order but the same
    vocabulary order, and the ORM with its pairs renamed alike."""
    names = {label: f"n{len(vocab) - i:03d}" for i, label in enumerate(vocab.labels)}
    return (Vocabulary(tuple(names[label] for label in vocab.labels), vocab.counts),
            OrmTable({(names[s], names[o]): dict(preds)
                      for (s, o), preds in orm.pair_counts.items()}))


@pytest.mark.parametrize("protocol", ["predcls", "sgcls"])
def test_renamed_object_labels_change_no_prediction(world, protocol):
    data, orm, _, params = world
    vocab, other = renamed(data.object_vocab, orm)
    scenes = ragged_batch(data)
    want = scores(params, scenes, orm, data, protocol=protocol)
    got = scores(params, scenes, other, data, vocab=vocab, protocol=protocol)
    assert len(got) == len(want) and all(np.array_equal(g, w) for g, w in zip(got, want))


def test_renamed_object_labels_change_no_training_bit():
    data, orm, examples, params = make_world()
    examples = ragged_examples(data, examples)
    vocab, other = renamed(data.object_vocab, orm)
    cfg = TrainConfig(m_candidates=6, k_candidates=3, seed=4, epochs=4, learning_rate=0.3)
    want, want_losses = train(cfg, examples, orm, data.object_vocab, data.embeddings, params)
    got, got_losses = train(cfg, examples, other, vocab, data.embeddings, params)
    assert got_losses == want_losses
    assert all(np.array_equal(got.tensors[k], v) for k, v in want.tensors.items())


# ---------------------------------------------------------------------------
# The layout field against a recount
# ---------------------------------------------------------------------------

def assert_layout(packed, scenes):
    """Each scene, as (features, boxes, labels, pairs, pair features), owns
    the rows that running counts over the scenes before it give."""
    firsts, d = packed.firsts, packed.features.shape[1]
    assert len(firsts) == len(scenes) + 1
    n0 = e0 = 0
    for b, (features, boxes, labels, pairs, pair_features) in enumerate(scenes):
        assert firsts[b] == (n0, e0) and all(type(i) is int for i in firsts[b])
        rows = slice(n0, n0 + len(features))
        assert np.array_equal(packed.features[rows], features)
        assert np.array_equal(packed.boxes[rows], boxes)
        assert np.array_equal(packed.labels[rows], labels)
        rows = slice(e0, e0 + len(pairs))
        assert np.array_equal(packed.pair_features[rows], np.reshape(pair_features, (-1, d)))
        assert np.array_equal(packed.so_rows[rows], np.reshape(
            [(n0 + s, n0 + o, n0 + o, n0 + s) for s, o in pairs], (-1, 4)))
        n0, e0 = n0 + len(features), e0 + len(pairs)
    assert firsts[-1] == (n0, e0) == (len(packed.labels), len(packed.so_rows))


def test_layout_of_packed_examples_matches_a_recount():
    """Also the loss weights and candidate slab rows pack_batch places by it."""
    rng, dims = np.random.default_rng(11), Dims(8, 4, 6, 4, 5)
    shapes = [(1, 0), (4, 5), (3, 0), (1, 0), (12, 20), (2, 2), (5, 0), (6, 9)]
    examples = [random_example(rng, dims, n=n, n_edges=m, k_candidates=4) for n, m in shapes]
    packed = pack_batch(examples, dims)
    assert_layout(packed, [(ex.features, ex.boxes, ex.object_labels,
                            [e[:2] for e in ex.edges], ex.pair_features) for ex in examples])
    b, n0, e0, slab_rows = len(examples), 0, 0, []
    for ex in examples:
        n, m = len(ex.features), len(ex.edges)
        assert np.array_equal(packed.obj_weight[n0:n0 + n], np.full(n, 1 / (b * n)))
        assert np.array_equal(packed.edge_weight[e0:e0 + m], np.full(m, 1 / (b * max(m, 1))))
        assert packed.predicates[e0:e0 + m].tolist() == [p for *_, p in ex.edges]
        slab_rows += [e0 + k for k, c in enumerate(ex.candidate_embeddings) if c is not None]
        n0, e0 = n0 + n, e0 + m
    assert packed.candidates.rows.tolist() == slab_rows and slab_rows


def test_layout_of_predict_batch_matches_a_recount(world, monkeypatch):
    data, orm, _, params = world
    batches = []
    original = train_mod.forward_edges

    def recording(params, batch, objects):
        batches.append(batch)
        return original(params, batch, objects)

    monkeypatch.setattr(train_mod, "forward_edges", recording)
    scenes = ragged_batch(data)
    assert any(not scene.pair_features for scene in scenes)
    predict_batch(params, scenes, orm, data.object_vocab, data.predicate_vocab,
                  data.embeddings, k_candidates=4)
    assert_layout(batches[0], [(scene.object_features,
                                [(b.x, b.y, b.w, b.h) for b in scene.graph.boxes()],
                                scene.graph.labels(), [p for p, _ in scene.pair_features],
                                [v for _, v in scene.pair_features]) for scene in scenes])
