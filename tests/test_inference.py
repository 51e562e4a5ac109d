"""Scene inference against the scene-at-a-time reference model, and the
errors malformed scenes raise.

`predict_batch` must score every pair as `reference_relhead.forward_scene`
scores the equivalent `Example`: the scene's objects, one edge per ingested
pair in ascending order, and per edge the embedded top-K ORM phrases of
its endpoint labels (the ground-truth labels under Pred-Cls, the
reference's own argmax labels under SG-Cls).
"""

import itertools
import re

import numpy as np
import pytest

import reference_relhead as ref
from helpers import random_instance
from relkit.core import SceneGraph, SceneInstance
from relkit.errors import ConfigError, EmptySceneError
from relkit.orm import lookup
from relkit.relhead import Example, ModelParams, Toggles, predict_batch
from test_candidates import WORLD, make_world, reference_rows

ALL_TOGGLES = [Toggles(*bits) for bits in itertools.product([False, True],
                                                            repeat=5)]
K = 4
TOL = 1e-12


@pytest.fixture(scope="module")
def world():
    return make_world()


def ragged_scenes(data):
    """World scenes, random scenes of 1..8 objects, and a scene whose edges
    have no pair features."""
    rng = np.random.default_rng(23)
    ragged = [random_instance(rng, n=n, n_edges=int(rng.integers(0, 2 * n)),
                              n_obj_labels=len(data.object_vocab),
                              n_pred_labels=len(data.predicate_vocab),
                              d=WORLD.d) for n in range(1, 9)]
    bare = data.test_scenes[1]
    bare = SceneInstance(bare.graph, bare.object_features)
    return data.test_scenes[:3] + ragged[:4] + [bare] + ragged[4:] + \
        data.train_scenes[:2]


def reference_prediction(params, scene, orm, data, protocol):
    """The scene's pairs and the reference forward pass over them."""
    pair_map = scene.pair_feature_map()
    pairs = sorted(pair_map)
    g = scene.graph
    ex = Example(np.array(scene.object_features, dtype=np.float64),
                 np.array([[b.x, b.y, b.w, b.h] for b in g.boxes()]),
                 np.array(g.labels(), dtype=np.int64),
                 [(s, o, 0) for s, o in pairs], [pair_map[p] for p in pairs],
                 [np.zeros(params.dims.e)] * len(pairs), [])
    ids = g.labels()
    if protocol == "sgcls":
        ids = ref.forward_scene(params, ex, params.toggles).obj_probs.argmax(
            axis=1).tolist()
    labels = data.object_vocab.labels
    ex.candidate_embeddings = [reference_rows(data.embeddings, [
        r for r, _ in lookup(orm, labels[ids[s]], labels[ids[o]]).entries[:K]],
        False) for s, o in pairs]
    return pairs, ref.forward_scene(params, ex, params.toggles)


@pytest.mark.parametrize("toggles", ALL_TOGGLES, ids=str)
@pytest.mark.parametrize("protocol", ["predcls", "sgcls"])
def test_predict_batch_matches_reference_model(world, protocol, toggles):
    data, orm, _, params = world
    params = ModelParams(params.dims, params.tensors, params.lambdas, toggles)
    scenes = ragged_scenes(data)
    got = predict_batch(params, scenes, orm, data.object_vocab,
                        data.predicate_vocab, data.embeddings, k_candidates=K,
                        protocol=protocol)
    assert len(got) == len(scenes)
    attended = 0
    for scene, (pred, embs) in zip(scenes, got):
        pairs, want = reference_prediction(params, scene, orm, data, protocol)
        assert list(pred.pair_probs) == list(embs) == pairs
        for pair, edge in zip(pairs, want.edge_traces):
            np.testing.assert_allclose(pred.pair_probs[pair], edge.rel_probs,
                                       rtol=0, atol=TOL)
            np.testing.assert_allclose(embs[pair], edge.pred_emb, rtol=0,
                                       atol=TOL)
            attended += edge.txt_cache is not None
        if protocol == "predcls":
            assert pred.object_probs is None
        else:
            np.testing.assert_allclose(pred.object_probs, want.obj_probs,
                                       rtol=0, atol=TOL)
    assert attended  # some edges ran text attention


def faulty(scene, fault, data):
    """`scene` with one fault, and the exception it raises from scene 1."""
    g, d = scene.graph, WORLD.d
    n, n_labels = g.n_objects, len(data.object_vocab)
    pair_map = scene.pair_feature_map()
    if fault == "object-width":
        rows = [list(row) + [0.5] for row in scene.object_features]
        return (SceneInstance.make(g, rows, pair_map), ConfigError,
                f"scene 1: object features have shape ({n}, {d + 1}), "
                f"expected ({n}, {d})")
    if fault == "pair-width":
        pair = sorted(pair_map)[1]
        pair_map[pair] = np.append(pair_map[pair], [1.0, 2.0])
        return (SceneInstance.make(g, scene.object_features, pair_map),
                ConfigError, f"scene 1 edge 1: pair features have shape "
                             f"({d + 2},), expected ({d},)")
    if fault == "label":
        objects = list(g.objects)
        objects[2] = (n_labels, objects[2][1])
        return (SceneInstance.make(SceneGraph.make(objects, g.edges),
                                   scene.object_features, pair_map),
                ConfigError,
                f"scene 1 object 2: label {n_labels} outside [0, {n_labels})")
    assert fault == "no-objects"
    return (SceneInstance(SceneGraph((), ())), EmptySceneError,
            "scene 1 has no objects")


@pytest.mark.parametrize("protocol", ["predcls", "sgcls"])
@pytest.mark.parametrize("fault", ["object-width", "pair-width", "label",
                                   "no-objects"])
def test_malformed_scene_keeps_its_error(world, fault, protocol):
    data, orm, _, params = world
    scenes = list(data.test_scenes[:3])
    scenes[1], error, message = faulty(scenes[1], fault, data)
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        predict_batch(params, scenes, orm, data.object_vocab,
                      data.predicate_vocab, data.embeddings, k_candidates=K,
                      protocol=protocol)
