"""The batched relationship-head kernel against the per-edge reference.

reference_relhead.py is the scene-at-a-time implementation the kernel
replaced. Loss and every gradient must agree to 1e-12 relative error per
tensor in max-norm, over mixed object counts, edgeless scenes, ragged and
empty candidate sets, all ablation switches and loss weights with zeros.
"""

import itertools

import numpy as np
import pytest

import reference_relhead as ref
from helpers import random_example
from relkit.errors import (ConfigError, EmptySceneError, InvalidBoxError,
                           NumericError)
from relkit.relhead import (Dims, Example, ModelParams, Toggles, forward_scene,
                            geometric_quad, init_params, loss_and_gradients,
                            scene_loss)
from relkit.relhead.model import CE_EPS, forward_batch, pack_batch

DIMS = Dims(d=8, r=4, e=6, n_object_labels=4, n_predicate_labels=5)
ALL_TOGGLES = [Toggles(*bits) for bits in itertools.product([False, True],
                                                            repeat=5)]
LAMBDAS = [(1.0, 1.0, 1.0), (0.5, 0.0, 2.0), (0.0, 1.5, 0.0),
           (0.0, 0.0, 1.0), (0.0, 0.0, 0.0)]
TOL = 1e-12


def mixed_batch(seed):
    """Scenes of 1..6 objects, two edgeless, ragged and empty candidate sets."""
    rng = np.random.default_rng(seed)
    shapes = [(1, 0), (2, 2), (3, 0), (4, 5), (5, 3), (6, 6), (3, 2)]
    batch = [random_example(rng, DIMS, n=n, n_edges=m, k_candidates=4)
             for n, m in shapes]
    sets = [c for ex in batch for c in ex.candidate_embeddings]
    assert any(c is None for c in sets)
    assert len({len(c) for c in sets if c is not None}) > 1
    return batch


def assert_matches_reference(params, batch, toggles, lambdas):
    params = ModelParams(params.dims, params.tensors, lambdas, toggles)
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        loss, grads = loss_and_gradients(params, batch)
    ref_loss, ref_grads = ref.loss_and_gradients(params, batch, toggles)
    assert abs(loss - ref_loss) <= TOL * abs(ref_loss)
    assert set(grads) == set(ref_grads)
    for name, expected in ref_grads.items():
        scale = np.abs(expected).max()
        err = np.abs(grads[name] - expected).max()
        assert err <= TOL * scale, (name, err, scale)


@pytest.mark.parametrize("toggles", ALL_TOGGLES, ids=str)
def test_matches_reference_for_every_toggle_combination(toggles):
    params = init_params(DIMS, seed=5, scale=0.3)
    for i, lambdas in enumerate(LAMBDAS):
        assert_matches_reference(params, mixed_batch(i), toggles, lambdas)


@pytest.mark.parametrize("batch", [
    [random_example(np.random.default_rng(12), DIMS, n=3, n_edges=2,
                    with_candidates=False) for _ in range(4)],
    [random_example(np.random.default_rng(13), DIMS, n=1, n_edges=0)
     for _ in range(3)],
    [random_example(np.random.default_rng(14), DIMS, n=4, n_edges=0)],
], ids=["no-candidates", "single-objects", "no-edges"])
def test_matches_reference_on_degenerate_batches(batch):
    params = init_params(DIMS, seed=6, scale=0.3)
    for toggles in (Toggles(), Toggles(attention_mean=False)):
        assert_matches_reference(params, batch, toggles, (1.0, 0.7, 1.3))


def test_clamped_cross_entropy_matches_reference():
    params = init_params(DIMS, seed=7, scale=0.3)
    params.tensors["b_o"][0] = -200.0
    params.tensors["b_r"][1] = -200.0
    batch = mixed_batch(20)
    for ex in batch:
        ex.object_labels[:] = 0
        ex.edges = [(i, j, 1) for i, j, _ in ex.edges]
    trace = forward_batch(params, pack_batch(batch, DIMS))
    assert np.all(trace.obj_probs[:, 0] <= CE_EPS)
    assert np.all(trace.rel_probs[:, 1] <= CE_EPS)
    assert_matches_reference(params, batch, Toggles(), (1.0, 1.0, 1.0))


def test_ragged_batch_stays_finite():
    params = init_params(DIMS, seed=8, scale=0.3)
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        trace = forward_batch(params, pack_batch(mixed_batch(30), DIMS))
    for name in ("enriched", "obj_probs", "f3", "rel_probs", "pred_emb"):
        assert np.all(np.isfinite(getattr(trace, name))), name


def test_forward_scene_is_the_batch_row():
    params = init_params(DIMS, seed=9, scale=0.3)
    batch = mixed_batch(40)
    trace = forward_batch(params, pack_batch(batch, DIMS))
    obj_row = edge_row = 0
    for ex in batch:
        one = forward_scene(params, ex)
        n, m = len(ex.features), len(ex.edges)
        assert np.allclose(one.obj_probs, trace.obj_probs[obj_row:obj_row + n],
                           rtol=0, atol=1e-14)
        assert np.allclose(one.pred_emb, trace.pred_emb[edge_row:edge_row + m],
                           rtol=0, atol=1e-14)
        obj_row, edge_row = obj_row + n, edge_row + m


@pytest.mark.parametrize("scene", range(7))
@pytest.mark.parametrize("lambdas", LAMBDAS, ids=str)
def test_scene_loss_is_the_batch_loss_of_one_scene(lambdas, scene):
    """Bit for bit, with terms off, on one-object and edgeless scenes and
    edges without candidates: one loss path serves both callers."""
    params = init_params(DIMS, seed=9, scale=0.3)
    params = ModelParams(params.dims, params.tensors, lambdas, params.toggles)
    ex = mixed_batch(41)[scene]
    loss = scene_loss(forward_scene(params, ex), ex, lambdas)
    assert loss == loss_and_gradients(params, [ex])[0]


def test_scene_loss_rejects_another_example():
    params = init_params(DIMS, seed=9, scale=0.3)
    rng = np.random.default_rng(45)
    ex = random_example(rng, DIMS, n=3, n_edges=2)
    trace = forward_scene(params, ex)
    with pytest.raises(ConfigError, match="edge count"):
        scene_loss(trace, random_example(rng, DIMS, n=3, n_edges=1),
                   (1.0, 1.0, 1.0))


@pytest.mark.parametrize("mean", [True, False], ids=["mean", "sum"])
@pytest.mark.parametrize("site", ["text", "subject-object", "object"])
def test_attention_weights_match_reference(site, mean):
    """Each site's weights, the third entry of its cache: text (G, K), zero
    at the padding; subject-object (E, 2); object (scenes, n, n) per
    group, zero on the diagonal. Every row is a distribution and matches
    the reference's per-edge or per-object weights."""
    rng = np.random.default_rng(60)
    batch = [random_example(rng, DIMS, n=n, n_edges=5) for n in (4, 1, 3, 4)]
    sizes = itertools.cycle([1, 2, None, 3, 4])
    for ex in batch:
        ex.candidate_embeddings = [None if k is None else rng.normal(size=(k, DIMS.e))
                                   for k, _ in zip(sizes, ex.edges)]
    toggles = Toggles(attention_mean=mean)
    params = init_params(DIMS, seed=11, scale=0.3)
    params = ModelParams(params.dims, params.tensors, params.lambdas, toggles)
    packed = pack_batch(batch, DIMS)
    trace = forward_batch(params, packed)
    edges = [et for ex in batch for et in ref.forward_scene(params, ex, toggles).edge_traces]
    if site == "text":
        w = trace.txt_cache[2]
        lengths = [len(c) for ex in batch for c in ex.candidate_embeddings if c is not None]
        assert sorted(set(lengths)) == [1, 2, 3, 4]
        assert w.shape == (len(lengths), 4)
        assert all(np.all(row[k:] == 0.0) for row, k in zip(w, lengths))
        rows, got = [w], [row[:k] for row, k in zip(w, lengths)]
        expected = [et.txt_cache[2] for et in edges if et.txt_cache is not None]
    elif site == "subject-object":
        w = trace.so_cache[2]
        assert w.shape == (len(edges), 2)
        rows, got, expected = [w], list(w), [et.so_cache[2] for et in edges]
    else:
        starts = np.cumsum([0] + [len(ex.features) for ex in batch])
        rows, got, expected = [], [], []
        for group, cache in zip(packed.obj_groups, trace.obj_caches, strict=True):
            w, n = cache[2], group.shape[1]
            assert w.shape == (len(group), n, n)
            assert np.all(w[:, np.arange(n), np.arange(n)] == 0.0)
            rows.append(w.reshape(-1, n))
            for scene_rows, scene_w in zip(group, w):
                ex = batch[int(np.searchsorted(starts, scene_rows[0]))]
                got += [row[np.arange(n) != i] for i, row in enumerate(scene_w)]
                expected += [c[2] for c in ref.forward_scene(params, ex, toggles).obj_caches]
        assert len(got) == sum(len(ex.features) for ex in batch if len(ex.features) > 1)
    assert all(np.all(np.abs(w.sum(axis=1) - 1.0) <= 1e-12) for w in rows)
    for row, want in zip(got, expected, strict=True):
        assert np.abs(row - want).max() <= 1e-12


def test_static_pack_reuse_repacks_candidates():
    rng = np.random.default_rng(50)
    params = init_params(DIMS, seed=10, scale=0.3)
    batch = mixed_batch(50)
    packed = pack_batch(batch, DIMS)
    stale_loss, _ = loss_and_gradients(params, batch)
    for ex in batch:  # a new draw
        ex.candidate_embeddings = [
            rng.normal(size=(int(rng.integers(1, 4)), DIMS.e)) for _ in ex.edges]
    # a given pack is used as it is, stale candidates included
    assert loss_and_gradients(params, batch, packed=packed)[0] == stale_loss
    packed.candidates = pack_batch(batch, DIMS).candidates
    loss, grads = loss_and_gradients(params, batch, packed=packed)
    fresh_loss, fresh = loss_and_gradients(params, batch)
    assert loss == fresh_loss
    assert all(np.array_equal(grads[k], fresh[k]) for k in grads)


# ---------------------------------------------------------------------------
# Typed errors
# ---------------------------------------------------------------------------

def test_empty_batch_and_empty_scene():
    params = init_params(DIMS, seed=11)
    with pytest.raises(EmptySceneError):
        loss_and_gradients(params, [])
    empty = Example(np.zeros((0, DIMS.d)), np.zeros((0, 4)),
                    np.zeros(0, dtype=np.int64), [], [], [], [])
    good = random_example(np.random.default_rng(0), DIMS)
    with pytest.raises(EmptySceneError, match="scene 1"):
        loss_and_gradients(params, [good, empty])
    with pytest.raises(EmptySceneError):
        forward_scene(params, empty)


def test_non_positive_edge_box():
    params = init_params(DIMS, seed=12)
    good = random_example(np.random.default_rng(1), DIMS)
    bad = random_example(np.random.default_rng(2), DIMS, n=3, n_edges=2)
    bad.boxes[bad.edges[1][1], 2] = 0.0
    with pytest.raises(InvalidBoxError, match="positive box sizes"):
        loss_and_gradients(params, [good, bad])
    with pytest.raises(InvalidBoxError):
        ref.loss_and_gradients(params, [good, bad])
    # without the geometric edge encoding the box is never divided by
    off = Toggles(geometric_relationships=False)
    assert_matches_reference(params, [good, bad], off, (1.0, 1.0, 1.0))


@pytest.mark.parametrize("size", [0.0, -1.0])
def test_quad_is_per_edge_geometric_quad(size):
    batch = mixed_batch(3)
    want = np.array([geometric_quad(ex.boxes[i], ex.boxes[j])
                     for ex in batch for i, j, _ in ex.edges])
    assert pack_batch(batch, DIMS).quad.tobytes() == want.tobytes()
    batch[2].boxes[1, 2] = size  # an object of an edgeless scene: never read
    assert pack_batch(batch, DIMS).quad.tobytes() == want.tobytes()
    i, j, _ = batch[3].edges[-1]
    batch[3].boxes[j, 3] = size  # an endpoint
    with pytest.raises(InvalidBoxError, match="positive box sizes"):
        pack_batch(batch, DIMS).quad


@pytest.mark.parametrize("field", ["pair_features", "target_embeddings"])
@pytest.mark.parametrize("change", [-1, 1], ids=["fewer", "more"])
def test_pack_needs_a_pair_feature_and_target_per_edge(field, change):
    ex = random_example(np.random.default_rng(4), DIMS, n=3, n_edges=2)
    values = getattr(ex, field)
    setattr(ex, field, values[:-1] if change < 0 else values + values[:1])
    with pytest.raises(ConfigError, match="scene 1: need a pair feature and "
                                          "a target embedding per edge"):
        pack_batch([random_example(np.random.default_rng(5), DIMS), ex], DIMS)


def test_zero_target_vector_and_non_finite_inputs():
    params = init_params(DIMS, seed=13)
    ex = random_example(np.random.default_rng(3), DIMS)
    ex.target_embeddings[0] = np.zeros(DIMS.e)
    with pytest.raises(NumericError, match="zero vector"):
        loss_and_gradients(params, [ex])
    loss_and_gradients(ModelParams(params.dims, params.tensors,
                                   (1.0, 1.0, 0.0)), [ex])  # unused
    for field, value in (("features", np.inf), ("pair_features", np.nan)):
        ex = random_example(np.random.default_rng(4), DIMS)
        if field == "features":
            ex.features[1, 2] = value
        else:
            ex.pair_features[0][3] = value
        with pytest.raises(NumericError, match="non-finite"):
            loss_and_gradients(params, [ex])


def _corrupt(attr):
    ex = random_example(np.random.default_rng(5), DIMS, n=3, n_edges=2,
                        with_candidates=False)
    if attr == "features":
        ex.features = np.zeros((3, DIMS.d + 1))
    elif attr == "pair_features":
        ex.pair_features[1] = np.zeros(DIMS.d - 1)
    elif attr == "target_embeddings":
        ex.target_embeddings[1] = np.zeros(DIMS.e + 2)
    elif attr == "candidate_embeddings":
        ex.candidate_embeddings = [None, np.zeros((2, DIMS.e + 1))]
    elif attr in ("label-high", "label-negative"):
        ex.object_labels[2] = DIMS.n_object_labels if attr == "label-high" else -1
    elif attr in ("predicate-high", "predicate-negative"):
        i, j, _ = ex.edges[1]
        p = DIMS.n_predicate_labels if attr == "predicate-high" else -1
        ex.edges[1] = (i, j, p)
    elif attr == "endpoint":
        ex.edges[1] = (0, -1, 0)
    return ex


@pytest.mark.parametrize("attr, where", [
    ("features", r"scene 1: object features"),
    ("pair_features", r"scene 1 edge 1: pair features"),
    ("target_embeddings", r"scene 1 edge 1: target embeddings"),
    ("candidate_embeddings", r"scene 1 edge 1: candidate embeddings"),
    ("label-high", r"scene 1 object 2: label 4"),
    ("label-negative", r"scene 1 object 2: label -1"),
    ("predicate-high", r"scene 1 edge 1: predicate id 5"),
    ("predicate-negative", r"scene 1 edge 1: predicate id -1"),
    ("endpoint", r"scene 1 edge 1: endpoint"),
])
def test_bad_widths_and_ids_are_config_errors(attr, where):
    params = init_params(DIMS, seed=14)
    good = random_example(np.random.default_rng(6), DIMS)
    with pytest.raises(ConfigError, match=where):
        loss_and_gradients(params, [good, _corrupt(attr)])
