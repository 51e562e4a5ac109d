import dataclasses
import inspect
import itertools
import math

import numpy as np
import pytest

from helpers import random_example
from relkit.errors import (ConfigError, EmptySceneError, FormatError,
                           InvalidBoxError)
from relkit.relhead import (Dims, Example, Toggles, classify_objects,
                            composite_loss, forward_scene, geometric_quad,
                            init_params, load_params, loss_and_gradients,
                            predict_batch, predict_relationship, save_params,
                            scene_loss, train, TrainConfig)
from relkit.relhead import model

DIMS = Dims(d=8, r=4, e=6, n_object_labels=4, n_predicate_labels=5)


def scalar_attend(q, C, W, mean_scale=True):
    """Loop-based reference for the attention procedure."""
    k = len(C)
    a = [sum(C[i][j] * q[j] for j in range(len(q))) for i in range(k)]
    mx = max(a)
    exps = [math.exp(x - mx) for x in a]
    w = [x / sum(exps) for x in exps]
    scale = 1.0 / k if mean_scale else 1.0
    v = [scale * sum(w[i] * C[i][j] for i in range(k)) for j in range(len(q))]
    qv = list(q) + v
    return [sum(qv[i] * W[i][j] for i in range(len(qv)))
            for j in range(len(q))]


def enriched_objects(features, boxes, params):
    """Object rows after the spatial projection and self-attention: the
    kernel run on a scene without edges."""
    ex = Example(np.asarray(features, dtype=np.float64),
                 np.asarray(boxes, dtype=np.float64),
                 np.zeros(len(features), np.int64), [], [], [])
    return forward_scene(params, ex).enriched


def edge_output(params, f, fi, fj, candidates=None, **toggles):
    """f3 of one edge whose input vector is f and whose subject and object
    rows are fi and fj, from the kernel with object and subject-object
    attention off unless `toggles` (Toggles fields) say otherwise. The
    geometric encoding is pinned to f[d:] and the spatial projection to the
    r-parts of fi and fj; all of it is exact in floating point."""
    params = dataclasses.replace(params.copy(), toggles=Toggles(**{
        "object_attention": False, "subject_object_attention": False,
        **toggles}))
    t, d = params.tensors, DIMS.d
    t["W_geo"][:], t["b_geo"][:] = 0.0, f[d:]
    t["W_spat"][:], t["b_spat"][:] = 0.0, 0.0
    t["W_spat"][0], t["W_spat"][1] = fi[d:], fj[d:]
    ex = Example(np.stack([fi[:d], fj[:d]]),
                 np.array([[1.0, 0.0, 1.0, 1.0], [0.0, 1.0, 1.0, 1.0]]),
                 np.zeros(2, np.int64), [(0, 1, 0)], [f[:d]],
                 [np.ones(DIMS.e)], [candidates])
    return forward_scene(params, ex).f3[0]


def text_contexts(params, candidates):
    """The text-attention context rows of a candidate set."""
    return candidates @ params.tensors["W_txt"] + params.tensors["b_txt"]


class TestAttend:
    """The attention formula, on the kernel's text-attention site."""

    def test_singleton_context(self):
        rng = np.random.default_rng(0)
        params = init_params(DIMS, seed=0)
        f = rng.normal(size=DIMS.dpr)
        cand = rng.normal(size=(1, DIMS.e))
        expected = np.concatenate([f, text_contexts(params, cand)[0]]) \
            @ params.tensors["W_att_txt"]
        for mean in (True, False):  # the 1/k factor is 1 for k = 1
            assert np.allclose(edge_output(params, f, f, f, cand,
                                           attention_mean=mean),
                               expected, atol=1e-12)

    def test_identical_rows_with_mean_factor(self):
        # k identical rows c: uniform weights, so v = c/k under the printed
        # 1/k convention, and v = c with the factor disabled
        rng = np.random.default_rng(1)
        params = init_params(DIMS, seed=1)
        f = rng.normal(size=DIMS.dpr)
        cand = np.tile(rng.normal(size=DIMS.e), (4, 1))
        c = text_contexts(params, cand)[0]
        W = params.tensors["W_att_txt"]
        assert np.allclose(edge_output(params, f, f, f, cand),
                           np.concatenate([f, c / 4]) @ W, atol=1e-12)
        assert np.allclose(edge_output(params, f, f, f, cand,
                                       attention_mean=False),
                           np.concatenate([f, c]) @ W, atol=1e-12)

    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(2)
        params = init_params(DIMS, seed=2)
        for _ in range(20):
            f = rng.normal(size=DIMS.dpr)
            cand = rng.normal(size=(2, DIMS.e))
            for mean in (True, False):
                got = edge_output(params, f, f, f, cand, attention_mean=mean)
                ref = scalar_attend(f, text_contexts(params, cand),
                                    params.tensors["W_att_txt"], mean)
                assert np.allclose(got, ref, atol=1e-10)

    def test_permutation_invariant_in_context_rows(self):
        rng = np.random.default_rng(3)
        params = init_params(DIMS, seed=3)
        for _ in range(30):
            f = rng.normal(size=DIMS.dpr)
            cand = rng.normal(size=(5, DIMS.e))
            perm = rng.permutation(5)
            assert np.allclose(edge_output(params, f, f, f, cand),
                               edge_output(params, f, f, f, cand[perm]),
                               atol=1e-12)


class TestObjectStages:
    def test_single_object_skips_attention(self):
        rng = np.random.default_rng(4)
        params = init_params(DIMS, seed=4)
        f = rng.normal(size=(1, DIMS.d))
        boxes = np.array([[1.0, 2.0, 3.0, 4.0]])
        out = enriched_objects(f, boxes, params)
        spat = boxes @ params.tensors["W_spat"] + params.tensors["b_spat"]
        assert np.allclose(out, np.hstack([f, spat]), atol=1e-12)

    def test_zero_spatial_weights_zero_columns(self):
        rng = np.random.default_rng(5)
        params = init_params(DIMS, seed=5)
        params.tensors["W_spat"][:] = 0.0
        params.tensors["b_spat"][:] = 0.0
        f = rng.normal(size=(1, DIMS.d))
        out = enriched_objects(f, np.array([[0.0, 0.0, 1.0, 1.0]]), params)
        assert np.allclose(out[:, DIMS.d:], 0.0)

    def test_matches_scalar_reference_for_three_objects(self):
        rng = np.random.default_rng(6)
        params = init_params(DIMS, seed=6)
        f = rng.normal(size=(3, DIMS.d))
        boxes = np.column_stack([rng.uniform(0, 5, 3), rng.uniform(0, 5, 3),
                                 rng.uniform(1, 2, 3), rng.uniform(1, 2, 3)])
        out = enriched_objects(f, boxes, params)
        f1 = np.hstack([f, boxes @ params.tensors["W_spat"]
                        + params.tensors["b_spat"]])
        for i in range(3):
            ctx = np.delete(f1, i, axis=0)
            ref = scalar_attend(f1[i], ctx, params.tensors["W_att_obj"])
            assert np.allclose(out[i], ref, atol=1e-10)

    def test_classifier_rows_sum_to_one(self):
        rng = np.random.default_rng(7)
        params = init_params(DIMS, seed=7)
        rows = classify_objects(rng.normal(size=(6, DIMS.dpr)), params)
        assert np.allclose(rows.sum(axis=1), 1.0, atol=1e-9)
        assert np.all((rows > 0) & (rows < 1))

    def test_uniform_under_zero_params(self):
        params = init_params(DIMS, seed=8)
        params.tensors["W_o"][:] = 0.0
        rows = classify_objects(np.random.default_rng(8).normal(size=(3, DIMS.dpr)),
                                params)
        assert np.allclose(rows, 1.0 / DIMS.n_object_labels, atol=1e-12)

    def test_argmax_matches_scalar_reference(self):
        rng = np.random.default_rng(9)
        params = init_params(DIMS, seed=9)
        feats = rng.normal(size=(5, DIMS.dpr))
        rows = classify_objects(feats, params)
        for i in range(5):
            logits = [sum(feats[i][a] * params.tensors["W_o"][a][b]
                          for a in range(DIMS.dpr))
                      + params.tensors["b_o"][b]
                      for b in range(DIMS.n_object_labels)]
            assert int(np.argmax(rows[i])) == int(np.argmax(logits))

    def test_empty_scene_rejected(self):
        params = init_params(DIMS, seed=10)
        with pytest.raises(EmptySceneError):
            enriched_objects(np.empty((0, DIMS.d)), np.empty((0, 4)), params)


class TestGeometricEncoding:
    def test_identical_boxes(self):
        box = np.array([3.0, 4.0, 2.0, 5.0])
        assert np.allclose(geometric_quad(box, box), [0, 0, 1, 1], atol=1e-12)

    def test_hand_case(self):
        quad = geometric_quad(np.array([0.0, 0.0, 2.0, 2.0]),
                              np.array([2.0, 2.0, 4.0, 4.0]))
        assert np.allclose(quad, [-1.0, -1.0, 2.0, 2.0], atol=1e-12)

    def test_identity_projection_returns_quad(self):
        params = init_params(DIMS, seed=11,
                             toggles=Toggles(subject_object_attention=False))
        params.tensors["W_geo"][:] = np.eye(4)
        params.tensors["b_geo"][:] = 0.0
        bi = np.array([1.0, 2.0, 2.0, 4.0])
        bj = np.array([0.5, 0.0, 1.0, 2.0])
        ex = Example(np.zeros((2, DIMS.d)), np.stack([bi, bj]),
                     np.zeros(2, np.int64), [(0, 1, 0)], [np.zeros(DIMS.d)],
                     [np.ones(DIMS.e)])
        f3 = forward_scene(params, ex).f3
        assert np.allclose(f3[0, DIMS.d:], geometric_quad(bi, bj), atol=1e-12)

    def test_translation_invariant(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            bi = np.array([rng.uniform(-5, 5), rng.uniform(-5, 5),
                           rng.uniform(0.5, 3), rng.uniform(0.5, 3)])
            bj = np.array([rng.uniform(-5, 5), rng.uniform(-5, 5),
                           rng.uniform(0.5, 3), rng.uniform(0.5, 3)])
            offset = np.array([rng.uniform(-10, 10), rng.uniform(-10, 10),
                               0.0, 0.0])
            assert np.allclose(geometric_quad(bi, bj),
                               geometric_quad(bi + offset, bj + offset),
                               rtol=1e-9, atol=1e-9)

    def test_invalid_box_rejected(self):
        with pytest.raises(InvalidBoxError):
            geometric_quad(np.array([0.0, 0.0, 0.0, 1.0]),
                           np.array([0.0, 0.0, 1.0, 1.0]))


class TestPairStages:
    def test_build_pair_feature_concatenates(self):
        # pair feature 0..d-1 and geometric encoding 10..10+r-1
        f = np.concatenate([np.arange(DIMS.d), np.arange(10, 10 + DIMS.r)])
        params = init_params(DIMS, seed=12)
        assert np.array_equal(edge_output(params, f, f, f), f)

    def test_build_pair_feature_checks_dims(self):
        ex = random_example(np.random.default_rng(12), DIMS)
        ex.pair_features[0] = np.ones(3)
        with pytest.raises(ConfigError, match="pair features"):
            forward_scene(init_params(DIMS, seed=12), ex)

    def test_attend_text_single_candidate(self):
        rng = np.random.default_rng(13)
        params = init_params(DIMS, seed=13)
        f = rng.normal(size=DIMS.dpr)
        cand = rng.normal(size=(1, DIMS.e))
        V = text_contexts(params, cand)
        expected = np.concatenate([f, V[0]]) @ params.tensors["W_att_txt"]
        assert np.allclose(edge_output(params, f, f, f, cand), expected,
                           atol=1e-12)

    def test_attend_text_empty_candidates_is_passthrough(self):
        rng = np.random.default_rng(14)
        params = init_params(DIMS, seed=14)
        f = rng.normal(size=DIMS.dpr)
        assert np.array_equal(edge_output(params, f, f, f, None), f)
        assert np.array_equal(
            edge_output(params, f, f, f, np.empty((0, DIMS.e))), f)

    def test_attend_text_matches_scalar_reference(self):
        rng = np.random.default_rng(15)
        params = init_params(DIMS, seed=15)
        f = rng.normal(size=DIMS.dpr)
        cand = rng.normal(size=(3, DIMS.e))
        ref = scalar_attend(f, text_contexts(params, cand), params.tensors["W_att_txt"])
        assert np.allclose(edge_output(params, f, f, f, cand), ref, atol=1e-10)

    def test_subject_object_symmetric_contexts(self):
        rng = np.random.default_rng(16)
        params = init_params(DIMS, seed=16)
        f = rng.normal(size=DIMS.dpr)
        fi = rng.normal(size=DIMS.dpr)
        got = edge_output(params, f, fi, fi, subject_object_attention=True)
        row = np.concatenate([fi, fi]) @ params.tensors["W_so"]
        # both context rows identical: weighted mean is row/k with the 1/k
        # convention (k = 2)
        expected = np.concatenate([f, row / 2]) @ params.tensors["W_att_so"]
        assert np.allclose(got, expected, atol=1e-12)

    def test_subject_object_zero_projection_uniform_weights(self):
        rng = np.random.default_rng(17)
        params = init_params(DIMS, seed=17)
        params.tensors["W_so"][:] = 0.0
        f = rng.normal(size=DIMS.dpr)
        got = edge_output(params, f, rng.normal(size=DIMS.dpr),
                          rng.normal(size=DIMS.dpr),
                          subject_object_attention=True)
        expected = np.concatenate([f, np.zeros(DIMS.dpr)]) \
            @ params.tensors["W_att_so"]
        assert np.allclose(got, expected, atol=1e-12)

    def test_subject_object_matches_scalar_reference(self):
        rng = np.random.default_rng(18)
        params = init_params(DIMS, seed=18)
        f = rng.normal(size=DIMS.dpr)
        fi = rng.normal(size=DIMS.dpr)
        fj = rng.normal(size=DIMS.dpr)
        contexts = np.stack([np.concatenate([fi, fj]) @ params.tensors["W_so"],
                             np.concatenate([fj, fi]) @ params.tensors["W_so"]])
        ref = scalar_attend(f, contexts, params.tensors["W_att_so"])
        got = edge_output(params, f, fi, fj, subject_object_attention=True)
        assert np.allclose(got, ref, atol=1e-10)

    def test_predict_relationship_probabilities(self):
        rng = np.random.default_rng(19)
        params = init_params(DIMS, seed=19)
        probs, emb = predict_relationship(rng.normal(size=DIMS.dpr), params)
        assert abs(probs.sum() - 1.0) <= 1e-9
        assert emb.shape == (DIMS.e,)
        params.tensors["W_r"][:] = 0.0
        params.tensors["b_r"][:] = 0.0
        probs, _ = predict_relationship(rng.normal(size=DIMS.dpr), params)
        assert np.allclose(probs, 1.0 / DIMS.n_predicate_labels, atol=1e-12)


class TestCompositeLoss:
    def test_perfect_predictions_near_zero(self):
        eps = 1e-12
        n_obj, n_pred = 3, 4
        obj_probs = np.full((2, n_obj), eps)
        obj_probs[0, 1] = 1.0 - (n_obj - 1) * eps
        obj_probs[1, 0] = 1.0 - (n_obj - 1) * eps
        rel_probs = np.full((1, n_pred), eps)
        rel_probs[0, 2] = 1.0 - (n_pred - 1) * eps
        emb = np.array([1.0, 2.0, 3.0])
        loss = composite_loss([1, 0], obj_probs, [2], rel_probs,
                              [emb], [2.0 * emb], (1.0, 1.0, 1.0))
        bound = -math.log(1.0 - (n_pred - 1) * eps)
        assert 0.0 <= loss <= 2 * bound + 1e-9

    def test_lambda_isolates_object_term(self):
        rng = np.random.default_rng(20)
        obj_probs = rng.dirichlet(np.ones(3), size=2)
        rel_probs = rng.dirichlet(np.ones(4), size=1)
        loss = composite_loss([0, 2], obj_probs, [1], rel_probs,
                              [rng.normal(size=3)], [rng.normal(size=3)],
                              (1.0, 0.0, 0.0))
        expected = -(math.log(obj_probs[0, 0]) + math.log(obj_probs[1, 2])) / 2
        assert math.isclose(loss, expected, rel_tol=1e-12)

    def test_hand_computed_case(self):
        obj_probs = np.array([[0.7, 0.2, 0.1]])
        rel_probs = np.array([[0.6, 0.4]])
        u = np.array([1.0, 0.0])
        v = np.array([1.0, 1.0])
        loss = composite_loss([0], obj_probs, [1], rel_probs, [u], [v],
                              (2.0, 3.0, 0.5))
        expected = (2.0 * -math.log(0.7) + 3.0 * -math.log(0.4)
                    + 0.5 * (1.0 - 1.0 / math.sqrt(2.0)))
        assert math.isclose(loss, expected, rel_tol=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            obj = rng.dirichlet(np.ones(3), size=2)
            rel = rng.dirichlet(np.ones(4), size=2)
            loss = composite_loss([0, 1], obj, [2, 3], rel,
                                  [rng.normal(size=3) for _ in range(2)],
                                  [rng.normal(size=3) for _ in range(2)],
                                  tuple(rng.uniform(0, 2, size=3)))
            assert loss >= 0.0


def finite_difference_grads(params, batch, h=1e-5):
    grads = {}
    for name, arr in params.tensors.items():
        num = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            orig = arr[ix]
            arr[ix] = orig + h
            up = np.mean([scene_loss(forward_scene(params, ex), ex,
                                     params.lambdas) for ex in batch])
            arr[ix] = orig - h
            down = np.mean([scene_loss(forward_scene(params, ex), ex,
                                       params.lambdas) for ex in batch])
            arr[ix] = orig
            num[ix] = (up - down) / (2 * h)
        grads[name] = num
    return grads


class TestGradients:
    def test_zero_lambdas_zero_gradients(self):
        rng = np.random.default_rng(22)
        params = init_params(DIMS, seed=22, lambdas=(0.0, 0.0, 0.0))
        batch = [random_example(rng, DIMS)]
        loss, grads = loss_and_gradients(params, batch)
        assert loss == 0.0
        assert all(np.all(g == 0.0) for g in grads.values())

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(23)
        params = init_params(DIMS, seed=23, scale=0.3)
        batch = [random_example(rng, DIMS) for _ in range(2)]
        _, analytic = loss_and_gradients(params, batch)
        numeric = finite_difference_grads(params, batch)
        for name in analytic:
            denom = np.maximum(np.maximum(np.abs(analytic[name]),
                                          np.abs(numeric[name])), 1e-8)
            rel = np.abs(analytic[name] - numeric[name]) / denom
            assert rel.max() <= 1e-4, name

    def test_cosine_gradient_orthogonal_to_prediction(self):
        # scale invariance of cosine: d(1-cos)/dv is orthogonal to v
        rng = np.random.default_rng(24)
        params = init_params(DIMS, seed=24, lambdas=(0.0, 0.0, 1.0))
        ex = random_example(rng, DIMS, n_edges=1)
        trace = forward_scene(params, ex)
        v_hat = trace.pred_emb[0]
        _, grads = loss_and_gradients(params, [ex])
        # reconstruct dL/dv from the b_re gradient (b_re feeds v directly)
        assert abs(float(np.dot(grads["b_re"], v_hat))) <= 1e-8

    def test_softmax_rows_in_unit_interval(self):
        rng = np.random.default_rng(26)
        params = init_params(DIMS, seed=26)
        ex = random_example(rng, DIMS)
        trace = forward_scene(params, ex)
        assert np.allclose(trace.obj_probs.sum(axis=1), 1.0, atol=1e-9)
        assert np.all((trace.obj_probs > 0) & (trace.obj_probs < 1))
        for rel_probs in trace.rel_probs:
            assert abs(rel_probs.sum() - 1.0) <= 1e-9


class TestAblationPassthrough:
    def test_all_off_pipeline_still_valid(self):
        rng = np.random.default_rng(27)
        params = init_params(DIMS, seed=27, toggles=Toggles(
            object_attention=False, geometric_objects=False,
            geometric_relationships=False, subject_object_attention=False))
        ex = random_example(rng, DIMS, with_candidates=False)
        trace = forward_scene(params, ex)
        # geometry off: enriched rows are visual features + zero block
        assert np.array_equal(trace.enriched[:, DIMS.d:],
                              np.zeros((ex.features.shape[0], DIMS.r)))
        assert np.array_equal(trace.enriched[:, :DIMS.d], ex.features)
        # no candidates + s-o attention off: f''' equals the raw pair feature
        for idx, f3 in enumerate(trace.f3):
            assert np.array_equal(f3[:DIMS.d], ex.pair_features[idx])
        assert np.allclose(trace.obj_probs.sum(axis=1), 1.0, atol=1e-9)

    def test_disabled_mechanisms_get_zero_gradients(self):
        rng = np.random.default_rng(28)
        params = init_params(DIMS, seed=28, toggles=Toggles(
            object_attention=False, geometric_objects=False,
            geometric_relationships=False, subject_object_attention=False))
        batch = [random_example(rng, DIMS, with_candidates=False)]
        _, grads = loss_and_gradients(params, batch)
        for name in ("W_att_obj", "W_spat", "b_spat", "W_geo", "b_geo",
                     "W_so", "W_att_so", "W_att_txt", "W_txt", "b_txt"):
            assert np.all(grads[name] == 0.0), name


class TestTraining:
    def _tiny_setup(self, seed=0):
        from relkit.embed import EmbeddingTable
        from relkit.orm import build_orm
        from relkit.corpus import Triplet, TripletCorpus
        from relkit.core import Vocabulary
        rng = np.random.default_rng(seed)
        obj_vocab = Vocabulary.make([(f"o{i}", 1)
                                     for i in range(DIMS.n_object_labels)])
        pred_vocab = Vocabulary.make([(f"r{i}", 1)
                                      for i in range(DIMS.n_predicate_labels)])
        table = EmbeddingTable(DIMS.e, {
            t: rng.normal(size=DIMS.e)
            for t in obj_vocab.labels + pred_vocab.labels})
        corpus = TripletCorpus()
        for i in range(DIMS.n_predicate_labels):
            corpus.add(Triplet("o0", f"r{i}", "o1", weight=i + 1))
        examples = [random_example(rng, DIMS, with_candidates=False)
                    for _ in range(4)]
        return examples, build_orm(corpus), obj_vocab, table

    def test_zero_learning_rate_keeps_params(self):
        examples, orm, obj_vocab, table = self._tiny_setup()
        params = init_params(DIMS, seed=1)
        cfg = TrainConfig(learning_rate=0.0, epochs=3, seed=1)
        trained, _ = train(cfg, examples, orm, obj_vocab, table, params)
        for name in params.tensors:
            assert np.array_equal(trained.tensors[name], params.tensors[name])

    def test_trains_with_checkpoint_loss_weights(self):
        # all-zero weights in the params mean a zero gradient: nothing moves
        examples, orm, obj_vocab, table = self._tiny_setup()
        params = init_params(DIMS, seed=1, lambdas=(0.0, 0.0, 0.0))
        cfg = TrainConfig(learning_rate=0.5, epochs=1, seed=1)
        trained, _ = train(cfg, examples, orm, obj_vocab, table, params)
        for name in params.tensors:
            assert np.array_equal(trained.tensors[name], params.tensors[name])

    # K = 5 keeps every edge's static set; K = 2 redraws all 8 edges per epoch
    @pytest.mark.parametrize("k", [5, 2])
    def test_same_seed_bit_identical_losses(self, k):
        # both runs share one Example list, as a benchmark's repeated runs do
        examples, orm, obj_vocab, table = self._tiny_setup()
        params = init_params(DIMS, seed=2)
        cfg = TrainConfig(learning_rate=0.1, epochs=5, seed=7, k_candidates=k)
        trained1, losses1 = train(cfg, examples, orm, obj_vocab, table, params)
        trained2, losses2 = train(cfg, examples, orm, obj_vocab, table, params)
        assert losses1 == losses2
        for name in params.tensors:
            assert trained1.tensors[name].tobytes() \
                == trained2.tensors[name].tobytes(), name

    def test_empty_dataset_rejected(self):
        _, orm, obj_vocab, table = self._tiny_setup()
        with pytest.raises(ConfigError):
            train(TrainConfig(), [], orm, obj_vocab, table,
                  init_params(DIMS, seed=0))


@pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf])
def test_init_params_rejects_a_non_finite_loss_weight(weight):
    # nan > 0 is False, so a NaN weight would silently switch its term off
    with pytest.raises(ConfigError, match="^loss weights must be >= 0"):
        init_params(DIMS, seed=0, lambdas=(weight, 1.0, 1.0))


class TestCheckpoint:
    def test_round_trip_exact(self, tmp_path):
        params = init_params(DIMS, seed=30, lambdas=(0.5, 1.0, 2.0))
        path = tmp_path / "ckpt.txt"
        save_params(params, path)
        loaded = load_params(path)
        assert loaded.dims == params.dims
        assert loaded.lambdas == params.lambdas
        for name in params.tensors:
            assert np.array_equal(loaded.tensors[name], params.tensors[name])

    def test_save_is_byte_deterministic(self, tmp_path):
        params = init_params(DIMS, seed=31)
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        save_params(params, p1)
        save_params(params, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncated_checkpoint_rejected(self, tmp_path):
        params = init_params(DIMS, seed=32)
        path = tmp_path / "ckpt.txt"
        save_params(params, path)
        text = path.read_text().splitlines()
        path.write_text("\n".join(text[:len(text) // 2]))
        with pytest.raises(FormatError):
            load_params(path)

    def test_bad_value_names_its_line(self, tmp_path):
        path = tmp_path / "ckpt.txt"
        save_params(init_params(DIMS, seed=33), path)
        lines = path.read_text().splitlines()
        lines[9] = "x"  # a value line inside the first tensor block
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match=f"{path}:10: could not convert"):
            load_params(path)

    def test_every_switch_combination_round_trips(self, tmp_path):
        path = tmp_path / "ckpt.txt"
        for bits in itertools.product([False, True], repeat=5):
            params = init_params(DIMS, seed=34, toggles=Toggles(*bits))
            save_params(params, path)
            assert path.read_text().splitlines()[3] == \
                "toggles " + " ".join(str(int(b)) for b in bits)
            assert load_params(path).toggles == Toggles(*bits)
            assert load_params(path).copy().toggles == Toggles(*bits)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "ckpt.txt"
        path.write_text("not a checkpoint\n")
        with pytest.raises(FormatError):
            load_params(path)


@pytest.mark.parametrize("fn", [
    model.forward_objects, model.forward_edges, model.forward_batch,
    model.forward_scene, model.backward_scene, model.loss_and_gradients,
    predict_batch], ids=lambda fn: fn.__name__)
def test_switches_are_read_from_params(fn):
    assert "toggles" not in inspect.signature(fn).parameters
