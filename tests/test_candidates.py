"""Pooled candidate embeddings against the reference paths they replaced.

`CandidateIndex` and `predict_scene` turn ORM candidates into embeddings
through `embed_phrases`, which pools each phrase once per table. The first
reference is one `embed_phrase` call per candidate phrase, the known rows
stacked with `np.stack`. The second is the per-edge draw that training ran
before the index: `sample_candidates` for every edge in every epoch, then
`embed_phrases` per edge, then the sets grouped by size.
"""

import importlib

import numpy as np
import pytest

from helpers import random_instance
from relkit.core import SceneInstance, Vocabulary
from relkit.corpus import Triplet, TripletCorpus
from relkit.embed import EmbeddingTable, embed_phrase, embed_phrases
from relkit.errors import ConfigError, OutOfVocabularyError
from relkit.orm import build_orm, lookup, sample_candidates
from relkit.relhead import (CandidateIndex, Dims, TrainConfig,
                            build_example, draw_candidates, init_params,
                            loss_and_gradients, predict_batch, predict_scene,
                            train)
from relkit.relhead.model import forward_objects, pack_batch
from relkit.synth import SynthConfig, generate

# the package exports the function `train` under the submodule's name
train_mod = importlib.import_module("relkit.relhead.train")

OOV = "zorp blick"            # no token in the embedding table
PARTLY_KNOWN = "relab zorp"   # pools to relab's vector alone
TWO_TOKENS = "relac relab"    # the mean of two known tokens


def reference_rows(table, phrases, strict):
    rows = []
    for phrase in phrases:
        vec, known = embed_phrase(table, phrase, strict=strict)
        if known:
            rows.append(vec)
    return np.stack(rows) if rows else None


def reference_seed(seed, epoch, scene_idx, edge_idx):
    return ((seed * 1000003 + epoch) * 1000003 + scene_idx) * 1000003 + edge_idx


def reference_draw(examples, orm, object_vocab, table, cfg, epoch):
    out = []
    for si, ex in enumerate(examples):
        for ei, (i, j, _p) in enumerate(ex.edges):
            phrases = sample_candidates(
                orm, object_vocab.labels[int(ex.object_labels[i])],
                object_vocab.labels[int(ex.object_labels[j])],
                cfg.m_candidates, cfg.k_candidates,
                seed=reference_seed(cfg.seed, epoch, si, ei),
                backoff=cfg.orm_backoff)
            out.append(reference_rows(table, phrases, cfg.strict_oov))
    return out


def assert_same_sets(got, expected):
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        if e is None:
            assert g is None
        else:
            assert g.dtype == e.dtype and g.shape == e.shape
            assert np.array_equal(g, e)


def drawn(examples):
    return [c for ex in examples for c in ex.candidate_embeddings]


def make_world(oov=True):
    """A synth world whose ORM, built from half the train scenes, carries
    an OOV phrase (unless `oov` is false), a partly known and a two-token
    phrase, so that candidate sets mix known and unknown phrases and unseen
    pairs back off."""
    data = generate(SynthConfig(n_object_labels=5, n_seen_predicates=8,
                                n_train_scenes=20, n_test_scenes=10,
                                objects_per_scene=4, edges_per_scene=4,
                                seed=3))
    labels = data.object_vocab.labels
    corpus = TripletCorpus()
    for scene in data.train_scenes[:10]:
        ids = scene.graph.labels()
        for s, o, p in scene.graph.edges:
            corpus.add(Triplet(labels[ids[s]], data.predicate_vocab.labels[p],
                               labels[ids[o]]))
    for i, (s, o) in enumerate([(0, 1), (1, 2), (2, 0), (3, 4)]):
        if oov:
            corpus.add(Triplet(labels[s], OOV, labels[o], weight=50))
        corpus.add(Triplet(labels[o], PARTLY_KNOWN, labels[s], weight=40 + i))
        corpus.add(Triplet(labels[s], TWO_TOKENS, labels[s], weight=30))
    orm = build_orm(corpus)
    examples = [build_example(s, data.object_vocab, data.predicate_vocab,
                              data.embeddings) for s in data.train_scenes]
    cfg = data.config
    dims = Dims(cfg.d, cfg.r, cfg.e, len(data.object_vocab),
                len(data.predicate_vocab))
    return data, orm, examples, init_params(dims, seed=5)


@pytest.fixture
def world():
    return make_world()


def draw(examples, orm, object_vocab, table, cfg, epoch):
    """One draw from a fresh index."""
    return draw_candidates(
        examples, CandidateIndex(examples, orm, object_vocab, table, cfg), epoch)


def test_fixture_mixes_known_unknown_and_backoff(world):
    data, orm, examples, _ = world
    cfg = TrainConfig(m_candidates=6, k_candidates=3, seed=1)
    labels = data.object_vocab.labels
    pairs = {(labels[int(ex.object_labels[i])], labels[int(ex.object_labels[j])])
             for ex in examples for i, j, _ in ex.edges}
    assert any(lookup(orm, *pair).backoff for pair in pairs)
    assert any(not lookup(orm, *pair).backoff for pair in pairs)
    phrases = {r for pair in pairs
               for r, _ in lookup(orm, *pair).entries[:cfg.m_candidates]}
    assert {OOV, PARTLY_KNOWN, TWO_TOKENS} <= phrases
    # seen pairs with more than K phrases and with at most K
    sizes = [len(lookup(orm, *pair, backoff=False).entries[:cfg.m_candidates])
             for pair in pairs]
    assert any(n > cfg.k_candidates for n in sizes)
    assert any(0 < n <= cfg.k_candidates for n in sizes)


@pytest.mark.parametrize("backoff", [True, False])
def test_draw_matches_per_phrase_reference(world, backoff):
    data, orm, examples, _ = world
    cfg = TrainConfig(m_candidates=6, k_candidates=3, seed=1,
                      orm_backoff=backoff)
    index = CandidateIndex(examples, orm, data.object_vocab, data.embeddings,
                           cfg)
    for epoch in range(3):
        expected = reference_draw(examples, orm, data.object_vocab,
                                  data.embeddings, cfg, epoch)
        draw_candidates(examples, index, epoch)
        assert_same_sets(drawn(examples), expected)
    assert any(c is not None and len(c) < 3 for c in drawn(examples))


@pytest.mark.parametrize("protocol", ["predcls", "sgcls"])
def test_predict_scene_matches_per_phrase_reference(world, protocol,
                                                    monkeypatch):
    data, orm, _, params = world
    seen = []
    original = train_mod._pack_candidates

    def recording(examples, e):
        seen.extend(examples)
        return original(examples, e)

    monkeypatch.setattr(train_mod, "_pack_candidates", recording)
    labels = data.object_vocab.labels
    for scene in data.test_scenes + data.train_scenes[:5]:
        predict_scene(params, scene, orm, data.object_vocab,
                      data.predicate_vocab, data.embeddings, k_candidates=4,
                      protocol=protocol)
        ex = seen[-1]
        if protocol == "predcls":
            ids = scene.graph.labels()
        else:
            probs = forward_objects(params, pack_batch([ex], params.dims))[1]
            ids = [int(np.argmax(row)) for row in probs]
        expected = [reference_rows(data.embeddings, [r for r, _ in lookup(
            orm, labels[ids[s]], labels[ids[o]]).entries[:4]], False)
            for s, o, _ in ex.edges]
        assert_same_sets(ex.candidate_embeddings, expected)


@pytest.mark.parametrize("protocol", ["predcls", "sgcls"])
def test_predict_batch_matches_per_scene_calls(world, protocol):
    data, orm, _, params = world
    rng = np.random.default_rng(17)
    ragged = [random_instance(rng, n=n, n_edges=int(rng.integers(0, 2 * n)),
                              n_obj_labels=len(data.object_vocab),
                              n_pred_labels=len(data.predicate_vocab),
                              d=data.config.d) for n in range(1, 13)]
    bare = data.test_scenes[0]  # its edges, without pair features
    bare = SceneInstance(bare.graph, bare.object_features)
    scenes = data.test_scenes[:5] + ragged[:6] + [bare] + ragged[6:] + \
        data.test_scenes[5:]
    labels = data.object_vocab.labels
    looked = [lookup(orm, labels[ids[s]], labels[ids[o]])
              for scene in scenes for ids in [scene.graph.labels()]
              for s, o in scene.pair_feature_map()]
    assert any(r.backoff for r in looked)
    assert any(OOV in dict(r.entries[:4]) for r in looked)
    args = (orm, data.object_vocab, data.predicate_vocab, data.embeddings)
    batch = predict_batch(params, scenes, *args, k_candidates=4,
                          protocol=protocol)
    assert len(batch) == len(scenes)
    for scene, (pred, embs) in zip(scenes, batch):
        one, one_embs = predict_scene(params, scene, *args, k_candidates=4,
                                      protocol=protocol)
        pairs = sorted(scene.pair_feature_map())
        assert list(pred.pair_probs) == list(one.pair_probs) == pairs
        assert list(embs) == list(one_embs) == pairs
        for pair in pairs:
            np.testing.assert_allclose(pred.pair_probs[pair],
                                       one.pair_probs[pair], rtol=0, atol=1e-12)
            np.testing.assert_allclose(embs[pair], one_embs[pair],
                                       rtol=0, atol=1e-12)
        if protocol == "predcls":
            assert pred.object_probs is None and one.object_probs is None
        else:
            assert pred.object_probs.shape == (scene.graph.n_objects,
                                               len(data.object_vocab))
            np.testing.assert_allclose(pred.object_probs, one.object_probs,
                                       rtol=0, atol=1e-12)


def test_predict_batch_of_nothing_is_empty(world):
    data, orm, _, params = world
    assert predict_batch(params, [], orm, data.object_vocab,
                         data.predicate_vocab, data.embeddings) == []


def test_predict_batch_rejects_unknown_protocol(world):
    data, orm, _, params = world
    with pytest.raises(ConfigError, match="unknown protocol: detcls"):
        predict_batch(params, data.test_scenes, orm, data.object_vocab,
                      data.predicate_vocab, data.embeddings, protocol="detcls")


@pytest.mark.parametrize("scenes", ["all", "none"])
def test_predict_batch_rejects_table_of_another_width(world, scenes):
    data, _, _, params = world
    e = params.dims.e
    wide = EmbeddingTable(e + 1, {t: np.append(v, 0.5) for t, v
                                  in data.embeddings.vectors.items()})
    # an empty ORM gives no candidate to catch the width
    with pytest.raises(ConfigError, match=f"^embedding table width {e + 1} "
                                          f"!= e = {e}$"):
        predict_batch(params, data.test_scenes if scenes == "all" else [],
                      build_orm(TripletCorpus()), data.object_vocab,
                      data.predicate_vocab, wide)


@pytest.mark.parametrize("k", [0, -1])
def test_predict_scene_rejects_k_below_one(world, k):
    data, orm, _, params = world
    with pytest.raises(ConfigError, match=f"1 <= K, got {k}"):
        predict_scene(params, data.test_scenes[0], orm, data.object_vocab,
                      data.predicate_vocab, data.embeddings, k_candidates=k)


def test_lenient_drops_oov_and_strict_raises_after_caching(world):
    data, _, _, _ = world
    table = data.embeddings
    phrases = ["relaa", OOV, PARTLY_KNOWN, TWO_TOKENS]
    got = embed_phrases(table, phrases, strict=False)
    assert got.shape == (3, table.dimension)
    assert_same_sets([got], [reference_rows(table, phrases, strict=False)])
    assert embed_phrases(table, [OOV], strict=False) is None
    with pytest.raises(OutOfVocabularyError, match="zorp blick"):
        embed_phrases(table, phrases, strict=True)
    assert_same_sets([embed_phrases(table, phrases[2:], strict=True)],
                     [reference_rows(table, phrases[2:], strict=True)])


def test_strict_draw_and_predict_raise_after_lenient_calls(world):
    data, orm, examples, params = world
    lenient = TrainConfig(m_candidates=6, k_candidates=6, seed=1)
    draw(examples, orm, data.object_vocab, data.embeddings, lenient, 0)
    strict = TrainConfig(m_candidates=6, k_candidates=6, seed=1,
                         strict_oov=True)
    with pytest.raises(OutOfVocabularyError):
        draw(examples, orm, data.object_vocab, data.embeddings, strict, 0)
    scene = data.train_scenes[0]
    predict_scene(params, scene, orm, data.object_vocab, data.predicate_vocab,
                  data.embeddings, k_candidates=6, orm_backoff=True)
    with pytest.raises(OutOfVocabularyError):
        predict_scene(params, scene, orm, data.object_vocab,
                      data.predicate_vocab, data.embeddings, k_candidates=6,
                      orm_backoff=True, strict_oov=True)


def test_writing_into_candidates_leaves_the_next_draw_alone(world):
    data, orm, examples, _ = world
    cfg = TrainConfig(m_candidates=6, k_candidates=3, seed=2)
    index = CandidateIndex(examples, orm, data.object_vocab, data.embeddings,
                           cfg)
    draw_candidates(examples, index, 0)
    first = [None if c is None else c.copy() for c in drawn(examples)]
    static = drawn_fresh = 0
    for c in drawn(examples):
        if c is None:
            continue
        if c.flags.writeable:  # drawn: a fresh array on every draw
            c[...] = 1e9
            drawn_fresh += 1
        else:  # static: shared by every epoch, so read-only
            with pytest.raises(ValueError, match="read-only"):
                c[...] = 1e9
            static += 1
    assert static and drawn_fresh == len(index.drawn)
    draw_candidates(examples, index, 0)
    assert_same_sets(drawn(examples), first)
    rows = embed_phrases(data.embeddings, ["relaa", TWO_TOKENS])
    rows[...] = -1.0
    assert_same_sets([embed_phrases(data.embeddings, ["relaa", TWO_TOKENS])],
                     [reference_rows(data.embeddings, ["relaa", TWO_TOKENS],
                                     strict=True)])


# ---------------------------------------------------------------------------
# The index against the per-edge draw it replaced
# ---------------------------------------------------------------------------

def per_edge_draw(examples, orm, object_vocab, table, cfg, epoch):
    """Every edge drawn, then pooled with one embed_phrases call."""
    labels = object_vocab.labels
    return [embed_phrases(table, sample_candidates(
        orm, labels[int(ex.object_labels[i])], labels[int(ex.object_labels[j])],
        cfg.m_candidates, cfg.k_candidates,
        seed=reference_seed(cfg.seed, epoch, si, ei), backoff=cfg.orm_backoff),
        cfg.strict_oov)
        for si, ex in enumerate(examples) for ei, (i, j, _p) in enumerate(ex.edges)]


def per_edge_groups(sets):
    """The sets grouped by size: ascending sizes, ascending edge rows."""
    by_size = {}
    for row, c in enumerate(sets):
        if c is not None:
            rows, arrays = by_size.setdefault(len(c), ([], []))
            rows.append(row)
            arrays.append(c)
    return [(np.array(rows), np.array(arrays, dtype=np.float64))
            for _, (rows, arrays) in sorted(by_size.items())]


def per_edge_train(cfg, examples, orm, object_vocab, table, params):
    """The training loop around the per-edge draw, packing every epoch."""
    params = params.copy()
    losses = []
    for epoch in range(cfg.epochs):
        sets = iter(per_edge_draw(examples, orm, object_vocab, table, cfg,
                                  epoch))
        for ex in examples:
            ex.candidate_embeddings = [next(sets) for _ in ex.edges]
        loss, grads = loss_and_gradients(params, examples)
        for name in params.tensors:
            params.tensors[name] -= cfg.learning_rate * grads[name]
        losses.append(loss)
    return params, losses


ORACLE_CASES = [(backoff, strict) for backoff in (True, False)
                for strict in (False, True)]


@pytest.mark.parametrize("backoff, strict", ORACLE_CASES,
                         ids=[f"backoff={b}-strict={s}" for b, s in ORACLE_CASES])
def test_index_draw_matches_per_edge_draw(backoff, strict):
    data, orm, examples, _ = make_world(oov=not strict)
    cfg = TrainConfig(m_candidates=6, k_candidates=3, seed=4,
                      orm_backoff=backoff, strict_oov=strict)
    args = (orm, data.object_vocab, data.embeddings, cfg)
    index = CandidateIndex(examples, *args)
    for epoch in range(4):
        expected = per_edge_draw(examples, *args, epoch)
        groups = draw_candidates(examples, index, epoch)
        assert_same_sets(drawn(examples), expected)
        want = per_edge_groups(expected)
        assert [len(rows) for rows, _ in groups] == [len(rows) for rows, _ in want]
        for (rows, sets), (want_rows, want_sets) in zip(groups, want):
            assert rows.dtype == want_rows.dtype
            assert np.array_equal(rows, want_rows)
            assert sets.dtype == want_sets.dtype
            assert np.array_equal(sets, want_sets)
    if not backoff:  # unseen pairs have no candidates
        assert any(c is None for c in drawn(examples))


@pytest.mark.parametrize("backoff, strict", ORACLE_CASES,
                         ids=[f"backoff={b}-strict={s}" for b, s in ORACLE_CASES])
def test_train_is_byte_identical_to_per_edge_draw(backoff, strict):
    data, orm, examples, params = make_world(oov=not strict)
    cfg = TrainConfig(m_candidates=6, k_candidates=3, seed=4, epochs=5,
                      learning_rate=0.3, orm_backoff=backoff, strict_oov=strict)
    args = (examples, orm, data.object_vocab, data.embeddings, params)
    got, got_losses = train(cfg, *args)
    want, want_losses = per_edge_train(cfg, *args)
    assert got_losses == want_losses
    for name, tensor in want.tensors.items():
        assert got.tensors[name].tobytes() == tensor.tobytes(), name


def test_strict_oov_raises_in_both_paths(world):
    data, orm, examples, params = world
    cfg = TrainConfig(m_candidates=6, k_candidates=3, seed=4, epochs=2,
                      strict_oov=True)
    args = (examples, orm, data.object_vocab, data.embeddings, params)
    for run in (train, per_edge_train):
        with pytest.raises(OutOfVocabularyError, match="'zorp blick'"):
            run(cfg, *args)


def test_train_object_label_outside_vocabulary_is_config_error(world):
    data, orm, examples, params = world
    small = Vocabulary.make([(l, 1) for l in data.object_vocab.labels[:2]])
    si, label = next((si, i) for si, ex in enumerate(examples)
                     for i in ex.object_labels.tolist() if i >= 2)
    with pytest.raises(ConfigError, match=f"^scene {si}: object label {label} "
                       "outside the 2-label object vocabulary$"):
        train(TrainConfig(epochs=1), examples, orm, small, data.embeddings, params)


def test_train_table_width_other_than_e_is_config_error(world):
    data, orm, examples, params = world
    wide = EmbeddingTable(data.embeddings.dimension + 1,
                          {t: np.append(v, 0.0)
                           for t, v in data.embeddings.vectors.items()})
    with pytest.raises(ConfigError, match=rf"^embedding table width "
                       rf"{wide.dimension} != e = {params.dims.e}$"):
        train(TrainConfig(epochs=1), examples, orm, data.object_vocab, wide,
              params)


def test_sample_candidates_only_for_edges_above_k(world, monkeypatch):
    data, orm, examples, params = world
    cfg = TrainConfig(m_candidates=6, k_candidates=3, seed=4, epochs=3)
    seeds = []
    original = train_mod.sample_candidates

    def recording(*args, seed, **kwargs):
        seeds.append(seed)
        return original(*args, seed=seed, **kwargs)

    monkeypatch.setattr(train_mod, "sample_candidates", recording)
    train(cfg, examples, orm, data.object_vocab, data.embeddings, params)
    labels = data.object_vocab.labels
    above = [(si, ei) for si, ex in enumerate(examples)
             for ei, (i, j, _p) in enumerate(ex.edges)
             if len(lookup(orm, labels[int(ex.object_labels[i])],
                           labels[int(ex.object_labels[j])]
                           ).entries[:cfg.m_candidates]) > cfg.k_candidates]
    assert 0 < len(above) < sum(len(ex.edges) for ex in examples)
    assert sorted(seeds) == sorted(reference_seed(cfg.seed, epoch, si, ei)
                                   for epoch in range(cfg.epochs)
                                   for si, ei in above)


def test_negative_seed_rejected():
    with pytest.raises(ConfigError, match="seed must be >= 0, got -3"):
        TrainConfig(seed=-3)


@pytest.mark.parametrize("k, m", [(0, 5), (-1, 5), (0, 0), (1, 0)])
def test_k_and_m_below_one_rejected(k, m):
    with pytest.raises(ConfigError, match="1 <= K <= M"):
        TrainConfig(m_candidates=m, k_candidates=k)
