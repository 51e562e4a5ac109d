"""Pooled candidate embeddings against the reference paths they replaced.

`CandidateIndex` and `predict_scene` turn ORM candidates into embeddings
through `embed_phrases`, which pools each phrase once per table. The first
reference is one `embed_phrase` call per candidate phrase, the known rows
stacked with `np.stack`. The second is the per-edge draw that training ran
before the index: `sample_candidates` for every edge in every epoch, then
`embed_phrases` per edge, then the non-empty sets at ascending edge rows,
zero-padded to a common width.
"""

import importlib

import numpy as np
import pytest

from helpers import random_instance
from relkit.core import SceneInstance, Vocabulary
from relkit.corpus import Triplet, TripletCorpus
from relkit.embed import EmbeddingTable, embed_phrase, embed_phrases
from relkit.errors import ConfigError, OutOfVocabularyError
from relkit.orm import (OrmTable, build_orm, load_orm, lookup,
                        sample_candidates, save_orm)
from relkit.relhead import (CandidateIndex, Dims, TrainConfig,
                            build_example, draw_candidates, init_params,
                            loss_and_gradients, predict_batch, predict_scene,
                            train)
from relkit.relhead.model import _pack_candidates, forward_batch, pack_batch
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


WORLD = SynthConfig(n_object_labels=5, n_seen_predicates=8, n_train_scenes=20,
                    n_test_scenes=10, objects_per_scene=4, edges_per_scene=4, seed=3)


def make_world(oov=True):
    """A synth world of the WORLD config whose ORM, built from half the
    train scenes, carries an OOV phrase (unless `oov` is false), a partly
    known and a two-token phrase, so that candidate sets mix known and
    unknown phrases and unseen pairs back off."""
    data = generate(WORLD)
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
    dims = Dims(WORLD.d, WORLD.r, WORLD.e, len(data.object_vocab),
                len(data.predicate_vocab))
    return data, orm, examples, init_params(dims, seed=5)


DIMS = Dims(WORLD.d, WORLD.r, WORLD.e, WORLD.n_object_labels,
            WORLD.n_seen_predicates + WORLD.n_heldout_predicates)


def index_of(examples, *args):
    """A CandidateIndex on the examples' pack, as `train` builds one."""
    return CandidateIndex(examples, pack_batch(examples, DIMS), *args)


@pytest.fixture
def world():
    return make_world()


def draw(examples, orm, object_vocab, table, cfg, epoch):
    """One draw from a fresh index."""
    return draw_candidates(
        examples, index_of(examples, orm, object_vocab, table, cfg), epoch)


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
    index = index_of(examples, orm, data.object_vocab, data.embeddings, cfg)
    for epoch in range(3):
        expected = reference_draw(examples, orm, data.object_vocab,
                                  data.embeddings, cfg, epoch)
        draw_candidates(examples, index, epoch)
        assert_same_sets(drawn(examples), expected)
    assert any(c is not None and len(c) < 3 for c in drawn(examples))


@pytest.mark.parametrize("protocol", ["predcls", "sgcls"])
def test_predict_scene_matches_per_phrase_reference(world, protocol,
                                                    monkeypatch):
    """The slab that the edge stage receives holds, at each attending edge
    row, the pair's top 4 phrases embedded one by one, under the ground-truth
    labels (predcls) or the object classifier's argmax (sgcls); every scene
    is scored twice, so the second pass reads a filled table."""
    data, orm, _, params = world
    slabs = []
    original = train_mod.forward_edges

    def recording(params, batch, objects):
        slabs.append(batch.candidates)
        return original(params, batch, objects)

    monkeypatch.setattr(train_mod, "forward_edges", recording)
    labels, e = data.object_vocab.labels, data.embeddings.dimension

    def expected_slab(ids, pairs):
        sets = [reference_rows(data.embeddings, [r for r, _ in lookup(
            orm, labels[ids[s]], labels[ids[o]]).entries[:4]], False)
            for s, o in pairs]
        width = max([len(c) for c in sets if c is not None], default=0)
        return per_edge_slab(sets, width, e)

    truth_differs = False
    for scene in 2 * (data.test_scenes + data.train_scenes[:5]):
        predict_scene(params, scene, orm, data.object_vocab,
                      data.predicate_vocab, data.embeddings, k_candidates=4,
                      protocol=protocol)
        pairs = sorted(scene.pair_feature_map())
        want = expected_slab(scene.graph.labels(), pairs)
        if protocol == "sgcls":
            ex = build_example(scene, data.object_vocab, data.predicate_vocab,
                               data.embeddings)
            probs = forward_batch(params, pack_batch([ex], params.dims)).obj_probs
            truth, want = want, expected_slab(
                [int(np.argmax(row)) for row in probs], pairs)
            truth_differs |= not all(np.array_equal(a, b) for a, b in
                                     zip(truth[:2], want[:2]))
        assert_same_slab(slabs[-1], want)
    assert len(slabs) == 2 * 15
    # the argmax labels change some scene's sets, so the check above bites
    assert truth_differs or protocol == "predcls"


@pytest.mark.parametrize("protocol", ["predcls", "sgcls"])
def test_predict_batch_matches_per_scene_calls(world, protocol):
    data, orm, _, params = world
    rng = np.random.default_rng(17)
    ragged = [random_instance(rng, n=n, n_edges=int(rng.integers(0, 2 * n)),
                              n_obj_labels=len(data.object_vocab),
                              n_pred_labels=len(data.predicate_vocab),
                              d=WORLD.d) for n in range(1, 13)]
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


# ---------------------------------------------------------------------------
# The per-label-pair candidate table inference reads
# ---------------------------------------------------------------------------

def ragged_batch(data):
    """test_predict_batch_matches_per_scene_calls' batch: test scenes around
    random scenes of 1 to 12 objects and a scene without pair features."""
    rng = np.random.default_rng(17)
    ragged = [random_instance(rng, n=n, n_edges=int(rng.integers(0, 2 * n)),
                              n_obj_labels=len(data.object_vocab),
                              n_pred_labels=len(data.predicate_vocab),
                              d=WORLD.d) for n in range(1, 13)]
    bare = SceneInstance(data.test_scenes[0].graph, data.test_scenes[0].object_features)
    return data.test_scenes[:5] + ragged[:6] + [bare] + ragged[6:] + data.test_scenes[5:]


def scores(params, scenes, orm, data, table=None, vocab=None, **kwargs):
    """Every output array of one predict_batch call, in order."""
    out = []
    for pred, embs in predict_batch(params, scenes, orm, vocab or data.object_vocab,
                                    data.predicate_vocab, table or data.embeddings,
                                    k_candidates=4, **kwargs):
        out += [*pred.pair_probs.values(), *embs.values()]
        out += [] if pred.object_probs is None else [pred.object_probs]
    return out


def assert_same_scores(got, want):
    assert len(got) == len(want)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


def fresh(orm):
    """The ORM's counts in a new table, so with nothing cached."""
    return OrmTable(orm.pair_counts)


@pytest.mark.parametrize("protocol", ["predcls", "sgcls"])
def test_cold_warm_and_reloaded_tables_score_alike(world, protocol, tmp_path):
    data, orm, _, params = world
    scenes = ragged_batch(data)
    cold = scores(params, scenes, orm, data, protocol=protocol)
    assert orm._candidates  # the ORM holds the filled table
    assert_same_scores(scores(params, scenes, orm, data, protocol=protocol), cold)
    save_orm(orm, tmp_path / "orm.tsv")
    loaded = load_orm(tmp_path / "orm.tsv")
    assert_same_scores(scores(params, scenes, loaded, data, protocol=protocol), cold)


@pytest.mark.parametrize("other", ["table", "vocabulary"])
def test_another_table_or_vocabulary_gets_its_own_sets(world, other):
    data, orm, _, params = world
    scenes = data.test_scenes
    first = scores(params, scenes, orm, data)
    if other == "table":  # same width, other vectors
        kwargs = {"table": EmbeddingTable(data.embeddings.dimension, {
            t: v[::-1] + 1.0 for t, v in data.embeddings.vectors.items()})}
    else:  # same labels, reordered: each id names another label
        kwargs = {"vocab": Vocabulary(data.object_vocab.labels[::-1],
                                      data.object_vocab.counts[::-1])}
    second = scores(params, scenes, orm, data, **kwargs)
    assert_same_scores(second, scores(params, scenes, fresh(orm), data, **kwargs))
    assert not all(np.array_equal(a, b) for a, b in zip(first, second))
    assert_same_scores(scores(params, scenes, orm, data), first)


def test_backoff_off_then_on_scores_as_fresh_calls(world):
    data, orm, _, params = world
    scenes = ragged_batch(data)
    off = scores(params, scenes, orm, data, orm_backoff=False)
    on = scores(params, scenes, orm, data, orm_backoff=True)
    assert_same_scores(off, scores(params, scenes, fresh(orm), data, orm_backoff=False))
    assert_same_scores(on, scores(params, scenes, fresh(orm), data, orm_backoff=True))
    assert not all(np.array_equal(a, b) for a, b in zip(off, on))


def test_strict_raises_on_every_call_after_a_lenient_fill(world):
    data, orm, _, params = world
    lenient = scores(params, data.test_scenes, orm, data)
    for _ in range(2):  # a pair whose phrase has no vector is never cached
        with pytest.raises(OutOfVocabularyError, match="'zorp blick'"):
            scores(params, data.test_scenes, orm, data, strict_oov=True)
    assert_same_scores(scores(params, data.test_scenes, orm, data), lenient)


def test_one_row_per_distinct_set(world):
    """Pairs with the same top 4 phrases share a row, so all backoff pairs
    share one; so do lists that embed alike, as when the lenient rule drops
    an OOV phrase. Rows grow only with the distinct sets queried."""
    data, orm, _, params = world
    scenes = ragged_batch(data) + data.train_scenes
    scores(params, scenes, orm, data)
    cands = orm._candidates[4, True, False]
    labels = data.object_vocab.labels
    tops = {}  # queried label-id pair -> its top 4 phrases
    for scene in scenes:
        ids = scene.graph.labels()
        for s, o in scene.pair_feature_map():
            tops[ids[s], ids[o]] = tuple(r for r, _ in lookup(
                orm, labels[ids[s]], labels[ids[o]]).entries[:4])
    assert set(cands.row_of) == set(tops)
    rows_of_top = {}
    for pair, top in tops.items():
        rows_of_top.setdefault(top, set()).add(cands.row_of[pair])
    assert all(len(rows) == 1 for rows in rows_of_top.values())
    sets = [reference_rows(data.embeddings, top, False) for top in rows_of_top]
    distinct = {c.tobytes() for c in sets if c is not None}
    assert len(cands.row_of_set) == len(distinct) < len(rows_of_top) < len(tops)
    backoff = [pair for pair in tops if lookup(orm, *(labels[i] for i in pair)).backoff]
    assert len(backoff) > 1 and len({cands.row_of[pair] for pair in backoff}) == 1


@pytest.mark.parametrize("protocol", ["predcls", "sgcls"])
def test_predict_after_train_scores_as_on_a_fresh_orm(world, protocol):
    """Training's table, whose K = 4 matches predict_batch's but whose M = 6
    sends some pairs to the drawn row, stays off the ORM."""
    data, orm, examples, params = world
    cfg = TrainConfig(m_candidates=6, k_candidates=4, seed=4, epochs=2)
    trained, _ = train(cfg, examples, orm, data.object_vocab, data.embeddings, params)
    assert not orm._candidates
    scenes = ragged_batch(data)
    assert_same_scores(scores(trained, scenes, orm, data, protocol=protocol),
                       scores(trained, scenes, fresh(orm), data, protocol=protocol))


def test_training_twice_on_the_same_inputs_is_bit_identical(world):
    """Training writes drawn sets into its examples; a second run on the same
    examples, ORM, vocabulary and table, after a predict_batch call on that
    ORM, trains the same head."""
    data, orm, examples, params = world
    cfg = TrainConfig(m_candidates=6, k_candidates=4, seed=4, epochs=5, learning_rate=0.3)
    args = (examples, orm, data.object_vocab, data.embeddings, params)
    first, first_losses = train(cfg, *args)
    assert scores(first, ragged_batch(data), orm, data) and orm._candidates
    second, second_losses = train(cfg, *args)
    assert second_losses == first_losses
    assert all(np.array_equal(second.tensors[k], v) for k, v in first.tensors.items())


def test_predict_batch_of_nothing_is_empty(world):
    data, orm, _, params = world
    assert predict_batch(params, [], orm, data.object_vocab,
                         data.predicate_vocab, data.embeddings) == []


def test_predict_batch_rejects_unknown_protocol(world):
    data, orm, _, params = world
    with pytest.raises(ConfigError, match="unknown protocol: detcls"):
        predict_batch(params, data.test_scenes, orm, data.object_vocab,
                      data.predicate_vocab, data.embeddings, protocol="detcls")


OTHER_SIZES = ["wider-table", "shorter-vocabulary", "longer-vocabulary"]


def resized(data, params, other):
    """The world's table and object vocabulary, one of them of another size
    than the head's, and the message that names the mismatch."""
    table, vocab = data.embeddings, data.object_vocab
    e, n = params.dims.e, params.dims.n_object_labels
    if other == "wider-table":
        table = EmbeddingTable(e + 1, {t: np.append(v, 0.5)
                                       for t, v in table.vectors.items()})
        return table, vocab, f"^embedding table width {e + 1} != e = {e}$"
    labels = (vocab.labels[:2] if other == "shorter-vocabulary"
              else vocab.labels + ("objzz",))
    return (table, Vocabulary.make([(label, 1) for label in labels]),
            f"^object vocabulary size {len(labels)} != n_object_labels = {n}$")


@pytest.mark.parametrize("other", OTHER_SIZES)
@pytest.mark.parametrize("scenes", ["all", "none"])
def test_predict_batch_rejects_table_of_another_width(world, scenes, other):
    data, _, _, params = world
    table, vocab, message = resized(data, params, other)
    # an empty ORM gives no candidate to catch the size
    with pytest.raises(ConfigError, match=message):
        predict_batch(params, data.test_scenes if scenes == "all" else [],
                      build_orm(TripletCorpus()), vocab,
                      data.predicate_vocab, table)


@pytest.mark.parametrize("k", [0, -1])
def test_predict_scene_rejects_k_below_one(world, k):
    data, orm, _, params = world
    with pytest.raises(ConfigError, match=f"1 <= K <= M, got K = {k}, M = {k}$"):
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
    index = index_of(examples, orm, data.object_vocab, data.embeddings, cfg)
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


def per_edge_slab(sets, width, e):
    """The non-empty sets' ascending edge rows, the sets zero-padded to
    `width`, and their lengths."""
    rows = [row for row, c in enumerate(sets) if c is not None]
    padded = np.zeros((len(rows), width, e))
    for i, row in enumerate(rows):
        padded[i, :len(sets[row])] = sets[row]
    return np.array(rows, dtype=np.int64), padded, [len(sets[row]) for row in rows]


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


def assert_same_slab(got, want):
    rows, sets, lengths = want
    assert got.rows.dtype == rows.dtype and np.array_equal(got.rows, rows)
    assert got.sets.dtype == sets.dtype and np.array_equal(got.sets, sets)
    k = np.array(lengths, dtype=np.int64).reshape(-1, 1)
    assert np.array_equal(got.mask, np.arange(sets.shape[1]) >= k)


ORACLE_CASES = [(backoff, strict) for backoff in (True, False)
                for strict in (False, True)]


@pytest.mark.parametrize("backoff, strict", ORACLE_CASES,
                         ids=[f"backoff={b}-strict={s}" for b, s in ORACLE_CASES])
def test_index_draw_matches_per_edge_draw(backoff, strict):
    data, orm, examples, _ = make_world(oov=not strict)
    cfg = TrainConfig(m_candidates=6, k_candidates=3, seed=4,
                      orm_backoff=backoff, strict_oov=strict)
    args = (orm, data.object_vocab, data.embeddings, cfg)
    index = index_of(examples, *args)
    for epoch in range(4):
        expected = per_edge_draw(examples, *args, epoch)
        slab = draw_candidates(examples, index, epoch)
        assert_same_sets(drawn(examples), expected)
        assert_same_slab(slab, per_edge_slab(expected, cfg.k_candidates,
                                             data.embeddings.dimension))
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


def test_edgeless_and_all_drawn_scenes_match_per_edge_paths():
    """The first, a middle and the last scene have no edge, and K = 3 of
    M = 6 draws every edge of another scene, so the offsets that place each
    drawn edge in its scene and slab row skip empty scenes and full ones."""
    data, orm, examples, params = make_world()
    for ex in (examples[0], examples[len(examples) // 2], examples[-1]):
        ex.edges, ex.pair_features, ex.target_embeddings = [], [], []
        ex.candidate_embeddings = []
    cfg = TrainConfig(m_candidates=6, k_candidates=3, seed=4, epochs=3,
                      learning_rate=0.3)
    args = (orm, data.object_vocab, data.embeddings, cfg)
    index = index_of(examples, *args)
    per_scene = [sum(si == s for _, _, si, *_ in index.drawn) for s in range(len(examples))]
    assert any(n == len(ex.edges) > 0 for n, ex in zip(per_scene, examples))
    assert 0 < len(index.drawn) < len(index.slab.rows)
    for epoch in range(cfg.epochs):
        expected = per_edge_draw(examples, *args, epoch)
        slab = draw_candidates(examples, index, epoch)
        assert_same_sets(drawn(examples), expected)
        assert_same_slab(slab, per_edge_slab(expected, cfg.k_candidates,
                                             data.embeddings.dimension))
    train_args = (examples, orm, data.object_vocab, data.embeddings, params)
    got, got_losses = train(cfg, *train_args)
    want, want_losses = per_edge_train(cfg, *train_args)
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


def test_static_sets_are_grouped_once_per_index(world):
    data, orm, examples, _ = world
    e = data.embeddings.dimension
    args = (examples, orm, data.object_vocab, data.embeddings)
    index = index_of(*args, TrainConfig(m_candidates=6, k_candidates=6))
    assert not index.drawn  # no edge has more than K = M phrases
    fresh = _pack_candidates(examples, pack_batch(examples, DIMS).firsts, e)
    assert len(fresh.rows)  # some edges have candidates
    width = max(len(c) for c in drawn(examples) if c is not None)
    want = per_edge_slab(drawn(examples), width, e)
    assert_same_slab(fresh, want)
    for epoch in range(3):
        slab = draw_candidates(examples, index, epoch)
        assert slab is index.slab
        assert_same_slab(slab, want)
    index = index_of(*args, TrainConfig(m_candidates=6, k_candidates=3))
    assert index.drawn
    for epoch in range(2):  # the drawn sets are written into the index's slab
        slab = draw_candidates(examples, index, epoch)
        assert slab is index.slab
        assert_same_slab(slab, per_edge_slab(drawn(examples), 3, e))


def edge_label_pairs(data, examples):
    """Per edge, in order: (scene, edge, subject label, object label)."""
    labels = data.object_vocab.labels
    return [(si, ei, labels[int(ex.object_labels[i])], labels[int(ex.object_labels[j])])
            for si, ex in enumerate(examples) for ei, (i, j, _p) in enumerate(ex.edges)]


def test_index_looks_up_each_label_pair_once(world, monkeypatch):
    data, orm, examples, _ = world
    calls = []
    original = train_mod.lookup

    def recording(orm, subject, obj, **kwargs):
        calls.append((subject, obj))
        return original(orm, subject, obj, **kwargs)

    monkeypatch.setattr(train_mod, "lookup", recording)
    index_of(examples, orm, data.object_vocab, data.embeddings,
             TrainConfig(m_candidates=6, k_candidates=3))
    pairs = [(s, o) for _, _, s, o in edge_label_pairs(data, examples)]
    assert len(set(pairs)) < len(pairs)  # some label pair has several edges
    assert sorted(calls) == sorted(set(pairs))


def test_index_finds_every_edge_row_in_one_call(world, monkeypatch):
    data, orm, examples, _ = world
    calls = []
    original = train_mod.PairCandidates.rows

    def recording(self, orm, pairs):
        calls.append(pairs.copy())
        return original(self, orm, pairs)

    monkeypatch.setattr(train_mod.PairCandidates, "rows", recording)
    index_of(examples, orm, data.object_vocab, data.embeddings,
             TrainConfig(m_candidates=6, k_candidates=3))
    want = [[int(ex.object_labels[i]), int(ex.object_labels[j])]
            for ex in examples for i, j, _ in ex.edges]
    assert len(calls) == 1
    assert calls[0].shape == (len(want), 2) and calls[0].tolist() == want


def test_edges_of_a_label_pair_share_a_set_or_a_drawn_row(world):
    """At most K phrases: one read-only array for all the pair's edges. More
    than K: a K-wide slab row of zeros, unmasked, that only the draw writes."""
    data, orm, examples, _ = world
    cfg = TrainConfig(m_candidates=6, k_candidates=3, seed=4)
    args = (examples, orm, data.object_vocab, data.embeddings, cfg)
    index = index_of(*args)
    sets, above = {}, set()
    for si, ei, s, o in edge_label_pairs(data, examples):
        if len(lookup(orm, s, o).entries[:cfg.m_candidates]) > cfg.k_candidates:
            above.add((si, ei))
        else:
            sets.setdefault((s, o), []).append(examples[si].candidate_embeddings[ei])
    shared = [cs for cs in sets.values() if len(cs) > 1 and cs[0] is not None]
    assert shared and above
    for cs in shared:
        assert all(c is cs[0] for c in cs) and not cs[0].flags.writeable
    assert {(si, ei) for _, _, si, ei, *_ in index.drawn} == above
    slab = index.slab
    assert slab.sets.shape[1] == cfg.k_candidates

    def drawn_rows_are_blank(index):
        t = index.slab
        return all(ex.candidate_embeddings[ei] is None and not t.sets[at].any()
                   and not t.mask[at].any()
                   for at, ex, _, ei, *_ in index.drawn)

    assert drawn_rows_are_blank(index)
    draw_candidates(examples, index, 0)
    for at, ex, _, ei, *_ in index.drawn:
        c = ex.candidate_embeddings[ei]
        assert c is None or np.array_equal(slab.sets[at, :len(c)], c)
    assert drawn_rows_are_blank(index_of(*args))  # the draw wrote no shared row


def test_slab_draw_writes_only_the_drawn_rows(world):
    data, orm, examples, _ = world
    cfg = TrainConfig(m_candidates=6, k_candidates=3, seed=4)
    args = (orm, data.object_vocab, data.embeddings, cfg)
    index = index_of(examples, *args)
    slab = index.slab
    at = [a for a, *_ in index.drawn]
    static = np.setdiff1d(np.arange(len(slab.rows)), at)
    assert len(at) and len(static)
    fields = ("rows", "sets", "mask")
    before = {name: getattr(slab, name)[static].copy() for name in fields}
    rows = slab.rows.copy()
    for epoch in range(4):
        expected = per_edge_draw(examples, *args, epoch)
        assert draw_candidates(examples, index, epoch) is slab
        assert_same_sets(drawn(examples), expected)
        for a in at:
            want = expected[rows[a]]
            assert np.array_equal(slab.sets[a], np.pad(want, ((0, 3 - len(want)), (0, 0))))
            assert np.array_equal(slab.mask[a], np.arange(3) >= len(want))
        for name in fields:
            assert np.array_equal(getattr(slab, name)[static], before[name])
        assert np.array_equal(slab.rows, rows)


def test_drawn_set_of_oov_phrases_skips_the_text_site(world):
    data, _, examples, params = world
    labels = data.object_vocab.labels
    pairs = sorted({(labels[int(ex.object_labels[i])], labels[int(ex.object_labels[j])])
                    for ex in examples for i, j, _ in ex.edges})
    corpus = TripletCorpus()
    for n, (s, o) in enumerate(pairs):  # the first pair has no known phrase
        for phrase in (OOV, "blick zorp") if n == 0 else ("relaa", TWO_TOKENS):
            corpus.add(Triplet(s, phrase, o))
    cfg = TrainConfig(m_candidates=2, k_candidates=1, seed=4)
    index = index_of(examples, build_orm(corpus), data.object_vocab,
                     data.embeddings, cfg)
    assert len(index.drawn) == sum(len(ex.edges) for ex in examples)
    slab = draw_candidates(examples, index, 0)
    empty = [row for row, c in enumerate(drawn(examples)) if c is None]
    assert empty and not set(empty) & set(slab.rows.tolist())
    assert len(slab.rows) + len(empty) == len(index.drawn)
    packed = pack_batch(examples, params.dims)
    packed.candidates = slab
    loss, grads = loss_and_gradients(params, examples, packed=packed)
    fresh_loss, fresh = loss_and_gradients(params, examples)  # entries None
    assert loss == fresh_loss
    assert all(np.array_equal(grads[k], fresh[k]) for k in grads)


@pytest.mark.parametrize("other", OTHER_SIZES)
def test_train_table_width_other_than_e_is_config_error(world, other):
    data, orm, examples, params = world
    table, vocab, message = resized(data, params, other)
    with pytest.raises(ConfigError, match=message):
        train(TrainConfig(epochs=1), examples, orm, vocab, table, params)


def test_build_example_predicate_id_outside_vocabulary_is_config_error(world):
    data, _, _, _ = world
    small = Vocabulary.make([(label, 1) for label in data.predicate_vocab.labels[:2]])
    scene, (s, o, p) = next((scene, edge) for scene in data.train_scenes
                            for edge in scene.graph.edges if edge[2] >= 2)
    with pytest.raises(ConfigError, match=rf"^edge \({s},{o}\): predicate id "
                                          rf"{p} outside the vocabulary$"):
        build_example(scene, data.object_vocab, small, data.embeddings)


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


@pytest.mark.parametrize("rate", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_learning_rate_rejected(rate):
    with pytest.raises(ConfigError, match="^epochs and learning rate must be >= 0"):
        TrainConfig(learning_rate=rate)


def test_negative_seed_rejected():
    with pytest.raises(ConfigError, match="seed must be >= 0, got -3"):
        TrainConfig(seed=-3)


@pytest.mark.parametrize("k, m", [(0, 5), (-1, 5), (0, 0), (1, 0)])
def test_k_and_m_below_one_rejected(k, m):
    with pytest.raises(ConfigError, match=f"^K and M must satisfy 1 <= K <= M, "
                                          f"got K = {k}, M = {m}$"):
        TrainConfig(m_candidates=m, k_candidates=k)
