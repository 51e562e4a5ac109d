"""Row ranking in evalkit and zeroshot.topk against the object-based
reference in reference_evalkit.py: every metric dict and every top-k list
must be equal with ==, and every error must have the same type and text."""

import numpy as np
import pytest

import reference_evalkit as ref
from helpers import planted_vector, random_instance
from relkit import evalkit, zeroshot
from relkit.errors import NumericError
from relkit.evalkit import ScenePrediction, TripletPrediction


def outcome(fn, *args, **kwargs):
    try:
        return "ok", fn(*args, **kwargs)
    except NumericError as exc:
        return type(exc), str(exc)


def random_prediction(rng, scene, n_preds=5, n_obj=4):
    """Probabilities with planted ties and exact zeros for a random subset
    of the scene's ordered pairs, edges or not."""
    n = scene.graph.n_objects
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    keep = rng.random(len(pairs)) < 0.7
    pair_probs = {pair: planted_vector(rng, n_preds)
                  for pair, k in zip(pairs, keep) if k}
    rows = np.array([planted_vector(rng, n_obj) for _ in range(n)])
    for i, label in enumerate(scene.graph.labels()):
        if rng.random() < 0.5:  # the true label wins or ties the row
            rows[i, label] = rows[i].max()
    return ScenePrediction(pair_probs, rows)


def random_scenes(rng):
    """Scenes with and without edges; sometimes none has an edge."""
    scenes = []
    for _ in range(int(rng.integers(1, 5))):
        n = int(rng.integers(2, 5))
        n_edges = 0 if rng.random() < 0.25 else int(rng.integers(1, n * (n - 1) + 1))
        scenes.append(random_instance(rng, n=n, n_edges=n_edges))
    return scenes


def random_ks(rng):
    # K = 1, small K, and K past the number of rows (at most 12 x 5)
    return tuple(sorted({1, int(rng.integers(1, 8)), int(rng.integers(8, 100))}))


def test_protocols_match_the_reference():
    rng = np.random.default_rng(11)
    for _ in range(150):
        scenes = random_scenes(rng)
        preds = [random_prediction(rng, scene) for scene in scenes]
        ks = random_ks(rng)
        for micro in (False, True):
            for graph_constraint in (True, False):
                opts = dict(recall_ks=ks, micro=micro,
                            graph_constraint=graph_constraint)
                assert (outcome(evalkit.predcls_eval, preds, scenes,
                                accuracy_ks=(1, 5), **opts)
                        == outcome(ref.predcls_eval, preds, scenes,
                                   accuracy_ks=(1, 5), **opts))
                assert (outcome(evalkit.sgcls_eval, preds, scenes, **opts)
                        == outcome(ref.sgcls_eval, preds, scenes, **opts))


def test_recall_at_k_matches_the_reference_on_duplicate_triples():
    rng = np.random.default_rng(12)
    for _ in range(300):
        n = int(rng.integers(2, 5))
        scene = random_instance(rng, n=n, n_edges=int(rng.integers(0, 5)))
        triples = [(int(rng.integers(0, n)), int(rng.integers(0, n)),
                    int(rng.integers(0, 5))) for _ in range(int(rng.integers(0, 6)))]
        confs = planted_vector(rng, 12)
        # each triple may appear several times, with equal or other confidences
        preds = [TripletPrediction(*triples[int(rng.integers(0, len(triples)))],
                                   float(c))
                 for c in confs] if triples else []
        for k in (1, int(rng.integers(2, 6)), 13):
            assert (outcome(evalkit.recall_at_k, preds, scene.graph, k)
                    == outcome(ref.recall_at_k, preds, scene.graph, k))


def test_topk_matches_the_reference_on_label_ties():
    rng = np.random.default_rng(13)
    names = ["on", "near", "has", "wears", "under", "riding"]
    for _ in range(300):
        width = int(rng.integers(1, 7))
        labels = [str(v) for v in rng.choice(names, size=width,
                                             replace=rng.random() < 0.2)]
        probs = planted_vector(rng, width)
        for k in (1, int(rng.integers(1, 8)), 10):
            assert zeroshot.topk(probs, labels, k) == ref.topk(probs, labels, k)


@pytest.mark.parametrize("k", [0, -1])
def test_micro_recall_rejects_k_below_one(k):
    # the reference returns 0.0 for K = 0 and counts all rows but the
    # last for K = -1; macro recall already raised
    scene = random_instance(np.random.default_rng(14), n=2, n_edges=1)
    pred = ScenePrediction({(0, 1): np.array([0.9, 0.1]),
                            (1, 0): np.array([0.2, 0.8])})
    for micro in (True, False):
        with pytest.raises(NumericError, match="requires K >= 1"):
            evalkit.predcls_eval([pred], [scene], recall_ks=(k,),
                                 accuracy_ks=(), micro=micro)
