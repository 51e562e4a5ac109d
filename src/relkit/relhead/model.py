"""Forward pass, composite loss, and hand-derived backward pass.

Everything is double precision and row-vector convention: a linear layer
is `x @ W + b`. The attention procedure follows the printed formula
including the 1/k factor on the weighted context sum; the config flag
`attention_mean` off drops it.

One kernel runs a whole batch. `pack_inputs` stacks the N objects and the
E edges of all B scenes into the flat arrays the forward pass reads (and
the labels); edges index their subject and object rows, and `firsts`, which
no other code fills or recounts, where each scene's rows start. `pack_batch`
adds what only the loss reads: weights, predicate ids and target embeddings.
Attention has one kernel per shape. `_attend_scene` runs object
self-attention once per object count n > 1, on the (scenes, n, D) block of
those scenes with the diagonal scores at -inf, as its cost follows the sum
of n^2. `_attend_rows` lets each edge row score and pool its own K rows:
its contexts [s o] @ W_so and [o s] @ W_so at the subject-object site, and
at the text site a slab of every candidate set padded to the largest, K,
with the padding masked, as a set of k phrases wastes at most K/k of its row.
The text site works in phrase space: the contexts `S_k @ W_txt + b_txt`
are never built, as the scores `q . (S_k @ W_txt + b_txt)` are
`(q @ W_txt.T) . S_k` plus `q . b_txt`, a term shared by a row's
candidates that the softmax cancels, and as the weights sum to 1 the
context sum is `(sum_k w_k S_k) @ W_txt + b_txt`; so every array with a
candidate axis is e wide, not d + r. One-object scenes and edges without
candidates skip their site; each site's cache holds its weights third.
Training packs once and swaps in each epoch's slab; inference computes
object probabilities only for SG-Cls.
Object terms of the loss weigh lambda1/(B n_b), edge terms lambda2/(B m_b)
and lambda3/(B m_b): the batch mean of per-scene means.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigError, EmptySceneError, InvalidBoxError, NumericError
from .params import Dims, ModelParams, Toggles  # noqa: F401 (re-exported)

CE_EPS = 1e-12


@dataclass
class Example:
    """Numeric inputs of one scene, ready for the head.

    candidate_embeddings has one entry per edge: a (k, e) matrix of the
    drawn phrase embeddings, or None: the pair is unseen with `orm_backoff`
    off, or (lenient OOV rule) none of its phrases has a vector.
    """

    features: np.ndarray            # (n, d)
    boxes: np.ndarray               # (n, 4) rows (x, y, w, h)
    object_labels: np.ndarray       # (n,) int
    edges: List[Tuple[int, int, int]]
    pair_features: List[np.ndarray]            # per edge, (d,)
    target_embeddings: List[np.ndarray]        # per edge, (e,)
    candidate_embeddings: List[Optional[np.ndarray]] = field(default_factory=list)


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    z = x - x.max(axis=axis, keepdims=True)
    exp = np.exp(z)
    return exp / exp.sum(axis=axis, keepdims=True)


def _check_finite(name: str, arr: np.ndarray) -> None:
    if not np.isfinite(arr).all():
        raise NumericError(f"non-finite values in {name}")


# ---------------------------------------------------------------------------
# Attention kernels: per row, and objects over their scene
# ---------------------------------------------------------------------------

def _attend_rows(p: np.ndarray, C: np.ndarray, mask: Optional[np.ndarray] = None
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """Each row p[g] (G, D) scores its own rows C[g] (G, K, D), except where
    `mask` (G, K) is true, and pools them: the weights (G, K) and the pool."""
    a = np.einsum("gkd,gd->gk", C, p)
    if mask is not None:
        np.copyto(a, -np.inf, where=mask)
    w = softmax(a)
    return w, np.einsum("gk,gkd->gd", w, C)


def _attend_rows_bwd(C: np.ndarray, w: np.ndarray, du: np.ndarray
                     ) -> Tuple[np.ndarray, np.ndarray]:
    """Gradients w.r.t. the scores and p, given du, the pool's; d(C) = w (x) du + da (x) p."""
    dw = np.einsum("gkd,gd->gk", C, du)
    da = w * (dw - (w * dw).sum(axis=1, keepdims=True))
    return da, np.einsum("gk,gkd->gd", da, C)


def _attend_scene(x: np.ndarray, W_fuse: np.ndarray, scale: float
                  ) -> Tuple[np.ndarray, tuple]:
    """Each object of x (scenes, n, D) attends over the other objects of its
    scene (weights (scenes, n, n), 0 on the diagonal); the pool is scaled by `scale`."""
    a = x @ np.swapaxes(x, 1, 2)
    i = np.arange(x.shape[1])
    a[:, i, i] = -np.inf
    w = softmax(a)
    qv = np.concatenate([x, scale * (w @ x)], axis=2)
    return (qv.reshape(-1, qv.shape[2]) @ W_fuse).reshape(x.shape), (x, scale, w, qv)


def _attend_scene_bwd(cache: tuple, W_fuse: np.ndarray, dout: np.ndarray
                      ) -> Tuple[np.ndarray, np.ndarray]:
    """Gradients w.r.t. the fuse matrix and x."""
    x, scale, w, qv = cache
    d, dout = x.shape[2], dout.reshape(-1, x.shape[2])
    dqv = (dout @ W_fuse.T).reshape(qv.shape)
    dv = scale * dqv[:, :, d:]
    dw = dv @ np.swapaxes(x, 1, 2)
    da = w * (dw - (w * dw).sum(axis=2, keepdims=True))
    dx = (da + np.swapaxes(da, 1, 2)) @ x  # sums in place, as in backward_scene
    dx += np.swapaxes(w, 1, 2) @ dv
    dx += dqv[:, :, :d]
    return qv.reshape(-1, 2 * d).T @ dout, dx


# ---------------------------------------------------------------------------
# Stage ops the kernel shares with single-vector callers
# ---------------------------------------------------------------------------

def classify_objects(enriched: np.ndarray, params: ModelParams) -> np.ndarray:
    return softmax(enriched @ params.tensors["W_o"] + params.tensors["b_o"], axis=1)


def geometric_quad(box_i: np.ndarray, box_j: np.ndarray) -> np.ndarray:
    """Relative position quadruplet of the object box w.r.t. the subject box;
    boxes are (x, y, w, h), one each or one per row."""
    bi = np.asarray(box_i, dtype=np.float64)
    bj = np.asarray(box_j, dtype=np.float64)
    wh = bi[..., 2:]
    if (np.fmin(wh, bj[..., 2:]) <= 0).any():  # fmin: a NaN size is not <= 0
        raise InvalidBoxError("geometric encoding requires positive box sizes")
    return np.concatenate([(bi[..., :2] - bj[..., :2]) / wh, bj[..., 2:] / wh],
                          axis=-1)


def predict_relationship(f_tripleprime: np.ndarray, params: ModelParams
                         ) -> Tuple[np.ndarray, np.ndarray]:
    probs = softmax(f_tripleprime @ params.tensors["W_r"] + params.tensors["b_r"])
    emb = f_tripleprime @ params.tensors["W_re"] + params.tensors["b_re"]
    return probs, emb


# ---------------------------------------------------------------------------
# Composite loss
# ---------------------------------------------------------------------------

def _weighted_ce(probs: np.ndarray, labels: np.ndarray, weight: np.ndarray
                 ) -> Tuple[float, np.ndarray]:
    """sum_i weight_i * CE_i and its gradient w.r.t. the logits."""
    rows = np.arange(len(labels))
    p = probs[rows, labels]
    dlogits = probs * weight[:, None]
    dlogits[rows, labels] -= weight
    dlogits[p <= CE_EPS] = 0.0  # clamped CE has zero gradient
    return float(weight @ -np.log(np.maximum(p, CE_EPS))), dlogits


def _weighted_cosine(u: np.ndarray, v: np.ndarray, weight: np.ndarray
                     ) -> Tuple[float, np.ndarray]:
    """sum_i weight_i * (1 - cos(u_i, v_i)) and its gradient w.r.t. v."""
    nu = np.linalg.norm(u, axis=1, keepdims=True)
    nv = np.linalg.norm(v, axis=1, keepdims=True)
    if not (np.all(nu > 0) and np.all(nv > 0)):
        raise NumericError("cosine loss undefined for a zero vector")
    cos = np.sum(u * v, axis=1, keepdims=True) / (nu * nv)
    weight = weight[:, None]
    loss = float(np.sum(weight * (1.0 - cos)))
    # d(1 - cos)/dv = cos * v/|v|^2 - u/(|u||v|)
    return loss, weight * (cos * v / (nv * nv) - u / (nu * nv))


def _composite(trace: ForwardTrace, lambdas: Tuple[float, float, float]
               ) -> Tuple[float, tuple]:
    """The one loss: lambda-weighted terms on the trace's head outputs and its
    batch's pack_batch loss columns, and for every caller their gradients at the
    object and predicate logits and predicted embeddings (None: the term is off)."""
    b, terms = trace.batch, [(0.0, None)] * 3
    if lambdas[0] > 0 and len(b.labels):
        terms[0] = _weighted_ce(trace.obj_probs, b.labels, lambdas[0] * b.obj_weight)
    if lambdas[1] > 0 and len(b.predicates):
        terms[1] = _weighted_ce(trace.rel_probs, b.predicates, lambdas[1] * b.edge_weight)
    if lambdas[2] > 0 and len(b.predicates):
        terms[2] = _weighted_cosine(b.targets, trace.pred_emb, lambdas[2] * b.edge_weight)
    return sum(loss for loss, _ in terms), tuple(g for _, g in terms)


# ---------------------------------------------------------------------------
# Packing
# ---------------------------------------------------------------------------

class CandidateSlab(NamedTuple):
    """Text attention's input, one row per edge that attends. A row's k is
    its unmasked count; `put` is the only code that writes a row."""

    rows: np.ndarray   # (G,) the edges' rows, ascending
    sets: np.ndarray   # (G, K, e) their candidate sets, zero-padded to K
    mask: np.ndarray   # (G, K) true at the padding

    def put(self, i: int, c: np.ndarray) -> None:  # c is (k, e), 1 <= k <= K
        self.sets[i], self.mask[i] = 0.0, True
        self.sets[i, :len(c)], self.mask[i, :len(c)] = c, False


@dataclass
class PackedBatch:
    """A batch as flat arrays (module docstring); loss columns None at
    inference, and `candidates` None until pack_batch or predict_batch sets it.
    Scene b's object (edge) rows run from firsts[b][0] (firsts[b][1]) to the next."""

    features: np.ndarray        # (N, d)
    boxes: np.ndarray           # (N, 4)
    labels: np.ndarray          # (N,)
    firsts: List[Tuple[int, int]]  # per scene its first object and edge row, then (N, E)
    obj_groups: List[np.ndarray]  # per object count n > 1: (scenes, n) rows
    pair_features: np.ndarray   # (E, d)
    so_rows: np.ndarray         # (E, 4) object rows (s, o, o, s) of each edge
    dpr: int                    # d + r, the width of an enriched object row
    candidates: Optional[CandidateSlab] = None  # every non-empty candidate set
    obj_weight: Optional[np.ndarray] = None   # (N,) 1 / (B n_b)
    targets: Optional[np.ndarray] = None      # (E, e)
    predicates: Optional[np.ndarray] = None   # (E,)
    edge_weight: Optional[np.ndarray] = None  # (E,) 1 / (B m_b)

    @cached_property
    def quad(self) -> np.ndarray:  # (E, 4); a non-positive box size raises
        return geometric_quad(self.boxes.take(self.so_rows[:, 0], axis=0),
                              self.boxes.take(self.so_rows[:, 1], axis=0))

    @cached_property
    def so_scatter(self) -> np.ndarray:  # flat index of so_rows in an (N, d + r) array
        return (self.so_rows[..., None] * self.dpr + np.arange(self.dpr)).ravel()


def _expect_shape(what: str, arr, shape: Tuple[int, ...]) -> None:
    if np.shape(arr) != shape:
        raise ConfigError(f"{what} have shape {np.shape(arr)}, expected {shape}")


def check_scene(s: int, dims: Dims, features, boxes, labels, pairs, pair_features) -> None:
    """Raise the first fault in scene s's model inputs, pack_inputs' columns."""
    if (n := len(features)) == 0:
        raise EmptySceneError(f"scene {s} has no objects")
    _expect_shape(f"scene {s}: object features", features, (n, dims.d))
    _expect_shape(f"scene {s}: boxes", boxes, (n, 4))
    _expect_shape(f"scene {s}: object labels", labels, (n,))
    for i, y in enumerate(labels):
        if not 0 <= y < dims.n_object_labels:
            raise ConfigError(f"scene {s} object {i}: label {y} outside "
                              f"[0, {dims.n_object_labels})")
    for k, (i, j) in enumerate(pairs):
        if not (0 <= i < n and 0 <= j < n):
            raise ConfigError(f"scene {s} edge {k}: endpoint outside [0, {n})")
        _expect_shape(f"scene {s} edge {k}: pair features", pair_features[k], (dims.d,))


def pack_inputs(dims: Dims, scenes: Sequence[tuple]) -> PackedBatch:
    """The model inputs of checked scenes, each given as check_scene's
    arguments after `dims`: one array per column over all scenes' rows."""
    features, boxes, labels, pairs, pair_features = zip(*scenes)
    offset, ends, firsts, starts = 0, [], [], {}  # starts: first rows by object count
    for f, ps in zip(features, pairs):
        firsts.append((offset, len(ends)))
        ends += [(offset + s, offset + o) for s, o in ps]
        starts.setdefault(len(f), []).append(offset)
        offset += len(f)
    return PackedBatch(
        np.array([row for f in features for row in f], np.float64),
        np.array([box for bs in boxes for box in bs], np.float64),
        np.array([y for ys in labels for y in ys], np.int64),
        firsts + [(offset, len(ends))],
        [np.array(starts[k])[:, None] + np.arange(k) for k in sorted(starts) if k > 1],
        np.array([v for vs in pair_features for v in vs], np.float64).reshape(-1, dims.d),
        np.array(ends, np.int64).reshape(-1, 2).take([0, 1, 1, 0], axis=1), dims.dpr)


def pack_batch(examples: Sequence[Example], dims: Dims) -> PackedBatch:
    """Pack and check examples: model inputs, loss columns, candidate slab."""
    if not examples:
        raise EmptySceneError("empty batch")
    inputs = [(ex.features, ex.boxes, ex.object_labels, [e[:2] for e in ex.edges],
               ex.pair_features) for ex in examples]
    for s, ex in enumerate(examples):
        if not len(ex.pair_features) == len(ex.target_embeddings) == len(ex.edges):
            raise ConfigError(f"scene {s}: need a pair feature and a target embedding per edge")
        check_scene(s, dims, *inputs[s])
        for k, (_, _, p) in enumerate(ex.edges):
            if not 0 <= p < dims.n_predicate_labels:
                raise ConfigError(f"scene {s} edge {k}: predicate id {p} outside "
                                  f"[0, {dims.n_predicate_labels})")
            _expect_shape(f"scene {s} edge {k}: target embeddings",
                          ex.target_embeddings[k], (dims.e,))
    packed, b = pack_inputs(dims, inputs), len(examples)
    n, m = np.diff(packed.firsts, axis=0).T
    packed.obj_weight = np.repeat(1.0 / (b * n), n)
    packed.targets = np.array([v for ex in examples for v in ex.target_embeddings],
                              dtype=np.float64).reshape(-1, dims.e)
    packed.predicates = np.array([p for ex in examples for *_, p in ex.edges], np.int64)
    packed.edge_weight = np.repeat(1.0 / (b * np.maximum(m, 1)), m)
    packed.candidates = _pack_candidates(examples, packed.firsts, dims.e)
    return packed


def _pack_candidates(examples: Sequence[Example], firsts: list, e: int) -> CandidateSlab:
    slots = []
    for s, (ex, (_, row)) in enumerate(zip(examples, firsts)):  # row: the scene's first edge
        for k, c in enumerate(ex.candidate_embeddings[:len(ex.edges)]):
            if c is not None and len(c):
                _expect_shape(f"scene {s} edge {k}: candidate embeddings", c, (len(c), e))
                slots.append((row + k, c))
    width = max((len(c) for _, c in slots), default=0)
    slab = CandidateSlab(np.array([row for row, _ in slots], np.int64),
                         np.empty((len(slots), width, e)), np.empty((len(slots), width), bool))
    for i, (_, c) in enumerate(slots):
        slab.put(i, c)
    return slab


# ---------------------------------------------------------------------------
# Batched forward + backward
# ---------------------------------------------------------------------------

@dataclass
class ForwardTrace:
    batch: PackedBatch
    obj_caches: List[tuple]                # self-attention cache per group
    enriched: np.ndarray                   # (N, d+r)
    obj_probs: Optional[np.ndarray]        # (N, |O|), None if not computed
    txt_cache: Optional[tuple]             # text attention cache or None
    so_cache: Optional[tuple]              # subject-object cache or None
    f3: np.ndarray                         # (E, d+r)
    rel_probs: np.ndarray                  # (E, |P|)
    pred_emb: np.ndarray                   # (E, e)


def enrich_objects(params: ModelParams, batch: PackedBatch) -> Tuple[np.ndarray, list]:
    """Enriched object rows and the self-attention caches."""
    t, toggles = params.tensors, params.toggles
    spat = (batch.boxes @ t["W_spat"] + t["b_spat"] if toggles.geometric_objects
            else np.zeros((len(batch.boxes), params.dims.r)))
    enriched = np.concatenate([batch.features, spat], axis=1)
    _check_finite("F'", enriched)
    # groups hold disjoint rows, so each is read before it is overwritten
    obj_caches = []
    if toggles.object_attention:
        for rows in batch.obj_groups:
            scale = 1.0 / (rows.shape[1] - 1) if toggles.attention_mean else 1.0
            enriched[rows], cache = _attend_scene(enriched[rows], t["W_att_obj"], scale)
            obj_caches.append(cache)
        _check_finite("enriched objects", enriched)
    return enriched, obj_caches


def forward_edges(params: ModelParams, batch: PackedBatch,
                  objects: Tuple[np.ndarray, Optional[np.ndarray], List[tuple]]
                  ) -> ForwardTrace:
    """The edge stage on top of `objects`, enrich_objects' output with the
    class probabilities (or None) between; the trace holds both stages."""
    t, toggles, dpr = params.tensors, params.toggles, params.dims.dpr
    enriched, obj_probs, obj_caches = objects
    g = (batch.quad @ t["W_geo"] + t["b_geo"] if toggles.geometric_relationships
         else np.zeros((len(batch.so_rows), params.dims.r)))
    f = np.concatenate([batch.pair_features, g], axis=1)
    slab, txt_cache, so_cache = batch.candidates, None, None
    if len(slab.rows):  # in phrase space (module docstring)
        q, W_txt = f[slab.rows], t["W_txt"]
        w, u = _attend_rows(q @ W_txt.T, slab.sets, slab.mask)
        scale = 1.0 / (~slab.mask).sum(axis=1, keepdims=True) if toggles.attention_mean else 1.0
        qv = np.concatenate([q, scale * (u @ W_txt + t["b_txt"])], axis=1)
        f[slab.rows], txt_cache = qv @ t["W_att_txt"], (q, u, w, scale, qv)
    if toggles.subject_object_attention:
        cats = enriched[batch.so_rows].reshape(-1, 2 * dpr)  # [s o], [o s] per edge
        contexts = (cats @ t["W_so"]).reshape(-1, 2, dpr)
        w, u = _attend_rows(f, contexts)
        scale = 0.5 if toggles.attention_mean else 1.0
        qv = np.concatenate([f, scale * u], axis=1)
        so_cache, f = (f, contexts, w, scale, qv), qv @ t["W_att_so"]
    _check_finite("edge representations", f)
    rel_probs, pred_emb = predict_relationship(f, params)
    return ForwardTrace(batch, obj_caches, enriched, obj_probs, txt_cache,
                        so_cache, f, rel_probs, pred_emb)


def forward_batch(params: ModelParams, batch: PackedBatch) -> ForwardTrace:
    enriched, obj_caches = enrich_objects(params, batch)
    return forward_edges(params, batch,
                         (enriched, classify_objects(enriched, params), obj_caches))


def forward_scene(params: ModelParams, ex: Example) -> ForwardTrace:
    """The batched forward pass on a batch of one scene."""
    return forward_batch(params, pack_batch([ex], params.dims))


def scene_loss(trace: ForwardTrace, ex: Example, lambdas: Tuple[float, float, float]) -> float:
    """Loss of `ex` given `trace`, its forward_scene pass: _composite's loss
    of that batch of one scene, which must be `ex`."""
    if trace.batch.firsts != [(0, 0), (len(ex.features), len(ex.edges))]:
        raise ConfigError("trace and example differ in object or edge count")
    return _composite(trace, lambdas)[0]


def backward_scene(params: ModelParams, trace: ForwardTrace,
                   heads: tuple) -> Dict[str, np.ndarray]:
    """Gradients of the batch loss, given its gradients at the heads."""
    t, batch = params.tensors, trace.batch
    d, dpr = params.dims.d, params.dims.dpr
    d_obj, d_rel, d_emb = heads
    grads = {"W_att_obj": np.zeros_like(t["W_att_obj"])}  # summed over groups
    d_enriched = np.zeros_like(trace.enriched)
    df3 = np.zeros_like(trace.f3)
    for dlog, W, b, x, dx in ((d_obj, "W_o", "b_o", trace.enriched, d_enriched),
                              (d_rel, "W_r", "b_r", trace.f3, df3),
                              (d_emb, "W_re", "b_re", trace.f3, df3)):
        if dlog is not None:
            grads[W] = x.T @ dlog
            grads[b] = dlog.sum(axis=0)
            dx += dlog @ t[W].T
    df = df3
    if trace.so_cache is not None:
        q, C, w, scale, qv = trace.so_cache
        grads["W_att_so"], dqv = qv.T @ df3, df3 @ t["W_att_so"].T
        du = scale * dqv[:, dpr:]
        da, dq = _attend_rows_bwd(C, w, du)
        df = dqv[:, :dpr] + dq
        # rows re-gathered and sums in place: fewer live arrays, so malloc keeps its heap
        dC = np.einsum("gk,gc->gkc", w, du).reshape(-1, dpr)
        dC += np.einsum("gk,gc->gkc", da, q).reshape(-1, dpr)
        grads["W_so"] = trace.enriched[batch.so_rows].reshape(-1, 2 * dpr).T @ dC
        # a flat scatter-add is ~4x faster; same additions, same order, same bits
        np.add.at(d_enriched.reshape(-1), batch.so_scatter, (dC @ t["W_so"].T).ravel())

    if trace.txt_cache is not None:
        q, u, w, scale, qv = trace.txt_cache
        rows, W_txt = batch.candidates.rows, t["W_txt"]
        dout = df[rows]
        grads["W_att_txt"], dqv = qv.T @ dout, dout @ t["W_att_txt"].T
        dctx = scale * dqv[:, dpr:]
        dp = _attend_rows_bwd(batch.candidates.sets, w, dctx @ W_txt.T)[1]
        df[rows] = dqv[:, :dpr] + dp @ W_txt
        grads["W_txt"], grads["b_txt"] = u.T @ dctx + dp.T @ q, dctx.sum(axis=0)

    # geometric encoding (pair visual feature is an ingested constant)
    if params.toggles.geometric_relationships:
        dg = df[:, d:]
        grads["W_geo"] = batch.quad.T @ dg
        grads["b_geo"] = dg.sum(axis=0)

    d_f1 = d_enriched  # disjoint groups again: rows are read, then replaced
    for rows, cache in zip(batch.obj_groups, trace.obj_caches):
        dW, d_f1[rows] = _attend_scene_bwd(cache, t["W_att_obj"], d_f1[rows])
        grads["W_att_obj"] += dW

    # spatial projection (object features themselves are ingested constants)
    if params.toggles.geometric_objects:
        dspat = d_f1[:, d:]
        grads["W_spat"] = batch.boxes.T @ dspat
        grads["b_spat"] = dspat.sum(axis=0)
    # a head or mechanism that is off, or a site no row reached, has none
    return {k: grads[k] if k in grads else np.zeros_like(v) for k, v in t.items()}


def loss_and_gradients(params: ModelParams, batch: Sequence[Example],
                       packed: Optional[PackedBatch] = None
                       ) -> Tuple[float, Dict[str, np.ndarray]]:
    """Mean params.lambdas-weighted batch loss and its exact gradients.
    `packed`, if given, is the complete pack of `batch`; it is used as it is."""
    trace = forward_batch(params, pack_batch(batch, params.dims) if packed is None else packed)
    loss, heads = _composite(trace, params.lambdas)
    if not np.isfinite(loss):
        raise NumericError("non-finite batch loss")
    return loss, backward_scene(params, trace, heads)
