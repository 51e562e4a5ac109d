"""Forward pass, composite loss, and hand-derived backward pass.

Everything is double precision and row-vector convention: a linear layer
is `x @ W + b`. The attention procedure follows the printed formula
including the 1/k factor on the weighted context sum; `mean_scale=False`
drops it (config flag `attention_mean`).

One kernel runs a whole batch. `pack_batch` stacks the N objects and the E
edges of all B scenes into flat arrays; edges index their subject and
object rows. Ragged sites are grouped by size, never padded: object
self-attention runs once per object count n > 1, on the (scenes, n, n)
block of those scenes with the diagonal excluded, and text attention once
per candidate-set size. One-object scenes and edges without candidates
skip the site. Training packs once and swaps in each epoch's candidate
groups. Object terms of the loss weigh lambda1/(B n_b), edge terms
lambda2/(B m_b) and lambda3/(B m_b): the batch mean of per-scene means.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigError, EmptySceneError, InvalidBoxError, NumericError
from .params import Dims, ModelParams, Toggles  # noqa: F401 (re-exported)

CE_EPS = 1e-12


@dataclass
class Example:
    """Numeric inputs of one scene, ready for the head.

    candidate_embeddings has one entry per edge: a (k, e) matrix of the
    drawn predicate-phrase embeddings, or None when the pair produced no
    candidates (strict ORM mode).
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
# Generic attention
# ---------------------------------------------------------------------------

def _attend_fwd(q: np.ndarray, C: np.ndarray, W_fuse: np.ndarray,
                mean_scale: bool, skip_self: bool = False
                ) -> Tuple[np.ndarray, tuple]:
    """Queries q (G, Q, D) attend over contexts C (G, K, D). With skip_self,
    q and C hold the same rows and no row attends to itself."""
    a = q @ np.swapaxes(C, 1, 2)
    if skip_self:
        diag = np.arange(C.shape[1])
        a[:, diag, diag] = -np.inf
    w = softmax(a)
    scale = 1.0 / (C.shape[1] - skip_self) if mean_scale else 1.0
    qv = np.concatenate([q, scale * (w @ C)], axis=2)
    out = (qv.reshape(-1, qv.shape[2]) @ W_fuse).reshape(q.shape)
    return out, (q, C, w, scale, qv, W_fuse)


def _attend_bwd(cache: tuple, dout: np.ndarray
                ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients w.r.t. the queries, the contexts and the fuse matrix."""
    q, C, w, scale, qv, W_fuse = cache
    d = q.shape[2]
    dW = qv.reshape(-1, 2 * d).T @ dout.reshape(-1, d)
    dqv = (dout.reshape(-1, d) @ W_fuse.T).reshape(qv.shape)
    dv = scale * dqv[:, :, d:]
    dw = dv @ np.swapaxes(C, 1, 2)
    da = w * (dw - (w * dw).sum(axis=2, keepdims=True))
    dq = dqv[:, :, :d] + da @ C
    dC = np.swapaxes(w, 1, 2) @ dv + np.swapaxes(da, 1, 2) @ q
    return dq, dC, dW


# ---------------------------------------------------------------------------
# Stage ops the kernel shares with single-vector callers
# ---------------------------------------------------------------------------

def spatial_projection(boxes: np.ndarray, params: ModelParams,
                       enabled: bool = True) -> np.ndarray:
    n = boxes.shape[0]
    if not enabled:
        return np.zeros((n, params.dims.r), dtype=np.float64)
    return boxes @ params.tensors["W_spat"] + params.tensors["b_spat"]


def classify_objects(enriched: np.ndarray, params: ModelParams) -> np.ndarray:
    return softmax(enriched @ params.tensors["W_o"] + params.tensors["b_o"], axis=1)


def geometric_quad(box_i: np.ndarray, box_j: np.ndarray) -> np.ndarray:
    """Relative position quadruplet of the object box w.r.t. the subject box;
    boxes are (x, y, w, h), one each or one per row."""
    bi = np.asarray(box_i, dtype=np.float64)
    bj = np.asarray(box_j, dtype=np.float64)
    wh = bi[..., 2:]
    if (wh <= 0).any() or (bj[..., 2:] <= 0).any():
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

def _weighted_ce(probs: np.ndarray, labels: np.ndarray, weight: np.ndarray,
                 grad: bool = True) -> Tuple[float, Optional[np.ndarray]]:
    """sum_i weight_i * CE_i and, if `grad`, its gradient w.r.t. the logits."""
    rows = np.arange(len(labels))
    p = probs[rows, labels]
    loss = float(weight @ -np.log(np.maximum(p, CE_EPS)))
    if not grad:
        return loss, None
    dlogits = probs * weight[:, None]
    dlogits[rows, labels] -= weight
    dlogits[p <= CE_EPS] = 0.0  # clamped CE has zero gradient
    return loss, dlogits


def _weighted_cosine(u: np.ndarray, v: np.ndarray, weight: np.ndarray,
                     grad: bool = True) -> Tuple[float, Optional[np.ndarray]]:
    """sum_i weight_i * (1 - cos(u_i, v_i)) and, if `grad`, its gradient
    w.r.t. v."""
    nu = np.linalg.norm(u, axis=1, keepdims=True)
    nv = np.linalg.norm(v, axis=1, keepdims=True)
    if not (np.all(nu > 0) and np.all(nv > 0)):
        raise NumericError("cosine loss undefined for a zero vector")
    cos = np.sum(u * v, axis=1, keepdims=True) / (nu * nv)
    weight = weight[:, None]
    loss = float(np.sum(weight * (1.0 - cos)))
    if not grad:
        return loss, None
    # d(1 - cos)/dv = cos * v/|v|^2 - u/(|u||v|)
    return loss, weight * (cos * v / (nv * nv) - u / (nu * nv))


def _composite(obj_probs: np.ndarray, labels: np.ndarray, obj_weight: np.ndarray,
               rel_probs: np.ndarray, predicates: np.ndarray, targets: np.ndarray,
               pred_emb: np.ndarray, edge_weight: np.ndarray,
               lambdas: Tuple[float, float, float], grad: bool
               ) -> Tuple[float, tuple]:
    """The three lambda-weighted loss terms, summed with per-instance weights,
    and, if `grad`, their gradients w.r.t. the object logits, predicate
    logits and predicted embeddings (None for a term that is off)."""
    terms = [(0.0, None)] * 3
    if lambdas[0] > 0 and len(labels):
        terms[0] = _weighted_ce(obj_probs, labels, lambdas[0] * obj_weight, grad)
    if lambdas[1] > 0 and len(predicates):
        terms[1] = _weighted_ce(rel_probs, predicates, lambdas[1] * edge_weight, grad)
    if lambdas[2] > 0 and len(predicates):
        terms[2] = _weighted_cosine(targets, pred_emb, lambdas[2] * edge_weight, grad)
    return sum(loss for loss, _ in terms), tuple(g for _, g in terms)


def composite_loss(object_labels: Sequence[int], obj_probs: np.ndarray,
                   predicate_labels: Sequence[int], rel_probs: np.ndarray,
                   target_embeddings: Sequence[np.ndarray],
                   predicted_embeddings: Sequence[np.ndarray],
                   lambdas: Tuple[float, float, float]) -> float:
    """lambda1 * object CE + lambda2 * relationship CE + lambda3 * cosine loss,
    each term averaged over its instances. Each edge has one predicate
    label, one target and one predicted embedding."""
    n, m = len(object_labels), len(predicate_labels)
    return _composite(np.asarray(obj_probs), np.asarray(object_labels),
                      np.full(n, 1.0 / max(n, 1)), np.asarray(rel_probs),
                      np.asarray(predicate_labels),
                      np.asarray(target_embeddings, dtype=np.float64),
                      np.asarray(predicted_embeddings, dtype=np.float64),
                      np.full(m, 1.0 / max(m, 1)), lambdas, grad=False)[0]


# ---------------------------------------------------------------------------
# Packing
# ---------------------------------------------------------------------------

@dataclass
class PackedBatch:
    """A batch of examples as flat arrays (layout in the module docstring)."""

    features: np.ndarray        # (N, d)
    boxes: np.ndarray           # (N, 4)
    labels: np.ndarray          # (N,)
    obj_weight: np.ndarray      # (N,) 1 / (B n_b)
    obj_groups: List[np.ndarray]  # per object count n > 1: (scenes, n) rows
    pair_features: np.ndarray   # (E, d)
    targets: np.ndarray         # (E, e)
    predicates: np.ndarray      # (E,)
    so_rows: np.ndarray         # (E, 4) object rows (s, o, o, s) of each edge
    edge_weight: np.ndarray     # (E,) 1 / (B m_b)
    # per candidate-set size k > 0: the edges' rows (G,) and sets (G, k, e)
    cand_groups: List[Tuple[np.ndarray, np.ndarray]]


def _expect_shape(what: str, arr, shape: Tuple[int, ...]) -> None:
    if np.shape(arr) != shape:
        raise ConfigError(f"{what} have shape {np.shape(arr)}, expected {shape}")


def _validate(s: int, ex: Example, dims: Dims) -> None:
    n, m = len(ex.features), len(ex.edges)
    if n == 0:
        raise EmptySceneError(f"scene {s} has no objects")
    _expect_shape(f"scene {s}: object features", ex.features, (n, dims.d))
    _expect_shape(f"scene {s}: boxes", ex.boxes, (n, 4))
    _expect_shape(f"scene {s}: object labels", ex.object_labels, (n,))
    if len(ex.pair_features) != m or len(ex.target_embeddings) != m:
        raise ConfigError(f"scene {s}: need a pair feature and a target "
                          f"embedding per edge")
    for i, y in enumerate(ex.object_labels):
        if not 0 <= y < dims.n_object_labels:
            raise ConfigError(f"scene {s} object {i}: label {y} outside "
                              f"[0, {dims.n_object_labels})")
    for k, (i, j, p) in enumerate(ex.edges):
        if not (0 <= i < n and 0 <= j < n):
            raise ConfigError(f"scene {s} edge {k}: endpoint outside [0, {n})")
        if not 0 <= p < dims.n_predicate_labels:
            raise ConfigError(f"scene {s} edge {k}: predicate id {p} outside "
                              f"[0, {dims.n_predicate_labels})")
        for what, v, width in (("pair features", ex.pair_features[k], dims.d),
                               ("target embeddings", ex.target_embeddings[k],
                                dims.e)):
            if np.shape(v) != (width,):
                _expect_shape(f"scene {s} edge {k}: {what}", v, (width,))


def pack_batch(examples: Sequence[Example], dims: Dims) -> PackedBatch:
    """Pack examples for the batched kernel, checking widths and ids."""
    if not examples:
        raise EmptySceneError("empty batch")
    for s, ex in enumerate(examples):
        _validate(s, ex, dims)
    counts = [len(ex.features) for ex in examples]
    b, n = len(counts), np.array(counts)
    m = np.array([len(ex.edges) for ex in examples])
    offsets = np.cumsum(n) - n
    edges = np.array([e for ex in examples for e in ex.edges],
                     dtype=np.int64).reshape(-1, 3)
    ends = edges[:, :2] + np.repeat(offsets, m)[:, None]
    return PackedBatch(
        features=np.concatenate([ex.features for ex in examples], dtype=np.float64),
        boxes=np.concatenate([ex.boxes for ex in examples], dtype=np.float64),
        labels=np.concatenate([ex.object_labels for ex in examples], dtype=np.int64),
        obj_weight=np.repeat(1.0 / (b * n), n),
        obj_groups=[offsets[n == k][:, None] + np.arange(k)
                    for k in sorted(set(counts)) if k > 1],
        pair_features=np.array([v for ex in examples for v in ex.pair_features],
                               dtype=np.float64).reshape(-1, dims.d),
        targets=np.array([v for ex in examples for v in ex.target_embeddings],
                         dtype=np.float64).reshape(-1, dims.e),
        predicates=edges[:, 2],
        so_rows=ends[:, [0, 1, 1, 0]],
        edge_weight=np.repeat(1.0 / (b * np.maximum(m, 1)), m),
        cand_groups=_pack_candidates(examples, dims.e),
    )


def _pack_candidates(examples: Sequence[Example], e: int
                     ) -> List[Tuple[np.ndarray, np.ndarray]]:
    by_size = defaultdict(lambda: ([], []))  # set size -> edge rows, sets
    row = 0  # of the scene's first edge
    for s, ex in enumerate(examples):
        for k, c in enumerate(ex.candidate_embeddings[:len(ex.edges)]):
            if c is not None and len(c):
                # an attribute read per set; a list goes on to _expect_shape
                if getattr(c, "shape", None) != (len(c), e):
                    _expect_shape(f"scene {s} edge {k}: candidate embeddings",
                                  c, (len(c), e))
                rows, sets = by_size[len(c)]
                rows.append(row + k)
                sets.append(c)
        row += len(ex.edges)
    return [(np.array(rows), np.array(sets, dtype=np.float64))
            for _, (rows, sets) in sorted(by_size.items())]


# ---------------------------------------------------------------------------
# Batched forward + backward
# ---------------------------------------------------------------------------

@dataclass
class ForwardTrace:
    batch: PackedBatch
    obj_caches: List[tuple]                # self-attention cache per group
    enriched: np.ndarray                   # (N, d+r)
    obj_probs: np.ndarray                  # (N, |O|)
    quad: Optional[np.ndarray]             # (E, 4) geometric quadruplets
    txt_caches: List[tuple]                # text attention cache per group
    so_cache: Optional[tuple]              # subject-object cache or None
    f3: np.ndarray                         # (E, d+r)
    rel_probs: np.ndarray                  # (E, |P|)
    pred_emb: np.ndarray                   # (E, e)


def forward_objects(params: ModelParams, batch: PackedBatch
                    ) -> Tuple[np.ndarray, np.ndarray, List[tuple]]:
    """The object stage: enriched object rows, their class probabilities
    and the self-attention caches."""
    enriched = np.concatenate([batch.features, spatial_projection(
        batch.boxes, params, params.toggles.geometric_objects)], axis=1)
    _check_finite("F'", enriched)
    # groups hold disjoint rows, so each is read before it is overwritten
    obj_caches = []
    if params.toggles.object_attention:
        for rows in batch.obj_groups:
            x = enriched[rows]
            enriched[rows], cache = _attend_fwd(x, x, params.tensors["W_att_obj"],
                                                params.toggles.attention_mean,
                                                skip_self=True)
            obj_caches.append(cache)
        _check_finite("enriched objects", enriched)
    return enriched, classify_objects(enriched, params), obj_caches


def forward_edges(params: ModelParams, batch: PackedBatch,
                  objects: Tuple[np.ndarray, np.ndarray, List[tuple]]
                  ) -> ForwardTrace:
    """The edge stage on top of `objects`, the batch's forward_objects
    output; the trace holds both stages."""
    t, toggles = params.tensors, params.toggles
    dpr = params.dims.dpr
    enriched, obj_probs, obj_caches = objects
    n_edges = len(batch.so_rows)
    quad = None
    if toggles.geometric_relationships:
        ends = batch.boxes[batch.so_rows[:, :2]]
        quad = geometric_quad(ends[:, 0], ends[:, 1])
        g = quad @ t["W_geo"] + t["b_geo"]
    else:
        g = np.zeros((n_edges, params.dims.r))
    f = np.concatenate([batch.pair_features, g], axis=1)
    txt_caches = []
    for rows, cand in batch.cand_groups:
        V = cand.reshape(-1, params.dims.e) @ t["W_txt"] + t["b_txt"]
        out, cache = _attend_fwd(f[rows][:, None], V.reshape(len(rows), -1, dpr),
                                 t["W_att_txt"], toggles.attention_mean)
        f[rows] = out[:, 0]
        txt_caches.append(cache)
    so_cache = None
    if toggles.subject_object_attention:
        cats = enriched[batch.so_rows].reshape(n_edges, 2, 2 * dpr)  # [s o], [o s]
        contexts = (cats.reshape(-1, 2 * dpr) @ t["W_so"]).reshape(-1, 2, dpr)
        out, so_cache = _attend_fwd(f[:, None], contexts, t["W_att_so"],
                                    toggles.attention_mean)
        f = out[:, 0]
    _check_finite("edge representations", f)
    rel_probs, pred_emb = predict_relationship(f, params)
    return ForwardTrace(batch, obj_caches, enriched, obj_probs, quad, txt_caches,
                        so_cache, f, rel_probs, pred_emb)


def forward_batch(params: ModelParams, batch: PackedBatch) -> ForwardTrace:
    return forward_edges(params, batch, forward_objects(params, batch))


def forward_scene(params: ModelParams, ex: Example) -> ForwardTrace:
    """The batched forward pass on a batch of one scene."""
    return forward_batch(params, pack_batch([ex], params.dims))


def scene_loss(trace: ForwardTrace, ex: Example,
               lambdas: Tuple[float, float, float]) -> float:
    """Loss of `ex` given `trace`, its forward pass (from forward_scene)."""
    if (len(trace.obj_probs), len(trace.rel_probs)) != (len(ex.features),
                                                        len(ex.edges)):
        raise ConfigError("trace and example differ in object or edge count")
    return composite_loss(ex.object_labels, trace.obj_probs,
                          [p for _, _, p in ex.edges], trace.rel_probs,
                          ex.target_embeddings, trace.pred_emb, lambdas)


def backward_scene(params: ModelParams, trace: ForwardTrace,
                   heads: tuple) -> Dict[str, np.ndarray]:
    """Gradients of the batch loss, given its gradients at the heads."""
    t, batch = params.tensors, trace.batch
    d, dpr = params.dims.d, params.dims.dpr
    d_obj, d_rel, d_emb = heads
    grads = params.zero_like()
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
        dq, dC, grads["W_att_so"] = _attend_bwd(trace.so_cache, df3[:, None])
        df = dq[:, 0]
        dC = dC.reshape(-1, dpr)
        cats = trace.enriched[batch.so_rows].reshape(-1, 2 * dpr)
        grads["W_so"] = cats.T @ dC
        np.add.at(d_enriched, batch.so_rows,
                  (dC @ t["W_so"].T).reshape(-1, 4, dpr))

    for (rows, cand), cache in zip(batch.cand_groups, trace.txt_caches):
        dq, dV, dW = _attend_bwd(cache, df[rows][:, None])
        df[rows] = dq[:, 0]
        dV = dV.reshape(-1, dpr)
        grads["W_att_txt"] += dW
        grads["W_txt"] += cand.reshape(-1, params.dims.e).T @ dV
        grads["b_txt"] += dV.sum(axis=0)

    # geometric encoding (pair visual feature is an ingested constant)
    if trace.quad is not None:
        dg = df[:, d:]
        grads["W_geo"] = trace.quad.T @ dg
        grads["b_geo"] = dg.sum(axis=0)

    d_f1 = d_enriched  # disjoint groups again: rows are read, then replaced
    for rows, cache in zip(batch.obj_groups, trace.obj_caches):
        dq, dC, dW = _attend_bwd(cache, d_f1[rows])
        d_f1[rows] = dq + dC
        grads["W_att_obj"] += dW

    # spatial projection (object features themselves are ingested constants)
    if params.toggles.geometric_objects:
        dspat = d_f1[:, d:]
        grads["W_spat"] = batch.boxes.T @ dspat
        grads["b_spat"] = dspat.sum(axis=0)
    return grads


def loss_and_gradients(params: ModelParams, batch: Sequence[Example],
                       packed: Optional[PackedBatch] = None
                       ) -> Tuple[float, Dict[str, np.ndarray]]:
    """Mean params.lambdas-weighted batch loss and its exact gradients.
    `packed`, if given, is the complete pack of `batch`; it is used as it is."""
    packed = pack_batch(batch, params.dims) if packed is None else packed
    trace = forward_batch(params, packed)
    loss, heads = _composite(trace.obj_probs, packed.labels, packed.obj_weight,
                             trace.rel_probs, packed.predicates, packed.targets,
                             trace.pred_emb, packed.edge_weight, params.lambdas,
                             grad=True)
    if not np.isfinite(loss):
        raise NumericError("non-finite batch loss")
    return loss, backward_scene(params, trace, heads)
