"""Per-edge reference implementation of the relationship head.

This is the scene-at-a-time forward and backward pass the library used
before its batched kernel: one attention call per object and two per
edge, with the loss and gradients reduced in Python loops. It is kept
verbatim as an oracle; the batched kernel must reproduce its loss and
every gradient to round-off. It shares only data types with relkit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from relkit.errors import EmptySceneError, InvalidBoxError, NumericError
from relkit.relhead.model import Example, Toggles
from relkit.relhead.params import ModelParams

CE_EPS = 1e-12


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    z = x - np.max(x, axis=axis, keepdims=True)
    exp = np.exp(z)
    return exp / np.sum(exp, axis=axis, keepdims=True)


def _check_finite(name: str, arr: np.ndarray) -> None:
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"non-finite values in {name}")


def _attend_fwd(q: np.ndarray, C: np.ndarray, W_fuse: np.ndarray,
                mean_scale: bool) -> Tuple[np.ndarray, tuple]:
    k = C.shape[0]
    a = C @ q
    w = softmax(a)
    scale = 1.0 / k if mean_scale else 1.0
    v = scale * (w @ C)
    qv = np.concatenate([q, v])
    out = qv @ W_fuse
    return out, (q, C, w, scale, qv, W_fuse)


def _attend_bwd(cache: tuple, dout: np.ndarray
                ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    q, C, w, scale, qv, W_fuse = cache
    n = q.size
    dW = np.outer(qv, dout)
    dqv = W_fuse @ dout
    dq = dqv[:n].copy()
    dv = dqv[n:]
    dw = scale * (C @ dv)
    dC = scale * np.outer(w, dv)
    da = w * (dw - float(np.dot(w, dw)))
    dq += C.T @ da
    dC += np.outer(da, q)
    return dq, dC, dW


def spatial_projection(boxes: np.ndarray, params: ModelParams,
                       enabled: bool = True) -> np.ndarray:
    n = boxes.shape[0]
    if not enabled:
        return np.zeros((n, params.dims.r), dtype=np.float64)
    return boxes @ params.tensors["W_spat"] + params.tensors["b_spat"]


def geometric_quad(box_i: np.ndarray, box_j: np.ndarray) -> np.ndarray:
    """Relative position quadruplet of the object box w.r.t. the subject box."""
    xi, yi, wi, hi = (float(v) for v in box_i)
    xj, yj, wj, hj = (float(v) for v in box_j)
    if wi <= 0 or hi <= 0 or wj <= 0 or hj <= 0:
        raise InvalidBoxError("geometric encoding requires positive box sizes")
    return np.array([(xi - xj) / wi, (yi - yj) / hi, wj / wi, hj / hi],
                    dtype=np.float64)


def cross_entropy(onehot_index: int, probs: np.ndarray, eps: float = CE_EPS) -> float:
    return -float(np.log(max(float(probs[onehot_index]), eps)))


def _cosine_pair(u: np.ndarray, v: np.ndarray) -> Tuple[float, float, float]:
    nu, nv = float(np.linalg.norm(u)), float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        raise NumericError("cosine loss undefined for a zero vector")
    return float(np.dot(u, v)) / (nu * nv), nu, nv


def composite_loss(object_labels: Sequence[int], obj_probs: np.ndarray,
                   predicate_labels: Sequence[int], rel_probs: np.ndarray,
                   target_embeddings: Sequence[np.ndarray],
                   predicted_embeddings: Sequence[np.ndarray],
                   lambdas: Tuple[float, float, float],
                   eps: float = CE_EPS) -> float:
    """lambda1 * object CE + lambda2 * relationship CE + lambda3 * cosine loss,
    each term averaged over its instances."""
    l1, l2, l3 = lambdas
    total = 0.0
    if l1 > 0 and len(object_labels) > 0:
        ce = [cross_entropy(y, obj_probs[i], eps)
              for i, y in enumerate(object_labels)]
        total += l1 * float(np.mean(ce))
    if l2 > 0 and len(predicate_labels) > 0:
        ce = [cross_entropy(p, rel_probs[i], eps)
              for i, p in enumerate(predicate_labels)]
        total += l2 * float(np.mean(ce))
    if l3 > 0 and len(target_embeddings) > 0:
        cos_losses = [1.0 - _cosine_pair(u, v)[0]
                      for u, v in zip(target_embeddings, predicted_embeddings)]
        total += l3 * float(np.mean(cos_losses))
    return total


@dataclass
class EdgeTrace:
    quad: Optional[np.ndarray]
    f1: np.ndarray
    txt_cache: Optional[tuple]
    f2: np.ndarray
    so_cache: Optional[tuple]
    so_cats: Optional[Tuple[np.ndarray, np.ndarray]]
    f3: np.ndarray
    rel_probs: np.ndarray
    pred_emb: np.ndarray


@dataclass
class ForwardTrace:
    f1_objects: np.ndarray                 # (n, d+r) pre-attention
    obj_caches: Optional[List[tuple]]      # self-attention caches or None
    enriched: np.ndarray                   # (n, d+r)
    obj_probs: np.ndarray                  # (n, |O|)
    edge_traces: List[EdgeTrace]


def forward_scene(params: ModelParams, ex: Example,
                  toggles: Toggles = Toggles()) -> ForwardTrace:
    t = params.tensors
    n = ex.features.shape[0]
    if n == 0:
        raise EmptySceneError("scene has no objects")
    f1 = np.hstack([ex.features,
                    spatial_projection(ex.boxes, params, toggles.geometric_objects)])
    _check_finite("F'", f1)
    obj_caches: Optional[List[tuple]] = None
    if toggles.object_attention and n > 1:
        enriched = np.empty_like(f1)
        obj_caches = []
        for i in range(n):
            ctx = np.delete(f1, i, axis=0)
            out, cache = _attend_fwd(f1[i], ctx, t["W_att_obj"],
                                     toggles.attention_mean)
            enriched[i] = out
            obj_caches.append(cache)
    else:
        enriched = f1
    _check_finite("enriched objects", enriched)
    obj_probs = softmax(enriched @ t["W_o"] + t["b_o"], axis=1)

    edge_traces: List[EdgeTrace] = []
    for idx, (i, j, _p) in enumerate(ex.edges):
        if toggles.geometric_relationships:
            quad = geometric_quad(ex.boxes[i], ex.boxes[j])
            g = quad @ t["W_geo"] + t["b_geo"]
        else:
            quad = None
            g = np.zeros(params.dims.r, dtype=np.float64)
        f1e = np.concatenate([ex.pair_features[idx], g])
        cand = (ex.candidate_embeddings[idx]
                if idx < len(ex.candidate_embeddings) else None)
        if cand is not None and len(cand) > 0:
            V = cand @ t["W_txt"] + t["b_txt"]
            f2e, txt_cache = _attend_fwd(f1e, V, t["W_att_txt"],
                                         toggles.attention_mean)
        else:
            f2e, txt_cache = f1e, None
        if toggles.subject_object_attention:
            cat_ij = np.concatenate([enriched[i], enriched[j]])
            cat_ji = np.concatenate([enriched[j], enriched[i]])
            contexts = np.stack([cat_ij @ t["W_so"], cat_ji @ t["W_so"]])
            f3e, so_cache = _attend_fwd(f2e, contexts, t["W_att_so"],
                                        toggles.attention_mean)
            so_cats = (cat_ij, cat_ji)
        else:
            f3e, so_cache, so_cats = f2e, None, None
        _check_finite(f"edge {idx} representation", f3e)
        rel_probs = softmax(f3e @ t["W_r"] + t["b_r"])
        pred_emb = f3e @ t["W_re"] + t["b_re"]
        edge_traces.append(EdgeTrace(quad, f1e, txt_cache, f2e,
                                     so_cache, so_cats, f3e, rel_probs, pred_emb))
    return ForwardTrace(f1, obj_caches, enriched, obj_probs, edge_traces)


def scene_loss(trace: ForwardTrace, ex: Example,
               lambdas: Tuple[float, float, float],
               eps: float = CE_EPS) -> float:
    return composite_loss(
        list(ex.object_labels), trace.obj_probs,
        [p for _, _, p in ex.edges],
        np.stack([et.rel_probs for et in trace.edge_traces])
        if trace.edge_traces else np.empty((0, 0)),
        ex.target_embeddings,
        [et.pred_emb for et in trace.edge_traces],
        lambdas, eps)


def backward_scene(params: ModelParams, ex: Example, trace: ForwardTrace,
                   toggles: Toggles, lambdas: Tuple[float, float, float],
                   grads: Dict[str, np.ndarray], eps: float = CE_EPS) -> None:
    """Accumulate d(scene loss)/d(params) into grads (in place)."""
    t = params.tensors
    l1, l2, l3 = lambdas
    n = ex.features.shape[0]
    dpr = params.dims.dpr
    d_enriched = np.zeros_like(trace.enriched)

    # object classification term
    if l1 > 0 and n > 0:
        coef = l1 / n
        dlogits = np.zeros_like(trace.obj_probs)
        for i, y in enumerate(ex.object_labels):
            row = trace.obj_probs[i]
            if row[y] > eps:  # clamped CE has zero gradient
                dlogits[i] = coef * row
                dlogits[i, y] -= coef
        grads["W_o"] += trace.enriched.T @ dlogits
        grads["b_o"] += dlogits.sum(axis=0)
        d_enriched += dlogits @ t["W_o"].T

    # relationship terms, per edge
    m = len(ex.edges)
    for idx, et in enumerate(trace.edge_traces):
        i, j, p = ex.edges[idx]
        df3 = np.zeros(dpr, dtype=np.float64)
        if l2 > 0:
            coef = l2 / m
            if et.rel_probs[p] > eps:
                dlog = coef * et.rel_probs.copy()
                dlog[p] -= coef
                grads["W_r"] += np.outer(et.f3, dlog)
                grads["b_r"] += dlog
                df3 += dlog @ t["W_r"].T
        if l3 > 0:
            u = ex.target_embeddings[idx]
            v = et.pred_emb
            cos_uv, nu, nv = _cosine_pair(u, v)
            # d(1 - cos)/dv = cos * v/|v|^2 - u/(|u||v|)
            dv = (l3 / m) * (cos_uv * v / (nv * nv) - u / (nu * nv))
            grads["W_re"] += np.outer(et.f3, dv)
            grads["b_re"] += dv
            df3 += dv @ t["W_re"].T

        # subject-object attention
        if toggles.subject_object_attention:
            dq, dC, dW = _attend_bwd(et.so_cache, df3)
            grads["W_att_so"] += dW
            df2 = dq
            cat_ij, cat_ji = et.so_cats
            grads["W_so"] += np.outer(cat_ij, dC[0]) + np.outer(cat_ji, dC[1])
            dcat_ij = t["W_so"] @ dC[0]
            dcat_ji = t["W_so"] @ dC[1]
            d_enriched[i] += dcat_ij[:dpr] + dcat_ji[dpr:]
            d_enriched[j] += dcat_ij[dpr:] + dcat_ji[:dpr]
        else:
            df2 = df3

        # text attention
        if et.txt_cache is not None:
            dq, dV, dW = _attend_bwd(et.txt_cache, df2)
            grads["W_att_txt"] += dW
            df1e = dq
            cand = ex.candidate_embeddings[idx]
            grads["W_txt"] += cand.T @ dV
            grads["b_txt"] += dV.sum(axis=0)
        else:
            df1e = df2

        # geometric encoding (pair visual feature is an ingested constant)
        if toggles.geometric_relationships:
            dg = df1e[params.dims.d:]
            grads["W_geo"] += np.outer(et.quad, dg)
            grads["b_geo"] += dg

    # object self-attention
    if trace.obj_caches is not None:
        d_f1 = np.zeros_like(trace.f1_objects)
        for i in range(n):
            dq, dC, dW = _attend_bwd(trace.obj_caches[i], d_enriched[i])
            grads["W_att_obj"] += dW
            d_f1[i] += dq
            others = [k for k in range(n) if k != i]
            for row, k in enumerate(others):
                d_f1[k] += dC[row]
    else:
        d_f1 = d_enriched

    # spatial projection (object features themselves are ingested constants)
    if toggles.geometric_objects:
        dspat = d_f1[:, params.dims.d:]
        grads["W_spat"] += ex.boxes.T @ dspat
        grads["b_spat"] += dspat.sum(axis=0)


def loss_and_gradients(params: ModelParams, batch: Sequence[Example],
                       toggles: Toggles = Toggles(),
                       lambdas: Optional[Tuple[float, float, float]] = None,
                       eps: float = CE_EPS
                       ) -> Tuple[float, Dict[str, np.ndarray]]:
    """Mean loss over the batch and its gradients, one scene at a time."""
    if lambdas is None:
        lambdas = params.lambdas
    if not batch:
        raise EmptySceneError("empty batch")
    total = params.zero_like()
    loss_sum = 0.0
    for ex in batch:
        trace = forward_scene(params, ex, toggles)
        loss_sum += scene_loss(trace, ex, lambdas, eps)
        backward_scene(params, ex, trace, toggles, lambdas, total, eps)
    for name in total:
        total[name] /= len(batch)
    return loss_sum / len(batch), total
