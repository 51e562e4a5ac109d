"""Outside-in tracing of relkit's public functions.

The benchmark wraps each function listed in TRACED at its defining module
and at every relkit module that imported it by name, records one span per
call (name, start, end, parent span; times in process CPU seconds) in
flat arrays, and aggregates the spans into per-function call counts, total
seconds and self seconds once the traced units have finished. Nothing
under src/ is edited: the wrappers are installed on the imported modules
and removed again afterwards.
"""

from __future__ import annotations

import functools
import importlib
import math
import pkgutil
import sys
from array import array
from collections import defaultdict
from time import process_time
from typing import Callable, Dict, List, Optional, Tuple

# (defining module, attribute) -> metric prefix "<layer>.<function>".
# A dotted attribute names a method on a class in that module.
TRACED: List[Tuple[str, str]] = [
    ("relkit.corpus", "extract_from_text"),
    ("relkit.corpus", "ingest_triplet_file"),
    ("relkit.corpus", "save_triplet_file"),
    ("relkit.orm", "build_orm"),
    ("relkit.orm", "save_orm"),
    ("relkit.orm", "load_orm"),
    ("relkit.orm", "lookup"),
    ("relkit.orm", "sample_candidates"),
    ("relkit.orm", "OrmTable.marginal"),
    ("relkit.embed", "load_embeddings"),
    ("relkit.embed", "embed_phrase"),
    ("relkit.relhead.train", "build_example"),
    ("relkit.relhead.train", "draw_candidates"),
    ("relkit.relhead.train", "train"),
    ("relkit.relhead.train", "predict_scene"),
    ("relkit.relhead.model", "loss_and_gradients"),
    ("relkit.relhead.model", "forward_scene"),
    ("relkit.relhead.model", "backward_scene"),
    ("relkit.relhead.params", "load_params"),
    ("relkit.relhead.params", "save_params"),
    ("relkit.zeroshot", "build_label_matrix"),
    ("relkit.zeroshot", "predict_unseen"),
    ("relkit.zeroshot", "topk"),
    ("relkit.evalkit", "predcls_eval"),
    ("relkit.evalkit", "sgcls_eval"),
    ("relkit.evalkit", "topk_accuracy"),
    ("relkit.core", "load_scenes"),
    ("relkit.config", "load_vocab"),
    ("relkit.synth", "generate"),
]

# By-name import sites the self-test insists on, beyond the generic scan:
# relkit.relhead.train calls these through its own module globals.
REQUIRED_SITES = {
    "relkit.relhead.train": ("lookup", "sample_candidates", "embed_phrase",
                             "forward_scene", "loss_and_gradients"),
}

# Ratios measured at the same boundaries as the spans: name -> (counter, base).
RATIOS = {
    "corpus.triplets_per_line": ("corpus.triplets", "corpus.lines"),
    "orm.lookup.backoff_frac": ("orm.lookup.backoff", "orm.lookup.calls"),
    "embed.embed_phrase.oov_frac": ("embed.embed_phrase.oov",
                                    "embed.embed_phrase.calls"),
    "relhead.empty_candidates_frac": ("relhead.empty_candidate_sets",
                                      "relhead.candidate_sets"),
}


class SelfTestError(RuntimeError):
    """The tracer could not replace a wrapped name, or spans do not nest."""


def metric_name(module: str, attr: str) -> str:
    layer = module.split(".")[1]
    return f"{layer}.{attr.split('.')[-1]}"


def _observe_extract(counters, args, kwargs, result):
    text = args[0] if args else kwargs["text"]
    counters["corpus.lines"] += len(text.splitlines())
    counters["corpus.triplets"] += result.total_weight()


def _observe_lookup(counters, args, kwargs, result):
    counters["orm.lookup.backoff"] += int(result.backoff)


def _observe_embed(counters, args, kwargs, result):
    counters["embed.embed_phrase.oov"] += int(not result[1])


def _observe_draw(counters, args, kwargs, result):
    examples = args[0] if args else kwargs["examples"]
    for ex in examples:
        counters["relhead.candidate_sets"] += len(ex.candidate_embeddings)
        counters["relhead.empty_candidate_sets"] += sum(
            1 for c in ex.candidate_embeddings if c is None)


OBSERVERS: Dict[str, Callable] = {
    "corpus.extract_from_text": _observe_extract,
    "orm.lookup": _observe_lookup,
    "embed.embed_phrase": _observe_embed,
    "relhead.draw_candidates": _observe_draw,
}


def _relkit_modules() -> Dict[str, object]:
    return {name: mod for name, mod in sys.modules.items()
            if mod is not None and (name == "relkit" or name.startswith("relkit."))}


def import_all_relkit() -> None:
    """Import every relkit submodule so that every by-name site exists."""
    package = importlib.import_module("relkit")
    for info in pkgutil.walk_packages(package.__path__, "relkit."):
        importlib.import_module(info.name)


class Tracer:
    """Span recorder plus the patch table that routes calls through it."""

    def __init__(self) -> None:
        self.names = [metric_name(m, a) for m, a in TRACED]
        self._patches: List[Tuple[object, str, object]] = []
        self.reset()

    # -- recording -------------------------------------------------------

    def reset(self) -> None:
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: List[int] = []
        self.counters: Dict[str, int] = defaultdict(int)

    def _wrap(self, nid: int, fn: Callable) -> Callable:
        observe = OBSERVERS.get(self.names[nid])
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(tracer.span_start)
            stack = tracer._stack
            tracer.span_name.append(nid)
            tracer.span_parent.append(stack[-1] if stack else -1)
            tracer.span_end.append(math.nan)
            stack.append(idx)
            tracer.span_start.append(process_time())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.span_end[idx] = process_time()
                stack.pop()
            if observe is not None:
                observe(tracer.counters, args, kwargs, result)
            return result

        wrapper.__wrapped_original__ = fn
        return wrapper

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        """Replace every traced function at every relkit site, then check."""
        if self._patches:
            raise SelfTestError("tracer already installed")
        import_all_relkit()
        modules = _relkit_modules()
        originals = []
        for nid, (modname, attr) in enumerate(TRACED):
            mod = sys.modules.get(modname)
            if mod is None:
                raise SelfTestError(f"module {modname} is missing")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name, None)
                if cls is None or meth not in vars(cls):
                    raise SelfTestError(f"{modname}.{attr} is missing")
                original = vars(cls)[meth]
                self._patch(cls, meth, self._wrap(nid, original))
                originals.append(original)
                continue
            original = vars(mod).get(attr)
            if not callable(original):
                raise SelfTestError(f"{modname}.{attr} is missing")
            wrapper = self._wrap(nid, original)
            for site in modules.values():
                for name, value in list(vars(site).items()):
                    if value is original:
                        self._patch(site, name, wrapper)
            originals.append(original)
        self._self_test(modules, originals)

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._patches):
            setattr(owner, name, value)
        self._patches = []

    def _self_test(self, modules, originals) -> None:
        ids = {id(fn) for fn in originals}
        for modname, mod in modules.items():
            for name, value in vars(mod).items():
                if id(value) in ids:
                    raise SelfTestError(
                        f"{modname}.{name} still refers to the unwrapped function")
            for cls in [v for v in vars(mod).values() if isinstance(v, type)]:
                for name, value in vars(cls).items():
                    if id(value) in ids:
                        raise SelfTestError(
                            f"{modname}.{cls.__name__}.{name} is unwrapped")
        for modname, names in REQUIRED_SITES.items():
            mod = sys.modules[modname]
            for name in names:
                if not hasattr(getattr(mod, name), "__wrapped_original__"):
                    raise SelfTestError(f"{modname}.{name} is not wrapped")

    # -- aggregation -----------------------------------------------------

    def nesting_violations(self) -> int:
        """Spans that are unfinished or leave their parent's interval."""
        bad = 0
        start, end, parent = self.span_start, self.span_end, self.span_parent
        for i in range(len(start)):
            if not (end[i] >= start[i]):
                bad += 1
                continue
            p = parent[i]
            if p >= 0 and not (start[p] <= start[i] and end[i] <= end[p]):
                bad += 1
        return bad

    def summary(self) -> Dict[str, float]:
        """Totals over the recorded spans: calls, s and self_s per name,
        plus the raw counters."""
        n = len(self.names)
        calls = [0] * n
        total = [0.0] * n
        child = defaultdict(float)
        start, end, parent, name = (self.span_start, self.span_end,
                                    self.span_parent, self.span_name)
        durations = [end[i] - start[i] for i in range(len(start))]
        for i, dur in enumerate(durations):
            calls[name[i]] += 1
            total[name[i]] += dur
            if parent[i] >= 0:
                child[parent[i]] += dur
        self_s = [0.0] * n
        for i, dur in enumerate(durations):
            self_s[name[i]] += dur - child.get(i, 0.0)
        out: Dict[str, float] = {}
        for nid, base in enumerate(self.names):
            out[f"{base}.calls"] = calls[nid]
            out[f"{base}.s"] = total[nid]
            out[f"{base}.self_s"] = self_s[nid]
        out.update(self.counters)
        return out


def ratios(summary: Dict[str, float]) -> Dict[str, float]:
    out = {}
    for name, (num, den) in RATIOS.items():
        base = summary.get(den, 0)
        out[name] = summary.get(num, 0) / base if base else 0.0
    return out
