"""In-memory span tracing around the layer functions the CLI and trainer call.

`install` replaces the public names that `searchbias.cli` and
`searchbias.trainer` import with wrappers that record one span per call:
(id, name, start, end, parent id, attributes, error). Span names are
`<layer>.<function>`, where the layer is the package module that defines the
function. Nothing under `src/` is modified; the wrappers live only in the
traced client process. A name a later version of the package no longer has is
listed in `Tracer.missing`, and the metrics that depend on it read as absent.

`layer_metrics` turns a list of spans into the per-layer metrics the benchmark
reports: time, call counts and counts computed from argument shapes.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import os
import time
from collections import defaultdict

LAYERS = ("core", "retrieval", "metrics", "clipper", "trainer", "gender_text", "cli")

# Per-layer metrics (name -> unit), reported by every traced run.
PER_LAYER = {
    "core.load_embeddings.s": "s",
    "core.load_embeddings.calls": "count",
    "core.load_embeddings.rows": "count",
    "core.load_embeddings.bytes": "bytes",
    "core.save_embeddings.s": "s",
    "core.save_embeddings.bytes": "bytes",
    "core.load_labels.s": "s",
    "retrieval.retrieve_all.s": "s",
    "retrieval.retrieve_all.calls": "count",
    "retrieval.retrieve_all.queries": "count",
    "retrieval.madds": "count",
    "retrieval.kept_frac": "ratio",
    "metrics.bias_at_k.s": "s",
    "metrics.bias_at_k.calls": "count",
    "metrics.recall_at_k.s": "s",
    "metrics.recall_at_k.calls": "count",
    "metrics.label_lookups": "count",
    "metrics.occupation_bias_report.s": "s",
    "metrics.occupation_bias_report.terms": "count",
    "clipper.fit_clip_plan.s": "s",
    "clipper.fit_clip_plan.dims": "count",
    "clipper.apply_clip.s": "s",
    "clipper.apply_clip.rows": "count",
    "trainer.train.s": "s",
    "trainer.train.calls": "count",
    "trainer.epochs": "count",
    "trainer.pair_steps": "count",
    "trainer.sgd.s": "s",
    "trainer.sgd.alpha_0.s": "s",
    "trainer.sgd.alpha_1.s": "s",
    "gender_text.load_captions.s": "s",
    "gender_text.image_gender.s": "s",
    "gender_text.image_gender.calls": "count",
    "gender_text.neutralize.s": "s",
    "gender_text.neutralize.calls": "count",
    "gender_text.save_captions.s": "s",
    "cli.evaluate.s": "s",
    "cli.clip_fit.s": "s",
    "cli.clip_apply.s": "s",
    "cli.occupation.s": "s",
    "cli.label.s": "s",
    "cli.neutralize.s": "s",
    "cli.sweep_alpha.s": "s",
    **{f"{layer}.self.s": "s" for layer in LAYERS},
    **{f"{layer}.errors": "count" for layer in LAYERS},
    "trace.overhead_s": "s",
}

# Counts derived from argument shapes rather than observed work.
COMPUTED = (
    "core.load_embeddings.bytes",
    "core.save_embeddings.bytes",
    "retrieval.madds",
    "retrieval.kept_frac",
    "metrics.label_lookups",
    "trainer.pair_steps",
)


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _table_in(args, kwargs, result):
    return {"rows": len(result), "bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _table_out(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 1, "path"))}


def _retrieval(args, kwargs, result):
    texts = _arg(args, kwargs, 0, "texts")
    images = _arg(args, kwargs, 1, "images")
    k = _arg(args, kwargs, 2, "k")
    return {"queries": len(texts), "images": len(images), "dim": images.dim, "k": min(k, len(images))}


def _lookups(args, kwargs, result):
    return {"lookups": len(_arg(args, kwargs, 0, "results")) * _arg(args, kwargs, 2, "k")}


def _train(args, kwargs, result):
    dataset = _arg(args, kwargs, 0, "dataset")
    cfg = _arg(args, kwargs, 1, "cfg")
    n = len(dataset.texts)
    val_frac = kwargs.get("val_frac", 0.1)
    return {"alpha": cfg.alpha, "n_train": n - int(round(n * val_frac))}


# (module, imported name, span name, attribute function)
TARGETS = (
    ("cli", "load_embeddings", "core.load_embeddings", _table_in),
    ("cli", "save_embeddings", "core.save_embeddings", _table_out),
    ("cli", "load_labels", "core.load_labels", None),
    ("cli", "load_truth", "core.load_truth", None),
    ("cli", "save_labels", "core.save_labels", None),
    ("cli", "retrieve_all", "retrieval.retrieve_all", _retrieval),
    ("trainer", "retrieve_all", "retrieval.retrieve_all", _retrieval),
    ("cli", "bias_at_k", "metrics.bias_at_k", _lookups),
    ("trainer", "bias_at_k", "metrics.bias_at_k", _lookups),
    ("cli", "recall_at_k", "metrics.recall_at_k", None),
    ("trainer", "recall_at_k", "metrics.recall_at_k", None),
    ("cli", "occupation_bias_report", "metrics.occupation_bias_report",
     lambda a, kw, r: {"terms": len(_arg(a, kw, 0, "terms"))}),
    ("cli", "fit_clip_plan", "clipper.fit_clip_plan",
     lambda a, kw, r: {"dims": _arg(a, kw, 0, "images").dim}),
    ("cli", "apply_clip", "clipper.apply_clip",
     lambda a, kw, r: {"rows": len(_arg(a, kw, 0, "table"))}),
    ("cli", "train", "trainer.train", _train),
    ("cli", "load_captions", "gender_text.load_captions", None),
    ("cli", "image_gender", "gender_text.image_gender", None),
    ("cli", "neutralize", "gender_text.neutralize", None),
    ("cli", "save_captions", "gender_text.save_captions", None),
    ("cli", "cmd_evaluate", "cli.evaluate", None),
    ("cli", "cmd_clip_fit", "cli.clip_fit", None),
    ("cli", "cmd_clip_apply", "cli.clip_apply", None),
    ("cli", "cmd_occupation", "cli.occupation", None),
    ("cli", "cmd_label", "cli.label", None),
    ("cli", "cmd_neutralize", "cli.neutralize", None),
    ("cli", "cmd_sweep_alpha", "cli.sweep_alpha", None),
)

_NO_EPOCHS = "searchbias.trainer.train(on_epoch)"

# Metrics that read as absent when their span has no wrapped name at all.
_SOURCES = {
    "retrieval.madds": "retrieval.retrieve_all",
    "retrieval.kept_frac": "retrieval.retrieve_all",
    "metrics.label_lookups": "metrics.bias_at_k",
    "trainer.epochs": "trainer.train",
    "trainer.pair_steps": "trainer.train",
    "trainer.sgd.s": "trainer.train",
    "trainer.sgd.alpha_0.s": "trainer.train",
    "trainer.sgd.alpha_1.s": "trainer.train",
}


class Tracer:
    """Records spans in memory; one instance per traced client process."""

    def __init__(self):
        self.spans = []
        self.missing = []
        self._ids = itertools.count()
        # Ids of the open spans, innermost last. Every wrapped name is called
        # on the main thread (the retrieval pool only runs retrieve_topk).
        self._stack = []

    def mark(self, name):
        """Record a zero-length span under the innermost open span."""
        stack = self._stack
        now = time.perf_counter()
        self.spans.append((next(self._ids), name, now, now, stack[-1] if stack else None, None, False))

    def wrap(self, module, attr, name, attributes=None):
        fn = getattr(module, attr, None)
        if fn is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        if name == "trainer.train":
            fn = self._stamp_epochs(fn)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((span_id, name, start, end, parent, None, True))
                raise
            end = time.perf_counter()
            stack.pop()
            attrs = attributes(args, kwargs, result) if attributes else None
            tracer.spans.append((span_id, name, start, end, parent, attrs, False))
            return result

        setattr(module, attr, traced)

    def _stamp_epochs(self, train):
        """Mark each `on_epoch` callback, so epoch ends show in the trace."""
        if "on_epoch" not in inspect.signature(train).parameters:
            self.missing.append(_NO_EPOCHS)
            return train

        @functools.wraps(train)
        def stamped(*args, on_epoch=None, **kwargs):
            def callback(row):
                self.mark("trainer.epoch")
                if on_epoch is not None:
                    on_epoch(row)

            return train(*args, on_epoch=callback, **kwargs)

        return stamped


def install(tracer):
    """Wrap every target name in the imported searchbias modules."""
    from searchbias import cli, trainer

    modules = {"cli": cli, "trainer": trainer}
    for module, attr, name, attributes in TARGETS:
        tracer.wrap(modules[module], attr, name, attributes)


def absent_metrics(missing):
    """Per-layer metric names whose every source name could not be wrapped."""
    missing = set(missing)
    gone = set()
    for span in {name for _, _, name, _ in TARGETS}:
        sources = [f"searchbias.{m}.{a}" for m, a, n, _ in TARGETS if n == span]
        if all(src in missing for src in sources):
            gone.add(span)
    absent = {
        metric
        for metric in PER_LAYER
        if _SOURCES.get(metric) in gone or any(metric.startswith(span + ".") for span in gone)
    }
    if _NO_EPOCHS in missing:
        absent.update(("trainer.epochs", "trainer.pair_steps"))
    return sorted(absent)


def layer_metrics(spans):
    """Per-layer metrics of one pipeline run from its spans."""
    child_time = defaultdict(float)
    for _, _, start, end, parent, _, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    attrs_of = {span[0]: span[5] for span in spans}
    out = defaultdict(float)
    scored = kept = 0
    for span_id, name, start, end, parent, attrs, error in spans:
        if name == "trainer.epoch":
            out["trainer.epochs"] += 1
            out["trainer.pair_steps"] += (attrs_of.get(parent) or {}).get("n_train", 0)
            continue
        duration = end - start
        self_time = duration - child_time[span_id]
        layer = name.split(".", 1)[0]
        out[f"{layer}.self.s"] += self_time
        out[f"{layer}.errors"] += error
        out[f"{name}.s"] += duration
        out[f"{name}.calls"] += 1
        attrs = attrs or {}
        for key in ("rows", "bytes", "queries", "terms", "dims"):
            if key in attrs:
                out[f"{name}.{key}"] += attrs[key]
        if name == "retrieval.retrieve_all" and attrs:
            out["retrieval.madds"] += attrs["queries"] * attrs["images"] * attrs["dim"]
            scored += attrs["queries"] * attrs["images"]
            kept += attrs["queries"] * attrs["k"]
        elif name == "metrics.bias_at_k" and attrs:
            out["metrics.label_lookups"] += attrs["lookups"]
        elif name == "trainer.train":
            # Train self time: everything but the validation spans under it.
            out["trainer.sgd.s"] += self_time
            alpha = attrs.get("alpha")
            if alpha in (0.0, 1.0):
                out[f"trainer.sgd.alpha_{int(alpha)}.s"] += self_time
    out["retrieval.kept_frac"] = kept / scored if scored else 0.0
    return {metric: float(out[metric]) for metric in PER_LAYER if metric != "trace.overhead_s"}
