"""Span tracer for the traced benchmark run.

The tracer wraps public functions of ``repro`` from outside the program. A
module-level function is rebound in every loaded module that holds it (the
defining module and every module that imported the name); a method is
replaced on its class. Each call records a span: name, start, end, parent
span and trace id (one trace per benchmark operation).

A span around a function that runs Spark gets a Spark job group of its own,
and the jobs and tasks of that group are read from the status tracker as soon
as the span ends, before Spark forgets them. Functions that return lazy
DataFrames would only time plan construction, so in the traced run their
result is materialised inside the span with ``count()``.

Spans stay in memory; :meth:`Tracer.dump` writes them out at the end.
"""
from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

SPARK = 1  # the function runs Spark jobs
LAZY = 2  # the function returns DataFrame(s) that are not computed yet

# (metric name, defining module, attribute, flags). A dotted attribute names
# a method on a class of that module.
TARGETS = [
    ("measures.preprocess_history", "repro.core.measures", "preprocess_history", SPARK | LAZY),
    ("measures.matcher_measures", "repro.core.measures", "matcher_measures", SPARK | LAZY),
    ("submatchers.expand_submatchers", "repro.core.submatchers", "expand_submatchers", SPARK | LAZY),
    ("features.aggregated_features", "repro.core.features", "aggregated_features", SPARK),
    ("predictors.lrsm_features", "repro.core.predictors", "lrsm_features", SPARK | LAZY),
    ("behavioral.behavioral_features", "repro.core.behavioral", "behavioral_features", SPARK | LAZY),
    ("mouse.mouse_features", "repro.core.mouse", "mouse_features", SPARK | LAZY),
    ("mouse.heatmap_counts", "repro.core.mouse", "heatmap_counts", SPARK | LAZY),
    ("matrix.history_to_matrix", "repro.core.matrix", "history_to_matrix", SPARK | LAZY),
    ("sequential.decision_sequences", "repro.core.sequential", "decision_sequences", SPARK),
    ("sequential.SeqFeatureExtractor.fit", "repro.core.sequential", "SeqFeatureExtractor.fit", 0),
    ("sequential.SeqFeatureExtractor.transform", "repro.core.sequential", "SeqFeatureExtractor.transform", 0),
    ("spatial.heatmap_tensors", "repro.core.spatial", "heatmap_tensors", 0),
    ("spatial.SpaFeatureExtractor.fit", "repro.core.spatial", "SpaFeatureExtractor.fit", 0),
    ("spatial.SpaFeatureExtractor.transform", "repro.core.spatial", "SpaFeatureExtractor.transform", 0),
    ("mexi.prepare", "repro.core.mexi", "prepare", SPARK),
    ("mexi.build_transform_stage", "repro.core.mexi", "build_transform_stage", 0),
    ("mexi.fit_from_stage", "repro.core.mexi", "fit_from_stage", 0),
    ("mexi.MExIModel.predict", "repro.core.mexi", "MExIModel.predict", 0),
    ("mexi.MExIModel.predict_on", "repro.core.mexi", "MExIModel.predict_on", 0),
    ("baselines.baseline_predictions", "repro.core.baselines", "baseline_predictions", 0),
    ("experiments.table2a", "repro.experiments", "table2a", 0),
    ("utilize.select_experts", "repro.core.utilize", "select_experts", 0),
    ("utilize.fused_match", "repro.core.utilize", "fused_match", SPARK),
    ("ml.lstm.fit", "repro.ml.lstm", "LSTMClassifier.fit", 0),
    ("ml.cnn.fit", "repro.ml.cnn", "CNNClassifier.fit", 0),
    ("ml.forest.fit", "repro.ml.forest", "RandomForest.fit", 0),
    ("ml.logreg.fit", "repro.ml.logreg", "LogisticRegression.fit", 0),
    ("spark.createDataFrame", "pyspark.sql.session", "SparkSession.createDataFrame", SPARK),
    ("spark.toPandas", "pyspark.sql.classic.dataframe", "DataFrame.toPandas", SPARK),
]

# Counters derived at span boundaries, with their units.
COUNTERS = {
    "submatchers.virtual_ids": "count",
    "submatchers.used_ratio": "ratio",
    "measures.gamma_perms": "count",
    "features.rows_out": "count",
    "utilize.selected_ratio": "ratio",
    "utilize.fused_pairs": "count",
    "spark.createDataFrame.rows": "count",
    "spark.toPandas.rows": "count",
    "spark.jobs": "count",
    "spark.tasks": "count",
}

ROOT_SPAN = "bench.op"


@dataclass
class Span:
    sid: int
    name: str
    trace: int
    parent: int | None
    start: float
    end: float = 0.0
    spark_jobs: int = 0
    spark_tasks: int = 0


def _is_lazy_frame(x) -> bool:
    return hasattr(x, "count") and hasattr(x, "rdd") and hasattr(x, "schema")


class Tracer:
    """Records spans around the functions in :data:`TARGETS`.

    Wrappers stay installed between :meth:`install` and :meth:`uninstall`;
    they record only while :attr:`active` is true, so the traced run can
    interleave untraced operations to measure the tracing overhead.
    """

    def __init__(self, spark) -> None:
        self.sc = spark.sparkContext
        self.active = False
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self._stack: list[Span] = []
        self._trace = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------
    def install(self) -> None:
        for name, module, attr, flags in TARGETS:
            mod = sys.modules.get(module) or __import__(module, fromlist=["_"])
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._set(cls, meth, self._wrap(name, orig, flags))
                continue
            orig = getattr(mod, attr)
            wrapped = self._wrap(name, orig, flags)
            for m in list(sys.modules.values()):
                d = getattr(m, "__dict__", None)
                if isinstance(d, dict) and d.get(attr) is orig:
                    self._set(m, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- spans --------------------------------------------------------
    @contextlib.contextmanager
    def op(self):
        """One benchmark operation: a new trace id and, when active, a root
        span that catches Spark jobs run outside any layer span."""
        self._trace += 1
        if not self.active:
            yield
            return
        with self._span(ROOT_SPAN, spark=True):
            yield

    @contextlib.contextmanager
    def _span(self, name: str, *, spark: bool):
        parent = self._stack[-1].sid if self._stack else None
        span = Span(len(self.spans), name, self._trace, parent, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        group = prev = None
        if spark:
            prev = self.sc.getLocalProperty("spark.jobGroup.id")
            group = f"mexibench-span-{span.sid}"
            self.sc.setJobGroup(group, name)
        try:
            yield
        finally:
            if group is not None:
                self._read_spark(span, group)
                self.sc.setLocalProperty("spark.jobGroup.id", prev)
            span.end = time.perf_counter()
            self._stack.pop()

    def _read_spark(self, span: Span, group: str) -> None:
        # Job and stage events reach the status store through the
        # asynchronous listener bus; drain it so the counts are complete.
        self.sc._jsc.sc().listenerBus().waitUntilEmpty()
        tracker = self.sc.statusTracker()
        for jid in tracker.getJobIdsForGroup(group):
            span.spark_jobs += 1
            info = tracker.getJobInfo(jid)
            for sid in info.stageIds if info else ():
                st = tracker.getStageInfo(sid)
                if st is not None:
                    span.spark_tasks += st.numCompletedTasks + st.numFailedTasks

    def _count(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + value

    def _wrap(self, name: str, fn, flags: int):
        sig = inspect.signature(fn)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            with tracer._span(name, spark=bool(flags & SPARK)):
                out = fn(*args, **kwargs)
                rows = None
                if flags & LAZY:
                    frames = out if isinstance(out, tuple) else (out,)
                    rows = sum(f.count() for f in frames if _is_lazy_frame(f))
                tracer._after(name, sig, args, kwargs, out, rows)
            return out

        return wrapper

    def _after(self, name: str, sig, args, kwargs, out, rows) -> None:
        """Counters read from the arguments and results of one call."""
        if name == "mexi.prepare":
            ids = out.features["matcher_id"]
            self._count("submatchers.virtual_ids", int(ids.str.contains("#").sum()))
        elif name == "mexi.build_transform_stage":
            data = sig.bind(*args, **kwargs).arguments["data"]
            self._count("submatchers.used", sum("#" in m for m in out.fit_ids))
            self._count(
                "submatchers.extracted",
                int(data.features["matcher_id"].str.contains("#").sum()),
            )
        elif name == "measures.matcher_measures":
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            self._count("measures.gamma_perms", rows * bound.arguments["n_perm"])
        elif name == "features.aggregated_features":
            self._count("features.rows_out", len(out))
        elif name == "utilize.select_experts":
            preds = sig.bind(*args, **kwargs).arguments["preds"]
            self._count("utilize.selected", len(out))
            self._count("utilize.requested", len(preds))
        elif name == "utilize.fused_match":
            self._count("utilize.fused_pairs", out["n_pairs"])
        elif name == "spark.createDataFrame":
            data = sig.bind(*args, **kwargs).arguments["data"]
            if hasattr(data, "__len__"):
                self._count("spark.createDataFrame.rows", len(data))
        elif name == "spark.toPandas":
            self._count("spark.toPandas.rows", len(out))

    # -- results ------------------------------------------------------
    def layer_metrics(self, n_ops: int) -> dict[str, float]:
        """Per-operation busy time (self time), calls, Spark jobs and tasks
        of every target, and the counters, averaged over ``n_ops``."""
        child_time: dict[int, float] = {}
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] = child_time.get(s.parent, 0.0) + (s.end - s.start)
        out = dict.fromkeys(per_layer_units(), 0.0)
        jobs = tasks = 0
        for s in self.spans:
            jobs += s.spark_jobs
            tasks += s.spark_tasks
            if s.name == ROOT_SPAN:
                continue
            out[f"{s.name}.busy_s"] += (s.end - s.start) - child_time.get(s.sid, 0.0)
            out[f"{s.name}.calls"] += 1
            if f"{s.name}.spark_jobs" in out:
                out[f"{s.name}.spark_jobs"] += s.spark_jobs
                out[f"{s.name}.spark_tasks"] += s.spark_tasks
        c = self.counts
        out.update((k, v) for k, v in c.items() if k in out)
        out["spark.jobs"] = float(jobs)
        out["spark.tasks"] = float(tasks)
        out["submatchers.used_ratio"] = (
            c.get("submatchers.used", 0.0) / c["submatchers.extracted"]
            if c.get("submatchers.extracted") else 0.0
        )
        out["utilize.selected_ratio"] = (
            c.get("utilize.selected", 0.0) / c["utilize.requested"]
            if c.get("utilize.requested") else 0.0
        )
        ratios = {"submatchers.used_ratio", "utilize.selected_ratio"}
        n = max(n_ops, 1)
        return {k: (v if k in ratios else v / n) for k, v in out.items()}

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([asdict(s) for s in self.spans]))


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run emits, with its unit."""
    units: dict[str, str] = {}
    for name, _, _, flags in TARGETS:
        units[f"{name}.busy_s"] = "s"
        units[f"{name}.calls"] = "count"
        if flags & SPARK:
            units[f"{name}.spark_jobs"] = "count"
            units[f"{name}.spark_tasks"] = "count"
    units.update(COUNTERS)
    return units
