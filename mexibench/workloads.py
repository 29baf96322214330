"""The benchmark's workloads: closed loops with one client.

Every workload calls only public functions of ``repro`` and receives only
cohorts generated by ``repro.humansim.build_cohort`` (the load generator)
from seeds derived from the workload seed. Network sizes come from
``benchmarks/_config.py``.

- ``cv_train``: one operation is the Table IIa protocol (``run_po_experiment``
  + ``table2a``) on a fresh PO cohort: prepare with sub-matcher windows,
  k-fold training of 7 baselines and MExI_none/50/70. Learning-bound.
- ``online_filter``: MExI_50 is trained in set-up; one operation is a request
  carrying a batch of newly finished PO matchers from a held-out seed:
  ``prepare(sub_sizes=[])``, ``predict_on``, ``select_experts`` (falling back
  to the whole batch when nobody is selected) and ``fused_match``. Bound by
  the fixed cost of each Spark job.

Set-up is split in three: ``warm_up`` runs once (the first, cold extraction in
the JVM), ``setup_round`` is the repeatable set-up work (input generation or
model training; the runner repeats it and takes the median) and ``warm_op``
runs untimed operations.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from benchmarks._config import BENCH_GRID, BENCH_N_PERM, BENCH_NN
from mexibench.checks import check_fused, check_predictions, check_table2a
from repro.core.evaluate import jaccard_scores
from repro.core.features import ALL_SETS
from repro.core.measures import attach_labels
from repro.core.mexi import NNParams, build_transform_stage, fit_from_stage, prepare
from repro.core.utilize import fused_match, select_experts
from repro.experiments import run_po_experiment, table2a
from repro.humansim import build_cohort


@dataclass(frozen=True)
class Scale:
    cv_matchers: int  # PO cohort of one cv_train operation
    cv_folds: int
    decisions_per_matcher: int  # cv_train cohorts hold this many decisions on average
    warm_matchers: int  # PO cohort of the cv_train warm-up extraction
    train_matchers: int  # PO cohort MExI_50 is trained on (online_filter)
    batch: int  # matchers per online_filter request
    n_perm: int
    grid: int
    nn: NNParams


SCALES = {
    "bench": Scale(
        cv_matchers=12, cv_folds=3, decisions_per_matcher=60, warm_matchers=4,
        train_matchers=8, batch=2, n_perm=BENCH_N_PERM, grid=BENCH_GRID, nn=BENCH_NN,
    ),
    # About eight matchers: the benchmark's self-test.
    "toy": Scale(
        cv_matchers=8, cv_folds=3, decisions_per_matcher=60, warm_matchers=3,
        train_matchers=6, batch=2, n_perm=10, grid=8,
        nn=NNParams(lstm_hidden=4, lstm_dense=4, lstm_epochs=1, grid=8,
                    cnn_filters=2, cnn_epochs=1),
    ),
}

SIZE_TOLERANCE = 0.03  # cv_train cohort size: within 3% of the target


@dataclass
class OpResult:
    latency_s: float
    matchers: int
    problems: list[str] = field(default_factory=list)
    quality: dict = field(default_factory=dict)


class CvTrain:
    """Table IIa cross-validation on a fresh PO cohort per operation."""

    name = "cv_train"
    min_ops = 1

    def __init__(self, spark, seed: int, scale: Scale) -> None:
        self.spark, self.seed, self.s = spark, seed, scale
        self.seeds: dict[int, int] = {}

    def cohort_seed(self, i: int) -> int:
        """Seed of operation ``i``'s cohort: the first seed drawn for it
        whose cohort size is within SIZE_TOLERANCE of the target, so that
        every operation does a comparable amount of work."""
        target = self.s.decisions_per_matcher * self.s.cv_matchers
        for j in range(1000):
            cand = 100_000 * self.seed + 1000 * i + j
            n = len(build_cohort("PO", n_matchers=self.s.cv_matchers, seed=cand).decisions)
            if abs(n - target) <= SIZE_TOLERANCE * target:
                return cand
        raise RuntimeError(f"no cohort of about {target} decisions for seed {self.seed}")

    def warm_up(self) -> None:
        # One extraction with every sub-matcher window on a small cohort of
        # the same kind: the first extraction in a JVM is much slower.
        cohort = build_cohort("PO", n_matchers=self.s.warm_matchers, seed=1000 * self.seed + 900)
        prepare(self.spark, cohort, n_perm=self.s.n_perm, grid=self.s.grid, seed=self.seed)

    def setup_round(self) -> None:
        # Input generation for the first operation.
        self.seeds[0] = self.cohort_seed(0)

    def warm_op(self) -> None:
        pass

    def op(self, i: int) -> OpResult:
        s = self.s
        seed = self.seeds[i] if i in self.seeds else self.cohort_seed(i)
        t0 = time.perf_counter()
        exp = run_po_experiment(
            self.spark, n_matchers=s.cv_matchers, k=s.cv_folds,
            seed=seed, nn=s.nn, n_perm=s.n_perm, grid=s.grid,
        )
        table = table2a(exp)
        latency = time.perf_counter() - t0
        problems = check_table2a(table)
        quality = {}
        if not problems:
            quality["A_ML"] = float(table.set_index("method").loc["MExI_50", "A_ML"])
        return OpResult(latency, s.cv_matchers, problems, quality)

    def report(self, results: list[OpResult]) -> dict[str, tuple[float, str]]:
        """The workload's own metrics, for the details line."""
        lat = [r.latency_s for r in results]
        return {
            "cv_s": (float(np.median(lat)), "s"),
            "A_ML": (results[0].quality["A_ML"], "ratio"),
        }


class OnlineFilter:
    """Requests of newly finished matchers against a trained MExI_50."""

    name = "online_filter"
    min_ops = 2

    def __init__(self, spark, seed: int, scale: Scale) -> None:
        self.spark, self.seed, self.s = spark, seed, scale
        self.model = None

    def warm_up(self) -> None:
        # Extraction of the training cohort, with the w50 windows MExI_50
        # trains on; being the first extraction in the JVM, it is cold.
        s = self.s
        cohort = build_cohort("PO", n_matchers=s.train_matchers, seed=1000 * self.seed)
        self.train_data = prepare(
            self.spark, cohort, sub_sizes=[50], n_perm=s.n_perm, grid=s.grid, seed=self.seed
        )

    def setup_round(self) -> None:
        # Model training: networks, then the binary-relevance classifiers.
        data = self.train_data
        stage = build_transform_stage(
            data, data.full_ids, submatcher="50", nn=self.s.nn, seed=self.seed
        )
        self.model = fit_from_stage(stage, tuple(ALL_SETS), seed=self.seed)

    def warm_op(self) -> None:
        # Requests keep getting faster for the first few in a JVM; two
        # untimed ones leave the timed requests on the flatter part.
        for k in range(2):
            self._request(1000 * self.seed + 950 + k)

    def _request(self, cohort_seed: int):
        s = self.s
        cohort = build_cohort("PO", n_matchers=s.batch, seed=cohort_seed)
        t0 = time.perf_counter()
        data = prepare(
            self.spark, cohort, sub_sizes=[], n_perm=s.n_perm, grid=s.grid, seed=cohort_seed
        )
        ids = data.full_ids
        pred = self.model.predict_on(data, ids)
        selected = select_experts(pred) or ids
        fused = fused_match(self.spark, data, selected)
        return time.perf_counter() - t0, data, ids, pred, fused

    def op(self, i: int) -> OpResult:
        latency, data, ids, pred, fused = self._request(1000 * self.seed + 100 + i)
        problems = check_predictions(pred, ids) + check_fused(fused)
        quality = {}
        if not problems:
            # Hold-out labels, thresholded as the training set was.
            truth = attach_labels(
                data.measures, delta_res=self.model.delta_res, delta_cal=self.model.delta_cal
            )
            p, r = fused["P"], fused["R"]
            quality = {
                "jaccard": jaccard_scores(truth[truth["matcher_id"].isin(ids)], pred),
                "fused_F1": 2 * p * r / (p + r) if p + r > 0 else 0.0,
            }
        return OpResult(latency, len(ids), problems, quality)

    def report(self, results: list[OpResult]) -> dict[str, tuple[float, str]]:
        """The workload's own metrics, for the details line. Quality pools
        the first ``min_ops`` requests, so it depends on the seed alone."""
        first = results[: self.min_ops]
        return {
            "request_p50_s": (float(np.median([r.latency_s for r in results])), "s"),
            "A_ML": (float(np.mean(np.concatenate([r.quality["jaccard"] for r in first]))),
                     "ratio"),
            "fused_F1": (float(np.mean([r.quality["fused_F1"] for r in first])), "ratio"),
        }


WORKLOADS = {w.name: w for w in (CvTrain, OnlineFilter)}
