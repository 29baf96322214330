"""MExI — Matching Expert Identification (§III, Fig. 7).

Two-stage API designed around the experiment structure:

- :func:`prepare` runs every fold-independent Spark extraction ONCE over
  the cohort plus all sub-matcher windows (measures, Φ_LRSM/Φ_Beh/Φ_Mou,
  sequences, heat maps, final matrices) and collects cohort-scale frames
  to the driver.
- :func:`train_mexi` / :meth:`MExIModel.predict` then run per fold /
  per configuration entirely on the prepared bundle: train-fold
  thresholds → labels, train-only consensus, LSTM/CNN late fusion,
  binary-relevance classifier selection (logistic regression vs random
  forest, 3-fold CV as §IV-B2's "top performing classifier").
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession
from pyspark.sql import functions as F
from pyspark.sql import Window

from repro.core.features import ALL_SETS, FEATURE_SETS, aggregated_features
from repro.core.matrix import history_to_matrix
from repro.core.measures import (
    LABELS,
    attach_labels,
    cognitive_thresholds,
    matcher_measures,
    preprocess_history,
)
from repro.core.mouse import heatmap_counts
from repro.core.sequential import SeqFeatureExtractor, consensus_map, decision_sequences
from repro.core.spatial import SpaFeatureExtractor, heatmap_tensors
from repro.core.submatchers import expand_submatchers, parent_of, spec_of, submatcher_sizes
from repro.humansim.cohort import Cohort
from repro.ml.forest import RandomForest
from repro.ml.logreg import LogisticRegression

__all__ = [
    "NNParams",
    "PreparedData",
    "MExIModel",
    "prepare",
    "train_mexi",
    "build_transform_stage",
    "fit_from_stage",
]


@dataclass(frozen=True)
class NNParams:
    """Network hyper-parameters (§IV-B1 defaults, scaled-down options
    for tests)."""

    lstm_hidden: int = 64
    lstm_dense: int = 100
    lstm_epochs: int = 40
    max_len: int = 70
    grid: int = 24
    cnn_filters: int = 8
    cnn_epochs: int = 60


@dataclass
class PreparedData:
    """Fold-independent extraction products for a cohort (+ submatchers)."""

    cohort: Cohort
    features: pd.DataFrame  # Φ_LRSM+Φ_Beh+Φ_Mou per (real or virtual) id
    measures: pd.DataFrame  # P/R/res/res_pval/cal/conf_mean per id
    sequences: pd.DataFrame  # ordered decision sequences per id
    heatmaps: dict  # (id, etype) → grid x grid tensor
    matrix_entries: pd.DataFrame  # final matrix pairs of REAL matchers
    warmup_measures: pd.DataFrame  # measures on the Thalia phase (baselines)
    grid: int

    @property
    def full_ids(self) -> list[str]:
        return self.cohort.matcher_ids

    def sub_ids_for(self, parents: list[str], spec: str) -> list[str]:
        sizes = set(submatcher_sizes(spec))
        pset = set(parents)
        return [
            m
            for m in self.features["matcher_id"]
            if spec_of(m) in sizes and parent_of(m) in pset
        ]


def _limit_decisions(decisions, n: int):
    w = Window.partitionBy("matcher_id", "task").orderBy("t", "step")
    return (
        decisions.withColumn("_rank", F.row_number().over(w))
        .where(F.col("_rank") <= n)
        .drop("_rank")
    )


def prepare(
    spark: SparkSession,
    cohort: Cohort,
    *,
    sub_sizes: list[int] | None = None,
    n_perm: int = 200,
    grid: int = 24,
    decision_limit: int | None = None,
    seed: int = 0,
) -> PreparedData:
    """Run all Spark-side extraction once (see module docstring).

    ``decision_limit`` truncates each matcher's preprocessed history to its
    first N decisions — the §IV-F early-identification setting.
    ``sub_sizes`` defaults to the union needed by MExI_50 and MExI_70.
    """
    if sub_sizes is None:
        sub_sizes = sorted(set(submatcher_sizes("50")) | set(submatcher_sizes("70")))
    dims = {cohort.task.name: (cohort.task.n_rows, cohort.task.n_cols)}

    dec = preprocess_history(spark.createDataFrame(cohort.decisions))
    if decision_limit is not None:
        dec = _limit_decisions(dec, decision_limit)
    mouse = spark.createDataFrame(cohort.mouse)
    if decision_limit is not None:
        # mouse map truncated to the same time span as the kept decisions
        spans = dec.groupBy("matcher_id", "task").agg(F.max("t").alias("_t_hi"))
        mouse = mouse.join(spans, ["matcher_id", "task"]).where(
            F.col("t") <= F.col("_t_hi")
        ).drop("_t_hi")

    sub_dec, sub_mouse = expand_submatchers(spark, dec, mouse, sizes=sub_sizes)
    all_dec = dec.unionByName(sub_dec).persist()
    all_mouse = mouse.unionByName(sub_mouse).persist()

    reference = spark.createDataFrame(cohort.reference_df())
    # Measures are only needed for REAL matchers: sub-matchers inherit
    # their parent's labels (features from the window, labels of the
    # matcher — which is what lets a trained MExI judge a *partial*
    # history in the §IV-F early-identification setting).
    measures = matcher_measures(spark, dec, reference, n_perm=n_perm, seed=seed).toPandas()
    features = aggregated_features(all_dec, all_mouse, dims)
    sequences = decision_sequences(all_dec)
    hm = heatmap_counts(all_mouse, grid=grid).toPandas()
    heatmaps = heatmap_tensors(hm, grid=grid)
    matrix_entries = (
        history_to_matrix(dec).select("matcher_id", "row_i", "col_j").toPandas()
    )
    warmup_measures = matcher_measures(
        spark,
        spark.createDataFrame(cohort.warmup_decisions),
        spark.createDataFrame(cohort.warmup_reference_df()),
        n_perm=max(20, n_perm // 4),
        seed=seed + 1,
    ).toPandas()
    all_dec.unpersist()
    all_mouse.unpersist()
    return PreparedData(
        cohort=cohort,
        features=features,
        measures=measures,
        sequences=sequences,
        heatmaps=heatmaps,
        matrix_entries=matrix_entries,
        warmup_measures=warmup_measures,
        grid=grid,
    )


class _Constant:
    """Degenerate classifier for single-class training labels."""

    def __init__(self, value: int) -> None:
        self.value = value

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.full(len(X), self.value, dtype=int)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return np.full(len(X), float(self.value))


class _Thresholded:
    """Classifier with a tuned decision threshold.

    Expert labels are imbalanced (≈15% thorough, ≈20% correlated), so
    the default 0.5 cutoff under-predicts rare positives and the
    all-four expert conjunction of §IV-F would select nobody. The
    threshold maximizing F1 on held-out CV predictions restores the
    positive class."""

    def __init__(self, clf, threshold: float) -> None:
        self.clf = clf
        self.threshold = threshold

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.clf.predict_proba(X) >= self.threshold).astype(int)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return self.clf.predict_proba(X)


def _f1(proba: np.ndarray, y: np.ndarray, thr: float) -> float:
    pred = proba >= thr
    tp = float((pred & (y == 1)).sum())
    fp = float((pred & (y == 0)).sum())
    fn = float((~pred & (y == 1)).sum())
    return 2 * tp / max(2 * tp + fp + fn, 1e-9)


def _best_f1_threshold(proba: np.ndarray, y: np.ndarray) -> float:
    """Threshold tuned downward only: lowering the cutoff rescues rare
    positive labels; raising it never helps this problem and overfits
    on noisy CV probabilities. 0.5 is kept unless a lower cutoff beats
    it by a clear F1 margin."""
    base = _f1(proba, y, 0.5)
    best_thr, best_f1 = 0.5, base
    for thr in np.linspace(0.25, 0.45, 5):
        f1 = _f1(proba, y, thr)
        if f1 > best_f1 + 0.05:
            best_f1, best_thr = f1, float(thr)
    return best_thr


def _fit_best_classifier(X: np.ndarray, y: np.ndarray, *, seed: int):
    """§IV-B2: train candidate classifiers, keep the top performer
    (3-fold CV accuracy on the training rows), then tune its decision
    threshold for F1 on the same CV predictions."""
    if len(np.unique(y)) == 1:
        return _Constant(int(y[0]))
    candidates = [
        lambda s: LogisticRegression(seed=s),
        lambda s: RandomForest(n_estimators=60, seed=s),
    ]
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(y))
    scores = []
    cv_probas = []
    for make in candidates:
        accs = []
        proba = np.full(len(y), np.nan)
        for f in range(3):
            te = order[f::3]
            tr = np.setdiff1d(order, te)
            if len(np.unique(y[tr])) == 1:
                accs.append(float((y[te] == y[tr][0]).mean()))
                proba[te] = float(y[tr][0])
                continue
            clf = make(seed).fit(X[tr], y[tr])
            proba[te] = clf.predict_proba(X[te])
            accs.append(float(((proba[te] >= 0.5).astype(int) == y[te]).mean()))
        scores.append(float(np.mean(accs)))
        cv_probas.append(proba)
    k = int(np.argmax(scores))
    thr = _best_f1_threshold(cv_probas[k], y)
    return _Thresholded(candidates[k](seed).fit(X, y), thr)


@dataclass
class MExIModel:
    """A trained expert characterizer f: D → Y (Problem 1)."""

    include_sets: tuple[str, ...]
    feature_cols: list[str]
    classifiers: dict[str, object]
    delta_res: float
    delta_cal: float
    transformed: pd.DataFrame = field(repr=False)  # Φ(D) rows for every id
    # late-fusion feature set ("Seq"/"Spa") → its fitted extractor
    extractors: dict = field(repr=False, default_factory=dict)

    def transform_bundle(self, data: "PreparedData", ids: list[str]) -> pd.DataFrame:
        """Φ(D) rows for ``ids`` of a *different* prepared bundle, using
        this model's trained extractors (and their train-time consensus).

        Used for cross-domain prediction (Table IIb: PO-trained model on
        OAEI matchers) and early identification (§IV-F: features from
        truncated histories)."""
        rows = data.features[data.features["matcher_id"].isin(ids)]
        for ex in self.extractors.values():
            feats = ex.transform(data, rows["matcher_id"].tolist())
            rows = rows.merge(feats, on="matcher_id", how="left")
        return rows

    def _label_frame(self, rows: pd.DataFrame, ids: list[str], method: str) -> pd.DataFrame:
        """Per-label classifier ``method`` outputs on the ``ids`` rows."""
        X = rows.set_index("matcher_id").loc[ids][self.feature_cols].to_numpy(dtype=float)
        out = pd.DataFrame({"matcher_id": ids})
        for lab in LABELS:
            out[lab] = getattr(self.classifiers[lab], method)(X)
        return out

    def predict_on(self, data: "PreparedData", ids: list[str]) -> pd.DataFrame:
        """Predict labels for matchers of another prepared bundle."""
        return self._label_frame(self.transform_bundle(data, ids), ids, "predict")

    def predict(self, ids: list[str]) -> pd.DataFrame:
        """Binary-relevance predictions for the four expertise labels."""
        return self._label_frame(self.transformed, ids, "predict")

    def predict_proba(self, ids: list[str]) -> pd.DataFrame:
        return self._label_frame(self.transformed, ids, "predict_proba")


@dataclass
class _TransformStage:
    """Networks + transformed feature table for one (fold, submatcher)
    configuration — shared across ablation configs (Table III) because
    the network outputs do not depend on the final classifier's
    feature-set mask."""

    transformed: pd.DataFrame
    label_lookup: pd.DataFrame  # labels of REAL matchers, matcher_id-indexed
    fit_ids: list[str]
    delta_res: float
    delta_cal: float
    extractors: dict  # late-fusion feature set → extractor fitted on fit_ids

    def labels_for(self, ids: list[str]) -> pd.DataFrame:
        """Labels for real or virtual ids (virtuals inherit the parent's)."""
        return _labels_for(self.label_lookup, ids)


def _labels_for(label_lookup: pd.DataFrame, ids: list[str]) -> pd.DataFrame:
    rows = label_lookup.loc[[parent_of(m) for m in ids]].reset_index(drop=True)
    rows.insert(0, "matcher_id", ids)
    return rows


# Seed of the out-of-fold half-h network of each late-fusion set: seed + offset + h.
_OOF_SEED_OFFSET = {"Seq": 7, "Spa": 13}


def _cross_fit(make, data, ids, fit_ids, halves, label_lookup, *, seed, oof_seed):
    """Fit ``make(seed)`` on ``fit_ids`` and score ``ids``, then overwrite
    the fit rows with out-of-fold scores: a network trained on each of
    the two ``halves`` of the fit rows scores the other half."""
    ex = make(seed).fit(data, _labels_for(label_lookup, fit_ids))
    feats = ex.transform(data, ids).set_index("matcher_id")
    for h, (tr, te) in enumerate(zip(halves, halves[::-1])):
        ex_h = make(oof_seed + h).fit(data, _labels_for(label_lookup, tr))
        oof = ex_h.transform(data, te).set_index("matcher_id")
        feats.loc[oof.index, oof.columns] = oof
    return ex, feats.reset_index()


def build_transform_stage(
    data: PreparedData,
    train_ids: list[str],
    *,
    submatcher: str = "50",
    need_seq: bool = True,
    need_spa: bool = True,
    nn: NNParams = NNParams(),
    seed: int = 0,
    label_data: PreparedData | None = None,
) -> _TransformStage:
    """Stage 1: thresholds, labels, consensus, late-fusion networks.

    ``label_data`` lets labels come from a different bundle than the
    features — the §IV-F early-identification setting trains on
    *truncated-history* features with *full-history* labels ("does not
    require labels for those decisions": the full-history train labels
    already exist).
    """
    label_source = (label_data or data).measures
    # 1. cognitive thresholds + labels from the train fold (Eqs. 4–5)
    train_meas = label_source[label_source["matcher_id"].isin(train_ids)]
    delta_res, delta_cal = cognitive_thresholds(train_meas)
    label_lookup = attach_labels(
        label_source, delta_res=delta_res, delta_cal=delta_cal
    )[["matcher_id", *LABELS]].set_index("matcher_id")

    # 2. training rows: real train matchers + their sub-matchers
    fit_ids = list(train_ids) + data.sub_ids_for(train_ids, submatcher)

    # 3. one extractor factory (seed → unfitted extractor) per late-fusion
    # set; the sequential one reads the train-only consensus map
    factories = {}
    if need_seq:
        consensus = consensus_map(data.matrix_entries, train_ids)
        factories["Seq"] = lambda s: SeqFeatureExtractor(
            consensus=consensus, hidden=nn.lstm_hidden, dense=nn.lstm_dense,
            epochs=nn.lstm_epochs, max_len=nn.max_len, seed=s,
        )
    if need_spa:
        factories["Spa"] = lambda s: SpaFeatureExtractor(
            grid=data.grid, filters=nn.cnn_filters, epochs=nn.cnn_epochs, seed=s
        )

    # 4. late fusion: train networks on fit rows, transform every id.
    # The classifier must NOT see the networks' optimistic predictions on
    # their own training rows (that over-weights the fused features and
    # hurts test accuracy), so fit rows get OUT-OF-FOLD coefficients:
    # the fit set is split in halves, a network trained on each half
    # scores the other, while the final full-fit networks score all
    # remaining (test-time) rows.
    rng = np.random.default_rng(seed + 101)
    order = rng.permutation(len(fit_ids))
    half = len(fit_ids) // 2
    halves = [[fit_ids[i] for i in order[:half]], [fit_ids[i] for i in order[half:]]]
    if len(fit_ids) < 8:  # tiny test fixtures skip cross-fitting
        halves = []
    ids = data.features["matcher_id"].tolist()
    transformed = data.features.copy()
    extractors = {}
    for name, make in factories.items():
        extractors[name], feats = _cross_fit(
            make, data, ids, fit_ids, halves, label_lookup,
            seed=seed, oof_seed=seed + _OOF_SEED_OFFSET[name],
        )
        transformed = transformed.merge(feats, on="matcher_id", how="left")
    return _TransformStage(
        transformed=transformed,
        label_lookup=label_lookup,
        fit_ids=fit_ids,
        delta_res=delta_res,
        delta_cal=delta_cal,
        extractors=extractors,
    )


def fit_from_stage(
    stage: _TransformStage, include_sets: tuple[str, ...], *, seed: int = 0
) -> MExIModel:
    """Stage 2: binary-relevance classifiers with model selection
    (§IV-B2) over the feature-set mask ``include_sets``."""
    unknown = set(include_sets) - set(ALL_SETS)
    if unknown:
        raise ValueError(f"unknown feature sets: {sorted(unknown)}")
    feature_cols = [
        c for s in include_sets for c in FEATURE_SETS[s] if c in stage.transformed.columns
    ]
    fit_rows = stage.transformed[
        stage.transformed["matcher_id"].isin(stage.fit_ids)
    ].merge(stage.labels_for(stage.fit_ids), on="matcher_id")
    X = fit_rows[feature_cols].to_numpy(dtype=float)
    classifiers = {}
    for li, lab in enumerate(LABELS):
        y = fit_rows[lab].to_numpy(dtype=int)
        classifiers[lab] = _fit_best_classifier(X, y, seed=seed + 17 * li)
    return MExIModel(
        include_sets=tuple(include_sets),
        feature_cols=feature_cols,
        classifiers=classifiers,
        delta_res=stage.delta_res,
        delta_cal=stage.delta_cal,
        transformed=stage.transformed,
        extractors={s: ex for s, ex in stage.extractors.items() if s in include_sets},
    )


def train_mexi(
    data: PreparedData,
    train_ids: list[str],
    *,
    submatcher: str = "50",
    include_sets: tuple[str, ...] = ALL_SETS,
    nn: NNParams = NNParams(),
    seed: int = 0,
) -> MExIModel:
    """Train MExI on the given real train matchers.

    ``submatcher`` ∈ {'none', '50', '70'} (MExI_∅ / MExI_50 / MExI_70).
    ``include_sets`` restricts the feature sets — the ablation axis of
    Table III and the mechanism behind the LRSM/BEH baselines.
    """
    stage = build_transform_stage(
        data,
        train_ids,
        submatcher=submatcher,
        need_seq="Seq" in include_sets,
        need_spa="Spa" in include_sets,
        nn=nn,
        seed=seed,
    )
    return fit_from_stage(stage, tuple(include_sets), seed=seed)
