"""Experiment harness — one function per paper table (DESIGN.md §5).

Everything is deterministic in ``seed``. The PO experiment object bundles
the prepared data, folds, per-fold ground truth and per-fold predictions
of every method, so Tables IIa, III and IV (and the §IV-F utilization
analysis) share one expensive extraction + training pass.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.core.baselines import BASELINE_NAMES, baseline_predictions
from repro.core.evaluate import (
    accuracy_row,
    bootstrap_pvalue,
    jaccard_scores,
    kfold_ids,
)
from repro.core.importance import permutation_importance, top_features
from repro.core.measures import LABELS, attach_labels, cognitive_thresholds
from repro.core.mexi import (  # noqa: F401 (MExIModel re-exported)
    MExIModel,
    NNParams,
    PreparedData,
    build_transform_stage,
    fit_from_stage,
    prepare,
)
from repro.core.utilize import fused_match, performance_table, select_experts
from repro.humansim import build_cohort

__all__ = [
    "POExperiment",
    "run_po_experiment",
    "table2a",
    "table2b",
    "table3",
    "table4",
    "utilization_tables",
    "population_tables",
    "MEXI_VARIANTS",
    "MEXI_SETS",
]

MEXI_VARIANTS = {"MExI_none": "none", "MExI_50": "50", "MExI_70": "70"}
# MExI feature sets in classifier-column order. Not ALL_SETS: its order
# differs, and the column order changes the trained classifiers.
MEXI_SETS = ("LRSM", "Mou", "Beh", "Seq", "Spa")


@dataclass
class POExperiment:
    """Shared state of the PO 5-fold experiment."""

    data: PreparedData
    folds: list[tuple[list[str], list[str]]]
    truth: list[pd.DataFrame]  # per-fold test ground truth (train thresholds)
    preds: dict[str, list[pd.DataFrame]]  # method → per-fold test predictions
    stages_50: list = field(repr=False, default_factory=list)  # per-fold MExI_50 stage
    models_50: list[MExIModel] = field(repr=False, default_factory=list)
    models_70: list[MExIModel] = field(repr=False, default_factory=list)
    nn: NNParams = NNParams()
    seed: int = 0


def _truth_for(data: PreparedData, train_ids: list[str], ids: list[str]) -> pd.DataFrame:
    """Ground-truth labels for ``ids`` with thresholds from ``train_ids``."""
    train_meas = data.measures[data.measures["matcher_id"].isin(train_ids)]
    d_res, d_cal = cognitive_thresholds(train_meas)
    lab = attach_labels(data.measures, delta_res=d_res, delta_cal=d_cal)
    return lab[lab["matcher_id"].isin(ids)][["matcher_id", *LABELS]]


def run_po_experiment(
    spark: SparkSession,
    *,
    n_matchers: int | None = None,
    k: int = 5,
    seed: int = 0,
    nn: NNParams = NNParams(),
    n_perm: int = 100,
    grid: int = 24,
) -> POExperiment:
    """Prepare the PO cohort and collect per-fold predictions of every
    method (7 baselines + 3 MExI variants) — §IV-B1's 5-fold protocol."""
    cohort = build_cohort("PO", n_matchers=n_matchers, seed=seed)
    data = prepare(spark, cohort, n_perm=n_perm, grid=grid, seed=seed)
    folds = kfold_ids(data.full_ids, k=k, seed=seed)
    preds: dict[str, list[pd.DataFrame]] = {
        name: [] for name in [*BASELINE_NAMES, *MEXI_VARIANTS]
    }
    truth, stages_50, models_50, models_70 = [], [], [], []
    for fi, (tr, te) in enumerate(folds):
        fold_seed = seed + 1000 * (fi + 1)
        truth.append(_truth_for(data, tr, te))
        train_labels = _truth_for(data, tr, tr)
        for name, p in baseline_predictions(
            data, tr, te, train_labels, seed=fold_seed
        ).items():
            preds[name].append(p)
        for name, spec in MEXI_VARIANTS.items():
            stage = build_transform_stage(
                data, tr, submatcher=spec, nn=nn, seed=fold_seed
            )
            model = fit_from_stage(stage, MEXI_SETS, seed=fold_seed)
            preds[name].append(model.predict(te))
            if name == "MExI_50":
                stages_50.append(stage)
                models_50.append(model)
            elif name == "MExI_70":
                models_70.append(model)
    return POExperiment(
        data=data, folds=folds, truth=truth, preds=preds,
        stages_50=stages_50, models_50=models_50, models_70=models_70,
        nn=nn, seed=seed,
    )


def _pooled(dfs: list[pd.DataFrame]) -> pd.DataFrame:
    return pd.concat(dfs, ignore_index=True)


def _method_scores(truth: pd.DataFrame, pred: pd.DataFrame) -> dict[str, np.ndarray]:
    """Per-matcher score vectors per metric (for the bootstrap test)."""
    t = truth.set_index("matcher_id")[LABELS]
    p = pred.set_index("matcher_id")[LABELS].loc[t.index]
    out = {
        f"A_{lab.removeprefix('E_')}": (t[lab].to_numpy() == p[lab].to_numpy()).astype(float)
        for lab in LABELS
    }
    out["A_ML"] = jaccard_scores(truth, pred)
    return out


def _accuracy_table(
    truth_by_fold: list[pd.DataFrame],
    preds: dict[str, list[pd.DataFrame]],
    *,
    reference_method: str = "LRSM",
    seed: int = 0,
) -> pd.DataFrame:
    """Table II layout: per-method mean accuracies over folds plus a
    bootstrap significance flag vs the paper's top baseline (LRSM)."""
    truth_all = _pooled(truth_by_fold)
    rows = []
    ref_scores = (
        _method_scores(truth_all, _pooled(preds[reference_method]))
        if reference_method in preds
        else None
    )
    for method, fold_preds in preds.items():
        per_fold = [accuracy_row(t, p) for t, p in zip(truth_by_fold, fold_preds)]
        row = {"method": method}
        for metric in ["A_P", "A_R", "A_Res", "A_Cal", "A_ML"]:
            row[metric] = float(np.mean([f[metric] for f in per_fold]))
        if ref_scores is not None and method != reference_method:
            scores = _method_scores(truth_all, _pooled(fold_preds))
            row["sig_vs_LRSM"] = all(
                bootstrap_pvalue(scores[m], ref_scores[m], seed=seed) < 0.05
                for m in ["A_P", "A_ML"]
            )
        else:
            row["sig_vs_LRSM"] = False
        rows.append(row)
    return pd.DataFrame(rows)


def table2a(exp: POExperiment) -> pd.DataFrame:
    """Table IIa — expert identification accuracy on the PO task."""
    return _accuracy_table(exp.truth, exp.preds, seed=exp.seed)


def table2b(
    spark: SparkSession,
    *,
    po_n: int | None = None,
    oaei_n: int | None = None,
    seed: int = 0,
    nn: NNParams = NNParams(),
    n_perm: int = 100,
    grid: int = 24,
) -> pd.DataFrame:
    """Table IIb — generalizability: train on the PO cohort, test on the
    OAEI cohort (cross-bundle prediction)."""
    po = build_cohort("PO", n_matchers=po_n, seed=seed)
    oaei = build_cohort("OAEI", n_matchers=oaei_n, seed=seed)
    data_po = prepare(spark, po, n_perm=n_perm, grid=grid, seed=seed)
    data_oa = prepare(spark, oaei, sub_sizes=[], n_perm=n_perm, grid=grid, seed=seed)
    tr = data_po.full_ids
    te = data_oa.full_ids
    # ground truth for OAEI matchers with thresholds from the PO train set
    train_meas = data_po.measures[data_po.measures["matcher_id"].isin(tr)]
    d_res, d_cal = cognitive_thresholds(train_meas)
    truth = attach_labels(data_oa.measures, delta_res=d_res, delta_cal=d_cal)
    truth = truth[truth["matcher_id"].isin(te)][["matcher_id", *LABELS]]
    train_labels = _truth_for(data_po, tr, tr)

    preds: dict[str, list[pd.DataFrame]] = {}
    for name, p in baseline_predictions(
        data_po, tr, te, train_labels, seed=seed, test_data=data_oa
    ).items():
        preds[name] = [p]
    for name, spec in MEXI_VARIANTS.items():
        stage = build_transform_stage(data_po, tr, submatcher=spec, nn=nn, seed=seed)
        model = fit_from_stage(stage, MEXI_SETS, seed=seed)
        preds[name] = [model.predict_on(data_oa, te)]
    return _accuracy_table([truth], preds, seed=seed)


def table3(exp: POExperiment) -> pd.DataFrame:
    """Table III — feature-set ablation of MExI_50 (include / exclude).

    Reuses the per-fold MExI_50 transform stages: only the final
    classifiers are refit per feature-set mask.
    """
    configs: dict[str, tuple[str, ...]] = {"MExI_50": MEXI_SETS}
    for s in MEXI_SETS:
        configs[f"include {s}"] = (s,)
    for s in MEXI_SETS:
        configs[f"exclude {s}"] = tuple(x for x in MEXI_SETS if x != s)
    rows = []
    for cname, mask in configs.items():
        per_fold = []
        for fi, (_, te) in enumerate(exp.folds):
            model = fit_from_stage(exp.stages_50[fi], mask, seed=exp.seed + 1000 * (fi + 1))
            per_fold.append(accuracy_row(exp.truth[fi], model.predict(te)))
        row = {"config": cname}
        for metric in ["A_P", "A_R", "A_Res", "A_Cal", "A_ML"]:
            row[metric] = float(np.mean([f[metric] for f in per_fold]))
        rows.append(row)
    return pd.DataFrame(rows)


def table4(exp: POExperiment, *, n_rep: int = 5) -> pd.DataFrame:
    """Table IV — top-2 informative features per feature set per label
    (permutation importance over the per-fold test sets, averaged)."""
    imps = []
    for fi, (_, te) in enumerate(exp.folds):
        imps.append(
            permutation_importance(
                exp.models_50[fi], exp.truth[fi], te, n_rep=n_rep, seed=exp.seed + fi
            )
        )
    mean_imp = (
        pd.concat(imps)
        .groupby(["feature", "set", "label"], as_index=False)["importance"]
        .mean()
    )
    return top_features(mean_imp, k=2)


def utilization_tables(
    spark: SparkSession, exp: POExperiment, *, early_limit: int = 30
) -> dict[str, pd.DataFrame]:
    """§IV-F — matching-outcome improvement (Figs. 10 & 11 as tables).

    Selections: every matcher appears in exactly one test fold, so
    pooling per-fold test selections yields one selection over the whole
    cohort per method. Early identification re-extracts features from
    the first ``early_limit`` decisions and predicts with the
    full-history-trained fold models; performance is always evaluated on
    the full history.
    """
    data = exp.data
    # -- full-history identification (Fig. 10)
    mexi_sel: list[str] = []
    for p in exp.preds["MExI_50"]:
        mexi_sel += select_experts(p)
    selections = {"no_filter": list(data.full_ids), "MExI": sorted(mexi_sel)}
    for name in ["Conf", "Qual. Test", "Self-Assess"]:
        sel: list[str] = []
        for p in exp.preds[name]:
            sel += select_experts(p)
        selections[name] = sorted(sel)
    perf_full = performance_table(data, selections)

    # -- early identification (Fig. 11): MExI retrained on the train
    # matchers' TRUNCATED-history features with their FULL-history labels
    # (§IV-F — "does not require labels for those decisions"), then
    # applied to the test matchers' truncated histories.
    data_early = prepare(
        spark, data.cohort, sub_sizes=[], n_perm=20, grid=data.grid,
        decision_limit=early_limit, seed=exp.seed,
    )
    early_sel: list[str] = []
    for fi, (tr, te) in enumerate(exp.folds):
        stage = build_transform_stage(
            data_early, tr, submatcher="none", nn=exp.nn,
            seed=exp.seed + 1000 * (fi + 1), label_data=data,
        )
        model_e = fit_from_stage(stage, MEXI_SETS, seed=exp.seed + 1000 * (fi + 1))
        early_sel += select_experts(model_e.predict(te))
    early_selections = dict(selections)
    early_selections.pop("MExI")
    early_selections["MExI (early)"] = sorted(early_sel)
    perf_early = performance_table(data, early_selections)

    # -- fused match: correspondence filtering + vote aggregation
    fused_rows = []
    for method, ids in selections.items():
        f = fused_match(spark, data, ids if method != "no_filter" else data.full_ids)
        fused_rows.append({"method": method, **f})
    fused = pd.DataFrame(fused_rows)
    return {"perf_full": perf_full, "perf_early": perf_early, "fused": fused}


def population_tables(spark: SparkSession, *, seed: int = 0, n_perm: int = 100) -> pd.DataFrame:
    """§IV-C / Figs. 8–9 — population-level measure means and expert
    proportions for both cohorts."""
    rows = []
    for kind in ["PO", "OAEI"]:
        cohort = build_cohort(kind, seed=seed)
        data = prepare(spark, cohort, sub_sizes=[], n_perm=n_perm, seed=seed)
        m = data.measures
        d_res, d_cal = cognitive_thresholds(m)
        lab = attach_labels(m, delta_res=d_res, delta_cal=d_cal)
        under = m[m["cal"] < 0]
        pos = m[m["res"] > 0]
        rows.append(
            {
                "cohort": kind,
                "n_matchers": len(m),
                "n_decisions": int(len(cohort.decisions)),
                "mean_P": m["P"].mean(),
                "mean_R": m["R"].mean(),
                "mean_abs_Res": m["res"].abs().mean(),
                "mean_pos_Res": pos["res"].mean() if len(pos) else float("nan"),
                "mean_abs_Cal": m["cal"].abs().mean(),
                "mean_underconf_abs_Cal": under["cal"].abs().mean() if len(under) else float("nan"),
                "frac_precise": lab["E_P"].mean(),
                "frac_thorough": lab["E_R"].mean(),
                "frac_correlated": lab["E_Res"].mean(),
                "frac_calibrated": lab["E_Cal"].mean(),
            }
        )
    return pd.DataFrame(rows)
