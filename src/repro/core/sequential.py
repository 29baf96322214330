"""Φ_Seq — sequential decision features via LSTM late fusion (§III-B).

The per-decision sequence of a matcher has three channels (§III-B):
confidence ``(h_1.c … h_T.c)``, decision time deltas
``(h_2.t − h_1.t, …)``, and consensus ``π_i`` — the number of *training*
matchers whose final matrix contains the pair decided at step i.

One single-channel LSTM is trained per channel (so Table IV can report
channel-level importances like "consensus (P)"); each outputs four label
coefficients. The 3 x 4 coefficients are the Φ_Seq feature block, named
``seq_<channel> (<label>)`` after Table IV.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F

from repro.ml.lstm import LSTMClassifier

__all__ = [
    "decision_sequences",
    "consensus_map",
    "SeqFeatureExtractor",
    "SEQ_CHANNELS",
    "LABEL_SHORT",
]

SEQ_CHANNELS = ["conf", "time", "consensus"]
LABEL_SHORT = {"E_P": "P", "E_R": "R", "E_Res": "Res", "E_Cal": "Cal"}


def decision_sequences(decisions: DataFrame) -> pd.DataFrame:
    """Ordered per-matcher decision sequences, collected to the driver.

    The ordering window and time-delta run in Spark; the result is one
    row per matcher with array columns (confs, dts, rows, cols) — cohort
    scale, so collecting is the correct aggregation level (DESIGN.md §3).
    """
    w_seq = Window.partitionBy("matcher_id", "task").orderBy("t", "step")
    with_dt = decisions.withColumn(
        "_dt", F.coalesce(F.col("t") - F.lag("t").over(w_seq), F.lit(0.0))
    )
    agg = with_dt.groupBy("matcher_id", "task").agg(
        F.sort_array(
            F.collect_list(F.struct("t", "step", "conf", "_dt", "row_i", "col_j"))
        ).alias("seq")
    )
    # sort by id: collect order depends on Spark partitioning, and the
    # network batch order (hence training) must be run-deterministic
    pdf = agg.toPandas().sort_values("matcher_id").reset_index(drop=True)
    pdf["confs"] = pdf["seq"].map(lambda s: np.array([e["conf"] for e in s]))
    pdf["dts"] = pdf["seq"].map(lambda s: np.array([e["_dt"] for e in s]))
    pdf["rows"] = pdf["seq"].map(lambda s: np.array([e["row_i"] for e in s], dtype=int))
    pdf["cols"] = pdf["seq"].map(lambda s: np.array([e["col_j"] for e in s], dtype=int))
    return pdf.drop(columns=["seq"])


def consensus_map(matrix_entries: pd.DataFrame, train_ids: list[str]) -> dict[tuple[int, int], int]:
    """π: element pair → number of train matchers with the pair in their
    final matrix (computed on the training fold only — no leakage).
    ``matrix_entries`` holds (matcher_id, row_i, col_j) final-matrix pairs."""
    sub = matrix_entries[matrix_entries["matcher_id"].isin(train_ids)]
    counts = sub.groupby(["row_i", "col_j"])["matcher_id"].nunique()
    return {(int(i), int(j)): int(n) for (i, j), n in counts.items()}


def _channel_seq(row: pd.Series, channel: str, consensus: dict) -> np.ndarray:
    if channel == "conf":
        v = row["confs"]
    elif channel == "time":
        v = row["dts"]
    else:
        v = np.array(
            [consensus.get((i, j), 0) for i, j in zip(row["rows"], row["cols"])],
            dtype=float,
        )
    return v.reshape(-1, 1)


class SeqFeatureExtractor:
    """Trains one LSTM per channel; emits 12 late-fusion features.

    ``consensus`` is the train-fold map of :func:`consensus_map` that
    feeds the consensus channel, fixed at construction."""

    def __init__(self, *, consensus: dict | None = None, hidden: int = 64,
                 dense: int = 100, epochs: int = 40, max_len: int = 70,
                 seed: int = 0) -> None:
        self.consensus = consensus or {}
        self.hidden = hidden
        self.dense = dense
        self.epochs = epochs
        self.max_len = max_len
        self.seed = seed
        self.models: dict[str, LSTMClassifier] = {}
        self.labels_: list[str] = []

    def feature_names(self) -> list[str]:
        return [
            f"seq_{ch} ({LABEL_SHORT[lab]})"
            for ch in SEQ_CHANNELS
            for lab in self.labels_
        ]

    def _channel_seqs(self, sequences: pd.DataFrame, channel: str) -> list[np.ndarray]:
        return [
            _channel_seq(row, channel, self.consensus)[: self.max_len]
            for _, row in sequences.iterrows()
        ]

    def fit(self, data, labels: pd.DataFrame) -> "SeqFeatureExtractor":
        """Train on ``data.sequences`` (from :func:`decision_sequences`)
        of the matchers in ``labels``: a matcher_id column plus one
        binary column per label. Rows keep the sequence-table order."""
        self.labels_ = [c for c in labels.columns if c != "matcher_id"]
        joined = data.sequences.merge(labels, on="matcher_id")
        Y = joined[self.labels_].to_numpy(dtype=float)
        for ci, ch in enumerate(SEQ_CHANNELS):
            m = LSTMClassifier(
                1,
                len(self.labels_),
                hidden=self.hidden,
                dense=self.dense,
                epochs=self.epochs,
                seed=self.seed + ci,
            )
            m.fit(self._channel_seqs(joined, ch), Y)
            self.models[ch] = m
        return self

    def transform(self, data, ids: list[str]) -> pd.DataFrame:
        """Label coefficients of the ``ids`` that have a sequence, one row
        per matcher in sequence-table order."""
        if not self.models:
            raise RuntimeError("fit() first")
        seqs = data.sequences[data.sequences["matcher_id"].isin(ids)]
        out = seqs[["matcher_id"]].copy()
        for ch in SEQ_CHANNELS:
            P = self.models[ch].predict_proba(self._channel_seqs(seqs, ch))
            for li, lab in enumerate(self.labels_):
                out[f"seq_{ch} ({LABEL_SHORT[lab]})"] = P[:, li]
        return out
