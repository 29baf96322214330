"""Φ_Spa — spatial heat-map features via CNN late fusion (§III-B).

Four CNNs are trained, one per movement type — move-over (Move), left
click (LMouse), right click (RMouse), scrolling (SMouse), matching the
paper's G_∅/G_l/G_r/G_s networks. Each emits four label coefficients;
the 4 x 4 block is the Φ_Spa feature set, named ``spa_<Type> (<label>)``
after Table IV.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.core.sequential import LABEL_SHORT
from repro.ml.cnn import CNNClassifier

__all__ = ["heatmap_tensors", "SpaFeatureExtractor", "ETYPE_NAMES"]

ETYPE_NAMES = {"m": "Move", "l": "LMouse", "r": "RMouse", "s": "SMouse"}


def heatmap_tensors(hm_counts: pd.DataFrame, *, grid: int) -> dict[tuple[str, str], np.ndarray]:
    """(matcher_id, etype) → grid x grid heat map from binned counts
    (the collected output of :func:`repro.core.mouse.heatmap_counts`)."""
    out: dict[tuple[str, str], np.ndarray] = {}
    for (mid, etype), g in hm_counts.groupby(["matcher_id", "etype"]):
        img = np.zeros((grid, grid))
        img[g["by"].to_numpy(int), g["bx"].to_numpy(int)] = g["cnt"].to_numpy(float)
        out[(mid, etype)] = img
    return out


class SpaFeatureExtractor:
    """Trains one CNN per movement type; emits 16 late-fusion features."""

    def __init__(self, *, grid: int = 24, filters: int = 8, epochs: int = 60, seed: int = 0) -> None:
        self.grid = grid
        self.filters = filters
        self.epochs = epochs
        self.seed = seed
        self.models: dict[str, CNNClassifier] = {}
        self.labels_: list[str] = []

    def feature_names(self) -> list[str]:
        return [
            f"spa_{ETYPE_NAMES[e]} ({LABEL_SHORT[lab]})"
            for e in ETYPE_NAMES
            for lab in self.labels_
        ]

    def _stack(self, tensors: dict, ids: list[str], etype: str) -> np.ndarray:
        zero = np.zeros((self.grid, self.grid))
        return np.stack([tensors.get((mid, etype), zero) for mid in ids])

    def fit(self, data, labels: pd.DataFrame) -> "SpaFeatureExtractor":
        """Train on ``data.heatmaps`` of the matchers in ``labels`` (a
        matcher_id column plus one binary column per label), in the
        order of ``labels``."""
        self.labels_ = [c for c in labels.columns if c != "matcher_id"]
        ids = labels["matcher_id"].tolist()
        Y = labels[self.labels_].to_numpy(dtype=float)
        for ei, etype in enumerate(ETYPE_NAMES):
            m = CNNClassifier(
                self.grid,
                len(self.labels_),
                filters=self.filters,
                epochs=self.epochs,
                seed=self.seed + ei,
            )
            m.fit(self._stack(data.heatmaps, ids, etype), Y)
            self.models[etype] = m
        return self

    def transform(self, data, ids: list[str]) -> pd.DataFrame:
        """Label coefficients of ``ids``, one row per id in that order;
        a matcher without a heat map of some type gets a zero image."""
        if not self.models:
            raise RuntimeError("fit() first")
        out = pd.DataFrame({"matcher_id": ids})
        for etype, name in ETYPE_NAMES.items():
            P = self.models[etype].predict_proba(self._stack(data.heatmaps, ids, etype))
            for li, lab in enumerate(self.labels_):
                out[f"spa_{name} ({LABEL_SHORT[lab]})"] = P[:, li]
        return out
