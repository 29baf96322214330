"""Correctness checks on the outputs of each benchmark operation.

Each check returns a list of problems; an empty list means the output is
correct. A failed check counts the operation as failed.
"""
from __future__ import annotations

import math

import pandas as pd

ACCURACIES = ["A_P", "A_R", "A_Res", "A_Cal", "A_ML"]
LABELS = ["E_P", "E_R", "E_Res", "E_Cal"]
TABLE2A_ROWS = 10  # 7 baselines + MExI_none / MExI_50 / MExI_70


def check_table2a(table: pd.DataFrame) -> list[str]:
    """Table IIa: ten method rows with all five accuracies in [0, 1]."""
    problems = []
    if len(table) != TABLE2A_ROWS:
        problems.append(f"table2a has {len(table)} rows, expected {TABLE2A_ROWS}")
    if "method" not in table.columns or table["method"].duplicated().any():
        problems.append("table2a methods missing or duplicated")
    for col in ACCURACIES:
        if col not in table.columns:
            problems.append(f"table2a lacks column {col}")
            continue
        vals = pd.to_numeric(table[col], errors="coerce")
        if not vals.between(0.0, 1.0).all():
            problems.append(f"table2a {col} outside [0, 1]: {vals.tolist()}")
    return problems


def check_predictions(pred: pd.DataFrame, requested: list[str]) -> list[str]:
    """``predict_on``: exactly one row per requested matcher, labels in {0, 1}."""
    problems = []
    if "matcher_id" not in pred.columns:
        return ["predictions lack matcher_id"]
    ids = pred["matcher_id"].tolist()
    if sorted(ids) != sorted(requested) or len(set(ids)) != len(ids):
        problems.append(f"predicted ids {ids} differ from requested {requested}")
    for lab in LABELS:
        if lab not in pred.columns:
            problems.append(f"predictions lack label {lab}")
        elif not pred[lab].isin([0, 1]).all():
            problems.append(f"label {lab} outside {{0, 1}}: {pred[lab].tolist()}")
    return problems


def check_fused(fused: dict) -> list[str]:
    """``fused_match``: precision and recall of the fused match in [0, 1]."""
    problems = []
    for key in ("P", "R"):
        v = fused.get(key)
        if not isinstance(v, (int, float)) or math.isnan(v) or not 0.0 <= v <= 1.0:
            problems.append(f"fused {key} = {v!r} outside [0, 1]")
    return problems
