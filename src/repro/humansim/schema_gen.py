"""Synthetic matching-task generator (schema pairs + reference match).

Substitutes the paper's proprietary tasks (DESIGN.md §2):

- **PO task** — Purchase-Order schemata of 142 x 46 attributes [9],
- **OAEI task** — ontology pair of 121 x 109 elements,
- **Thalia warm-up** — a short 10 x 9 pair used for training/qualification.

A task carries a planted reference match ``M^e`` and a per-pair
*difficulty* in [0, 1] mixing easy and complex matches, as §IV-A
describes. Attribute names are composed from a purchase-order vocabulary
seeded with the TPC-H-lite column names of :mod:`repro.synth_data`, so
the generated schemata look like the paper's Fig. 2 examples
(poCode / orderDate / city ...).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd

from repro.synth_data import matching_vocabulary

__all__ = ["MatchingTask", "make_task", "TASK_SPECS", "SCREEN_W", "SCREEN_H", "REGIONS"]

# Conceptual screen geometry of the OntoBuilder-style interface (§IV-A):
# two schema trees on top, a properties/metadata box top-right, and the
# matching matrix at the bottom. Mouse events are generated inside these.
SCREEN_W, SCREEN_H = 1280, 800
REGIONS: dict[str, tuple[int, int, int, int]] = {
    # name: (x0, y0, x1, y1)
    "schema_left": (0, 0, 420, 400),
    "schema_right": (420, 0, 840, 400),
    "metadata": (840, 0, 1280, 400),
    "matrix": (0, 400, 1280, 800),
}

TASK_SPECS: dict[str, dict] = {
    # (|S|, |S'|, reference size, fraction of easy reference pairs).
    # Reference matches are 1:n (a column may match several rows), as in
    # real PO correspondence sets; sizes are set so the simulated
    # population's recall distribution matches Fig. 8 (mean R ~ 0.33
    # given ~55 decisions per matcher). ``seed_offset`` is added to the
    # task seed so that each kind draws a different, process-independent
    # instance for the same seed.
    "PO": {"n_rows": 142, "n_cols": 46, "n_ref": 75, "easy_frac": 0.6, "seed_offset": 1039},
    "OAEI": {"n_rows": 121, "n_cols": 109, "n_ref": 80, "easy_frac": 0.45, "seed_offset": 1887},
    "THALIA": {"n_rows": 10, "n_cols": 9, "n_ref": 8, "easy_frac": 0.7, "seed_offset": 6914},
}


@dataclass
class MatchingTask:
    """A schema pair with a planted reference match.

    ``reference`` maps each matched (row, col) pair to its difficulty;
    ``decoys`` maps each reference column to wrong-but-plausible rows a
    confused matcher is likely to pick instead.
    """

    name: str
    n_rows: int
    n_cols: int
    row_names: list[str]
    col_names: list[str]
    reference: dict[tuple[int, int], float]
    decoys: dict[int, np.ndarray] = field(repr=False, default_factory=dict)

    @property
    def reference_pairs(self) -> set[tuple[int, int]]:
        return set(self.reference)

    def reference_df(self) -> pd.DataFrame:
        """Reference match as a long-format frame (the Spark-side M^e)."""
        rows = [
            {"task": self.name, "row_i": i, "col_j": j, "difficulty": d}
            for (i, j), d in sorted(self.reference.items())
        ]
        return pd.DataFrame(rows, columns=["task", "row_i", "col_j", "difficulty"])


def _attribute_names(n: int, rng: np.random.Generator) -> list[str]:
    """Purchase-order-flavoured attribute names, unique per schema."""
    vocab = matching_vocabulary()
    prefixes = ["po", "order", "ship", "bill", "cust", "item", "inv", "pay"]
    stems = [
        "Code", "Number", "Date", "Time", "City", "Street", "Zip", "Name",
        "Qty", "Price", "Total", "Status", "Type", "Country", "Phone", "Id",
    ]
    names: list[str] = []
    seen: set[str] = set()
    while len(names) < n:
        if rng.random() < 0.3 and vocab:
            base = str(rng.choice(vocab))
        else:
            base = str(rng.choice(prefixes)) + str(rng.choice(stems))
        cand = base if base not in seen else f"{base}_{len(names)}"
        seen.add(cand)
        names.append(cand)
    return names


def make_task(kind: str, *, seed: int = 0) -> MatchingTask:
    """Build a deterministic task instance for ``kind`` in TASK_SPECS."""
    if kind not in TASK_SPECS:
        raise ValueError(f"unknown task kind {kind!r}; expected one of {sorted(TASK_SPECS)}")
    spec = TASK_SPECS[kind]
    rng = np.random.default_rng(seed + spec["seed_offset"])
    n_rows, n_cols = spec["n_rows"], spec["n_cols"]
    n_ref = min(spec["n_ref"], n_rows)
    # 1:n planted match: distinct rows, columns may repeat.
    rows = rng.choice(n_rows, size=n_ref, replace=False)
    cols = rng.choice(n_cols, size=n_ref, replace=True)
    easy_cut = int(round(spec["easy_frac"] * n_ref))
    difficulty = np.concatenate(
        [
            rng.uniform(0.05, 0.30, easy_cut),  # easy matches
            rng.uniform(0.45, 0.90, n_ref - easy_cut),  # complex matches
        ]
    )
    rng.shuffle(difficulty)
    reference = {
        (int(r), int(c)): float(d) for r, c, d in zip(rows, cols, difficulty)
    }
    # Decoys per reference column exclude every row that column truly
    # matches, so a decoy pick is always an incorrect correspondence.
    # Most decoys come from a small GLOBAL confuser pool — plausible-but-
    # wrong attributes ("city"-like names) that attract every confused
    # matcher. Imprecise matchers therefore pile wrong picks onto shared
    # rows, producing the row conflicts and dominance loss that matching
    # predictors (Φ_LRSM) detect [38].
    ref_rows_all = {r for (r, _) in reference}
    non_ref = np.setdiff1d(np.arange(n_rows), np.asarray(sorted(ref_rows_all)))
    confusers = rng.choice(non_ref, size=min(max(6, n_rows // 10), non_ref.size), replace=False)
    ref_rows_by_col: dict[int, list[int]] = {}
    for (r, c) in reference:
        ref_rows_by_col.setdefault(c, []).append(r)
    decoys: dict[int, np.ndarray] = {}
    for c, ref_rows in ref_rows_by_col.items():
        pool = np.setdiff1d(confusers, np.asarray(ref_rows))
        shared = rng.choice(pool, size=min(4, pool.size), replace=False)
        other = np.setdiff1d(non_ref, shared)
        extra = rng.choice(other, size=min(1, other.size), replace=False)
        decoys[c] = np.concatenate([shared, extra])
    return MatchingTask(
        name=kind,
        n_rows=n_rows,
        n_cols=n_cols,
        row_names=_attribute_names(n_rows, rng),
        col_names=_attribute_names(n_cols, rng),
        reference=reference,
        decoys=decoys,
    )
