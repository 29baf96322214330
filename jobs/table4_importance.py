"""Table IV — top-2 informative features per feature set per label.

Permutation importance (SHAP substitute, DESIGN.md §2) over the per-fold
MExI_50 models, averaged across folds.

Run: ``spark-submit jobs/table4_importance.py [--fast]``.
"""
from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from _common import get_spark, po_experiment  # noqa: E402


def main(fast: bool = False) -> None:
    spark = get_spark("table4-importance")
    from repro.experiments import table4

    exp = po_experiment(spark, fast)
    print("\nTable IV — top-2 informative features per set per label:")
    print(table4(exp).round(4).to_string(index=False))
    spark.stop()


if __name__ == "__main__":
    main(fast="--fast" in sys.argv)
