"""Table III — feature-set ablation of MExI_50 over the PO task.

Include (single feature set) and exclude (all-but-one) configurations;
networks are trained once per fold and reused across configurations.

Run: ``spark-submit jobs/table3_ablation.py [--fast]``.
"""
from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from _common import get_spark, po_experiment  # noqa: E402


def main(fast: bool = False) -> None:
    spark = get_spark("table3-ablation")
    from repro.experiments import table3

    exp = po_experiment(spark, fast)
    print("\nTable III — MExI_50 feature-set ablation (PO):")
    print(table3(exp).round(2).to_string(index=False))
    spark.stop()


if __name__ == "__main__":
    main(fast="--fast" in sys.argv)
