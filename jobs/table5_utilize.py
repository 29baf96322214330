"""§IV-F — utilizing matching experts (Figs. 10 & 11 as tables).

Mean matcher performance of each method's selected experts, the early-
identification variant (first 30 decisions), and the fused-match quality
(correspondence-level filtering + vote aggregation in Spark).

Run: ``spark-submit jobs/table5_utilize.py [--fast]``.
"""
from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from _common import get_spark, po_experiment  # noqa: E402


def main(fast: bool = False) -> None:
    spark = get_spark("table5-utilize")
    from repro.experiments import utilization_tables

    exp = po_experiment(spark, fast)
    ut = utilization_tables(spark, exp, early_limit=15 if fast else 30)
    print("\nFig. 10 (as table) — performance of identified experts:")
    print(ut["perf_full"].round(2).to_string(index=False))
    print("\nFig. 11 (as table) — early identification:")
    print(ut["perf_early"].round(2).to_string(index=False))
    print("\nFused-match quality (correspondence filtering + voting):")
    print(ut["fused"].round(2).to_string(index=False))
    spark.stop()


if __name__ == "__main__":
    main(fast="--fast" in sys.argv)
