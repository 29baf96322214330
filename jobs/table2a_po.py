"""Table IIa — expert identification on the PO task (5-fold CV).

Reproduces the full comparison: 7 baselines + MExI_∅/50/70 over 106
simulated matchers; prints mean A_P, A_R, A_Res, A_Cal, A_ML per method
with the bootstrap significance flag vs LRSM (the paper's asterisk).

Run: ``spark-submit jobs/table2a_po.py [--fast]``. The optional --fast
flag shrinks the cohort and networks for a quick smoke run.
"""
from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from _common import get_spark, po_experiment  # noqa: E402


def main(fast: bool = False) -> None:
    spark = get_spark("table2a-po")
    from repro.experiments import table2a

    exp = po_experiment(spark, fast)
    print("\nTable IIa — Schema Matching (PO):")
    print(table2a(exp).round(2).to_string(index=False))
    spark.stop()


if __name__ == "__main__":
    main(fast="--fast" in sys.argv)
