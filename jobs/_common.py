"""Shared SparkSession builder and experiment settings for the spark-submit
job entrypoints.

The session mirrors conftest.py's config (broadcast joins disabled, Arrow
on) so job results match test results exactly.
"""
from __future__ import annotations

import os

from pyspark.sql import SparkSession


def get_spark(app: str) -> SparkSession:
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        "--master local[*] --driver-memory "
        f"{os.environ.get('SPARK_DRIVER_MEM', '8g')} "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false pyspark-shell",
    )
    s = (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", os.environ.get("SPARK_SHUFFLE_PARTITIONS", "32"))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    s.sparkContext.setLogLevel("ERROR")
    return s


def fast_nn():
    """Network sizes of the ``--fast`` smoke runs."""
    from repro.core.mexi import NNParams

    return NNParams(lstm_hidden=16, lstm_dense=16, lstm_epochs=8,
                    cnn_filters=4, cnn_epochs=10, grid=16)


def po_experiment(spark: SparkSession, fast: bool):
    """The shared PO experiment (Tables IIa, III, IV and §IV-F): all 106
    matchers in 5 folds, or 40 matchers in 3 folds with ``--fast``."""
    from repro.experiments import run_po_experiment

    if fast:
        return run_po_experiment(spark, n_matchers=40, k=3, seed=0, nn=fast_nn(),
                                 n_perm=40, grid=16)
    return run_po_experiment(spark, seed=0, n_perm=100)
