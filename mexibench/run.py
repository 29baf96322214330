"""MExI benchmark: one workload, one seed, one result line.

Usage, from the root of a checkout:

    python3 mexibench/run.py --workload cv_train --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the
metrics are the end-to-end metrics of BENCHMARK.json, measured untraced; with
``--trace 1`` they are the per-layer metrics, from operations run with spans
on (alternating with untraced operations, which give the tracing overhead).
The line before it is a JSON object of details: every latency sample, the
set-up rounds, the tail percentile and its sample count, and the span file.
Everything else (Spark's log and progress output) goes to standard error.

The run builds its SparkSession with ``jobs/_common.get_spark``, exports
``src/`` on PYTHONPATH before the JVM starts so Python workers can import
``repro``, sizes driver memory from MemTotal, fixes PYTHONHASHSEED so a seed
always gives the same cohorts, and keeps every scratch file in
``.mexibench/`` under the checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".mexibench"
SETUP_ROUNDS = 3
DEADLINE_S = 150.0  # start no operation after this much wall time


def _driver_mem() -> str:
    """Half of MemTotal, clamped to 2..8 GiB, as ROADMAP.md's test command sizes it."""
    try:
        with open("/proc/meminfo") as f:
            kb = next(int(line.split()[1]) for line in f if line.startswith("MemTotal:"))
    except (OSError, StopIteration, ValueError):
        return "2g"
    return f"{min(max(kb // 2097152, 2), 8)}g"


def _prepare_env() -> None:
    """Environment the JVM and its Python workers inherit; must run before
    pyspark is imported."""
    src = ROOT / "src"
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]
    )
    os.environ["SPARK_DRIVER_MEM"] = _driver_mem()
    # get_spark composes the submit arguments itself; inherited ones (e.g.
    # from a test session) would change master, memory or partitions.
    os.environ.pop("PYSPARK_SUBMIT_ARGS", None)
    os.environ.pop("SPARK_SHUFFLE_PARTITIONS", None)
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["SPARK_LOCAL_DIRS"] = str(WORK / "spark-local")
    os.environ["TMPDIR"] = str(tmp)
    # -XX:-UsePerfData: the JVM would write its perf-data file to /tmp.
    os.environ["JAVA_TOOL_OPTIONS"] = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    tempfile.tempdir = None
    sys.path[:0] = [str(src), str(ROOT)]


def _stop(spark) -> None:
    """Stop Spark and wait for the JVM it launched to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    proc = getattr(gateway, "proc", None)
    spark.stop()
    if gateway is not None:
        gateway.shutdown()
    if proc is not None:
        proc.stdin.close()  # the JVM exits on EOF from its parent
        proc.wait(timeout=60)


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile). Runs with fewer than eleven samples report their
    slowest sample as the 100th percentile."""
    s = sorted(samples)
    n = len(s)
    if n < 11:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def run(args) -> tuple[dict, dict]:
    from jobs._common import get_spark
    from mexibench.tracer import Tracer
    from mexibench.workloads import SCALES, WORKLOADS

    start = time.perf_counter()
    spark = get_spark("mexibench")
    try:
        spark_start = time.perf_counter() - start
        wl = WORKLOADS[args.workload](spark, args.seed, SCALES[args.scale])
        warm = _timed(wl.warm_up)
        rounds = [_timed(wl.setup_round) for _ in range(SETUP_ROUNDS)]
        warm_op = _timed(wl.warm_op)
        setup_s = spark_start + warm + statistics.median(rounds) + warm_op

        tracer = Tracer(spark)
        if args.trace:
            tracer.install()
        min_ops = 2 if args.trace else wl.min_ops
        results, traced, untraced = [], [], []
        attempted = failed = 0
        t_run = time.perf_counter()
        while attempted < min_ops or (
            time.perf_counter() - t_run < args.seconds
            and time.perf_counter() - start < DEADLINE_S
        ):
            tracer.active = bool(args.trace) and attempted % 2 == 1
            attempted += 1
            try:
                with tracer.op():
                    res = wl.op(attempted - 1)
            except Exception:  # a failed operation is counted, not fatal
                traceback.print_exc()
                failed += 1
                continue
            finally:
                tracer.active = False
            if res.problems:
                print(f"[mexibench] op {attempted - 1} failed checks: {res.problems}",
                      file=sys.stderr)
                failed += 1
                continue
            results.append(res)
            (traced if args.trace and (attempted - 1) % 2 == 1 else untraced).append(res)
        tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        details = {
            "workload": args.workload, "seed": args.seed, "scale": args.scale,
            "spark_start_s": spark_start, "warm_up_s": warm,
            "setup_rounds_s": rounds, "warm_op_s": warm_op,
            "op_latencies_s": [r.latency_s for r in results],
        }
        if args.trace:
            lat_t = statistics.median(r.latency_s for r in traced)
            lat_u = statistics.median(r.latency_s for r in untraced)
            overhead = 100.0 * (lat_t - lat_u) / lat_u
            spans = WORK / f"spans-{args.workload}-seed{args.seed}.json"
            tracer.dump(spans)
            metrics = tracer.layer_metrics(len(traced))
            metrics["bench.op_s"] = lat_t
            metrics["trace.overhead_pct"] = overhead
            details.update(spans_file=str(spans.relative_to(ROOT)),
                           untraced_op_s=lat_u, traced_op_s=lat_t,
                           tracing_overhead_pct=overhead)
        else:
            lat = [r.latency_s for r in results]
            metrics = {
                "setup_s": setup_s,
                "op_p50_s": statistics.median(lat),
                "matchers_per_s": sum(r.matchers for r in results) / sum(lat),
                "driver_peak_rss_mb": peak_rss_mb,
            }
            own = {k: {"value": v, "unit": u} for k, (v, u) in wl.report(results).items()}
            if args.workload == "online_filter":
                value, pct = tail(lat)
                own["request_tail_s"] = {"value": value, "unit": "s", "percentile": pct,
                                         "samples": len(lat)}
            details["metrics"] = {
                "setup_s": {"value": setup_s, "unit": "s"},
                "matchers_per_s": {"value": metrics["matchers_per_s"], "unit": "1/s"},
                "driver_peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
                **own,
            }
        return {"attempted": attempted, "failed": failed, "metrics": metrics}, details
    finally:
        _stop(spark)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["cv_train", "online_filter"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--scale", choices=["bench", "toy"], default="bench",
                    help="input sizes; 'toy' is for the benchmark's self-test")
    args = ap.parse_args(argv)

    if os.environ.get("PYTHONHASHSEED") != "0":
        # repro.humansim.make_task seeds its generator with hash(kind), which
        # Python randomises per process: without a fixed hash seed the same
        # --seed would give a different task, and so a different cohort.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])

    missing = [p for p in ("src/repro/core/mexi.py", "jobs/_common.py") if not (ROOT / p).is_file()]
    if missing:
        print(f"mexibench: program not found in {ROOT}: missing {missing}", file=sys.stderr)
        return 2

    # Keep standard output for the result only: the JVM and the Python
    # workers inherit file descriptor 1, so point it at standard error.
    result_fd = os.dup(1)
    os.dup2(2, 1)
    _prepare_env()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    out, details = run(args)
    correct = out["failed"] == 0 and set(out["metrics"]) == set(units)
    result = {
        "correct": correct,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {k: {"value": float(out["metrics"][k]), "unit": u} for k, u in units.items()
                    if k in out["metrics"]},
    }
    with os.fdopen(result_fd, "w") as f:
        f.write(json.dumps(details) + "\n")
        f.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
