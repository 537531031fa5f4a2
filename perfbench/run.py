"""Benchmark of the repro pipeline, layer by layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload social --seed 0 --seconds 30 --trace 0

One closed-loop client in one Spark application on ``local[nproc]``. The
run sets the workload's graph up several times (``setup_s`` is the
median), runs ``WARM_PASSES`` untimed passes over the operations in
``workload.OPERATIONS``, then repeats timed passes for at most
``--seconds`` (at least ``MIN_PASSES``) and reports the fastest time of
each operation. Every output, warm-up included, is checked against an
independent reference.

``--trace 1`` adds ``workload.TRACE_OPERATIONS`` to every pass and times
pairs of one untraced and one traced pass instead (at least
``MIN_PAIRS``), in alternating order, and reports the per-layer metrics of
``BENCHMARK.json``: medians over the traced passes of each layer's
spans and their Spark stage counters, plus the tracing overhead (the
median over pairs of traced minus untraced pass time) and the time the
tracer's own calls add to one pass.

The last line of standard output is the result as one JSON object; the
environment, every timing and every span go to
``.bench_build/perfbench/`` in the checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

T0 = time.perf_counter()
ROOT = Path.cwd()
WORK = ROOT / ".bench_build" / "perfbench"
SPARK_MEMORY = "3g"
#: Spark's JVM compiles with C1 only. With the default tiered C2, the
#: operations kept getting faster for over a minute of passes, and
#: identical runs on a 4-core VM differed by 20-40%; with C1 only, pass
#: times were flat from the first timed pass, the interquartile range
#: over six runs fell from 13-20% to 5-11% of the median, and the
#: medians moved by less than 10% (these operations are mostly Spark
#: planning and scheduling, not generated code).
DRIVER_JAVA_OPTIONS = "-XX:TieredStopAtLevel=1"
SHUFFLE_PARTITIONS = 64
SETUP_REPEATS = 3
#: Untimed full passes before the first timed one.
WARM_PASSES = 1
#: Timed passes an untraced run makes at least, and (untraced, traced)
#: pairs a traced run makes at least. A run starts no further pass that
#: would end after ``--seconds``. On a shared 4-core VM other processes
#: slowed single passes by up to half; that only ever adds time, so each
#: operation reports its fastest timed pass.
MIN_PASSES = 3
MIN_PAIRS = 2
#: Far above the stages one run creates, so the status store keeps them all.
RETAINED = 1_000_000


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def start_spark(cores: int):
    """The tests' session settings, with every file kept in ``WORK``."""
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = None
    os.environ["SPARK_LOCAL_DIRS"] = str(WORK / "spark-local")
    # Both JVMs (spark-submit's launcher and Spark's own) keep their
    # temporary files in WORK and write no /tmp/hsperfdata_* entry.
    os.environ["JAVA_TOOL_OPTIONS"] = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            f"--master local[{cores}]",
            f"--driver-memory {SPARK_MEMORY}",
            f"--driver-java-options {DRIVER_JAVA_OPTIONS}",
            "--conf spark.driver.host=127.0.0.1",
            "--conf spark.ui.enabled=false",
            "pyspark-shell",
        ]
    )
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", SHUFFLE_PARTITIONS)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.ui.retainedStages", RETAINED)
        .config("spark.sql.warehouse.dir", str(WORK / "warehouse"))
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session and wait for Spark's JVM to exit."""
    gateway = spark.sparkContext._gateway
    spark.stop()
    gateway.shutdown()
    gateway.proc.stdin.close()  # the JVM exits on EOF of its stdin
    gateway.proc.wait(timeout=60)


def jvm_peak_rss_mb(spark) -> float:
    pid = spark.sparkContext._jvm.java.lang.ProcessHandle.current().pid()
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("VmHWM missing from /proc status")


def steal_s() -> float:
    """CPU time the host gave to other guests so far (``/proc/stat``)."""
    with open("/proc/stat") as f:
        ticks = int(f.readline().split()[8])
    return ticks / os.sysconf("SC_CLK_TCK")


def git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(spark, args, cores: int, workload, arcs: int) -> dict:
    return {
        "nproc": cores,
        "spark_memory": SPARK_MEMORY,
        "driver_java_options": DRIVER_JAVA_OPTIONS,
        "master": spark.sparkContext.master,
        "shuffle_partitions": int(spark.conf.get("spark.sql.shuffle.partitions")),
        "spark": spark.version,
        "java": spark.sparkContext._jvm.java.lang.System.getProperty("java.version"),
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "tier": workload.TIER,
        "workload": args.workload,
        "seed": args.seed,
        "arcs": {workload.DATASETS[args.workload]: arcs},
    }


class Loop:
    """Runs passes over the operations and counts checked attempts."""

    def __init__(self, operations, graph, expected):
        self.operations = operations
        self.graph = graph
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.selections = {}

    def run_pass(self, tracer) -> dict[str, float]:
        times = {}
        for metric, run, check in self.operations:
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                with tracer.span(f"op.{metric}"):
                    out = run(self.graph, self.expected, tracer)
                times[metric] = time.perf_counter() - t0
                ok = check(self.expected, out)
            except Exception:  # one failed operation must not end the run
                times[metric] = time.perf_counter() - t0
                traceback.print_exc()
                ok = False
            if metric == "select_s" and ok:
                self.selections[tracer.enabled] = out
            if not ok:
                self.failed += 1
                print(f"perfbench: {metric} failed its output check", file=sys.stderr)
        return times


def span_cost_s(spark, n: int = 200) -> float:
    """Mean time one span adds to its caller: two stage-id reads and the record."""
    import spans

    tracer = spans.Tracer(spark)
    t0 = time.perf_counter()
    for _ in range(n):
        with tracer.span("probe"):
            pass
    return (time.perf_counter() - t0) / n


def _median_by_root(spans: list[dict], name: str, key: str) -> float:
    """Median over root spans (set-ups, operations) of ``key`` summed over
    the ``name`` spans under each root."""
    parent = {s["id"]: s["parent"] for s in spans}

    def root(i):
        while parent[i] is not None:
            i = parent[i]
        return i

    totals: dict[int, float] = {}
    for s in spans:
        if s["name"] == name and key in s:
            r = root(s["id"])
            totals[r] = totals.get(r, 0.0) + s[key]
    if not totals:
        raise KeyError(f"no {name!r} span with {key!r}")
    return statistics.median(totals.values())


def layer_metric(spans: list[dict], metric: str) -> float:
    """Value of the per-layer metric ``<span name>.<key>``."""
    name, key = metric.rsplit(".", 1)

    def med(k):
        return _median_by_root(spans, name, k)

    if key == "s_per_superstep":
        return med("wall_s") / med("supersteps")
    if key == "shuffle_records_per_comm_cost":
        return med("shuffle_write_records") / (med("comm_cost") * med("supersteps"))
    return med(key)


def measure(spark, args, spec: dict, workload, record: dict) -> tuple[dict, Loop]:
    """Set up, warm up and run passes; return the metrics and the loop."""
    import spans

    dataset = workload.DATASETS[args.workload]
    tracer = spans.Tracer(spark) if args.trace else spans.NullTracer()
    untraced = spans.NullTracer()
    phases = record["phases"]
    setup_s = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        graph = workload.setup(spark, dataset, args.seed, tracer)
        setup_s.append(time.perf_counter() - t0)
    phases["setup"] = time.perf_counter() - T0
    expected = workload.expected(graph, args.seed)
    record["default_graph_ok"] = args.seed != 0 or workload.is_repo_graph(dataset, graph.arcs)
    record["landmarks"] = expected.landmarks
    record["selection"] = [expected.selection.strategy, expected.selection.n_parts]
    phases["expected"] = time.perf_counter() - T0

    setup_spans = len(tracer.spans) if args.trace else 0
    operations = workload.OPERATIONS + (workload.TRACE_OPERATIONS if args.trace else ())
    loop = Loop(operations, graph, expected)
    for _ in range(WARM_PASSES):
        loop.run_pass(untraced)
    phases["warm_up"] = time.perf_counter() - T0
    passes: dict[bool, list[dict]] = {False: [], True: []}
    deadline = time.perf_counter() + args.seconds
    slowest = 0.0
    while True:
        t0 = time.perf_counter()
        if args.trace:
            # Alternate which pass of a pair runs first, so that any
            # warming left between the two does not bias their difference.
            first = len(passes[True]) % 2 == 1
            for t in (tracer, untraced) if first else (untraced, tracer):
                passes[t.enabled].append(loop.run_pass(t))
        else:
            passes[False].append(loop.run_pass(untraced))
        slowest = max(slowest, time.perf_counter() - t0)
        enough = len(passes[True]) >= MIN_PAIRS if args.trace else len(passes[False]) >= MIN_PASSES
        if enough and time.perf_counter() + slowest > deadline:
            break
    phases["passes"] = time.perf_counter() - T0
    record["setup_s"] = setup_s
    record["passes"] = {"untraced": passes[False], "traced": passes[True]}
    record["env"] = environment(spark, args, len(os.sched_getaffinity(0)), workload, len(graph.arcs))

    if not args.trace:
        values = {"setup_s": statistics.median(setup_s)}
        for metric, _, _ in workload.OPERATIONS:
            values[metric] = min(p[metric] for p in passes[False])
        return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}, loop

    # The traced replay of parsel must choose exactly what parsel chose.
    record["same_selection"] = len(loop.selections) == 2 and loop.selections[True] == loop.selections[False]
    tracer.resolve()
    record["spans"] = tracer.spans
    pass_s = {k: [sum(p.values()) for p in v] for k, v in passes.items()}
    spans_per_pass = (len(tracer.spans) - setup_spans) / len(passes[True])
    values = {
        "proc.jvm_peak_rss_mb": jvm_peak_rss_mb(spark),
        "trace.overhead_s": statistics.median(t - u for t, u in zip(pass_s[True], pass_s[False])),
        "trace.span_cost_s": spans_per_pass * span_cost_s(spark),
    }
    for m in spec["per_layer"]:
        if m["name"] not in values:
            values[m["name"]] = layer_metric(tracer.spans, m["name"])
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["per_layer"]}, loop


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (ROOT / "src" / "repro").is_dir():
        print("perfbench: run from the root of a repro checkout (src/repro missing)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # The benchmark never touches the table jobs' profile cache.
    os.environ["REPRO_CACHE"] = str(WORK / "no-profile-cache")
    import workload

    if args.workload not in workload.DATASETS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    record: dict = {"phases": {}}
    steal0 = steal_s()
    spark = start_spark(len(os.sched_getaffinity(0)))
    record["phases"]["spark"] = time.perf_counter() - T0
    try:
        metrics, loop = measure(spark, args, spec, workload, record)
    finally:
        stop_spark(spark)
    record["phases"]["stop"] = time.perf_counter() - T0
    # Other guests on the host slow every timing; this shows which runs.
    record["steal_s"] = steal_s() - steal0
    record["metrics"] = metrics

    WORK.mkdir(parents=True, exist_ok=True)
    out = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1))
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:14.6g} {m['unit']}")
    print(f"env {json.dumps(record['env'])}")
    result = {
        "correct": loop.failed == 0 and record["default_graph_ok"] and record.get("same_selection", True),
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
