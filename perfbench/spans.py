"""Layer spans with the Spark stage counters each span caused.

A span is opened around every call the benchmark makes into a layer of
``repro``. It records wall time, its parent span, and the half-open
range of stage ids the DAG scheduler handed out while it was open. The
benchmark is a single closed-loop client, so every stage in that range
belongs to the span (or to one of its children).

Stage metrics are read once, when the run ends, from Spark's status
store (``AppStatusStore.stageList``), which works with the UI disabled.
The store drops its oldest stages past ``spark.ui.retainedStages``; the
benchmark's session raises that limit, and :meth:`Tracer.resolve`
raises :class:`StageEvicted` if a stage inside any span is missing
instead of reporting a short count.
"""
from __future__ import annotations

import json
import time
from contextlib import contextmanager

#: Counters summed over the stage attempts a span caused, with the
#: ``StageData`` field each comes from and the factor to the unit.
STAGE_FIELDS = {
    "task_s": ("executorRunTime", 1e-3),
    "cpu_s": ("executorCpuTime", 1e-9),
    "gc_s": ("jvmGcTime", 1e-3),
    "fetch_wait_s": ("shuffleFetchWaitTime", 1e-3),
    "shuffle_write_bytes": ("shuffleWriteBytes", 1),
    "shuffle_write_records": ("shuffleWriteRecords", 1),
    "spill_bytes": (("memoryBytesSpilled", "diskBytesSpilled"), 1),
    "failed_tasks": ("numFailedTasks", 1),
}

_RAN = ("COMPLETE", "FAILED")


class StageEvicted(RuntimeError):
    """A stage inside a span left the status store before it was read."""


class NullTracer:
    """Stands in for :class:`Tracer` on untraced passes; records nothing."""

    enabled = False

    @contextmanager
    def span(self, name: str, **attrs):
        yield {}


class Tracer:
    """Keeps spans in memory; attaches stage counters in :meth:`resolve`."""

    enabled = True

    def __init__(self, spark):
        self._sc = spark.sparkContext
        self._dag = self._sc._jsc.sc().dagScheduler()
        self.spans: list[dict] = []
        self._stack: list[dict] = []

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "stage_lo": self._dag.nextStageId(),
            **attrs,
        }
        self.spans.append(rec)
        self._stack.append(rec)
        t0 = time.perf_counter()
        try:
            yield rec
        finally:
            rec["wall_s"] = time.perf_counter() - t0
            rec["stage_hi"] = self._dag.nextStageId()
            self._stack.pop()

    def _stages(self) -> dict[int, list[dict]]:
        """Every retained stage attempt, keyed by stage id."""
        jsc = self._sc._jsc.sc()
        jvm = self._sc._jvm
        jsc.listenerBus().waitUntilEmpty(60_000)
        none = jvm.java.util.ArrayList()
        seq = jsc.statusStore().stageList(
            none, False, False, self._sc._gateway.new_array(jvm.double, 0), none
        )
        mapper = jvm.com.fasterxml.jackson.databind.ObjectMapper()
        scala_module = getattr(jvm.com.fasterxml.jackson.module.scala, "DefaultScalaModule$")
        mapper.registerModule(scala_module.__getattr__("MODULE$"))
        by_id: dict[int, list[dict]] = {}
        for st in json.loads(mapper.writeValueAsString(seq)):
            by_id.setdefault(st["stageId"], []).append(st)
        return by_id

    def resolve(self) -> None:
        """Attach stage counters to every span; check none was evicted."""
        by_id = self._stages()
        for rec in self.spans:
            ids = range(rec["stage_lo"], rec["stage_hi"])
            missing = [i for i in ids if i not in by_id]
            if missing:
                raise StageEvicted(
                    f"span {rec['name']!r} lost stages {missing[:5]} "
                    f"({len(missing)} of {len(ids)}) from the status store"
                )
            ran = [a for i in ids for a in by_id[i] if a["status"] in _RAN]
            rec["stages"] = len(ran)
            rec["tasks"] = sum(a["numCompleteTasks"] + a["numFailedTasks"] for a in ran)
            for key, (field, scale) in STAGE_FIELDS.items():
                fields = field if isinstance(field, tuple) else (field,)
                rec[key] = scale * sum(a[f] for a in ran for f in fields)
            rec["busy_cores"] = rec["task_s"] / rec["wall_s"] if rec["wall_s"] > 0 else 0.0
            negative = [k for k in ("stages", "tasks", *STAGE_FIELDS) if rec[k] < 0]
            if negative:
                raise ValueError(f"span {rec['name']!r} has negative counters {negative}")
