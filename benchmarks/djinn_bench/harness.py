"""The untraced two-process run: rounds of cold-started server children.

One round = spawn a fresh server child → first verified reply → warm-up
stream → measured window over the round's fixed request list → stop the
child.  A run is one discarded primer launch plus :data:`ROUNDS` rounds,
and each timing metric is the median over the rounds of the per-round
statistic.  Layers are read from outside only: the client stopwatch and
the ``METRICS`` wire message the service already answers.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core import DjinnClient
from repro.obs import Tracer

import stats
from hostenv import CPUS, HERE, OUT_DIR, REPO_ROOT, THREAD_ENV
from loadgen import Window, run_closed, run_open
from oracle import Oracle
from workloads import Stream, Workload

#: requests the discarded primer launch serves
PRIMER_REQUESTS = 8

#: longest the child may take to answer one line (ready, usage, stop)
CHILD_TIMEOUT_S = 60.0


class ServerChild:
    """The service under test in its own process (``server_child.py``)."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self._proc: Optional[subprocess.Popen] = None
        self.spawned_s = 0.0
        self.gateway = ("", 0)
        self.backend = ("", 0)

    def __enter__(self) -> "ServerChild":
        env = dict(os.environ, **THREAD_ENV)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO_ROOT / "src")] + ([env["PYTHONPATH"]]
                                        if env.get("PYTHONPATH") else []))
        OUT_DIR.mkdir(exist_ok=True)
        self._log = open(OUT_DIR / f"server_{self.workload.name}.log", "w",
                         encoding="utf-8")
        self.spawned_s = time.monotonic()
        try:
            self._proc = subprocess.Popen(
                [sys.executable, str(HERE / "server_child.py"),
                 "--workload", self.workload.name],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                stderr=self._log, text=True, bufsize=1, env=env, cwd=str(HERE))
            ready = self._read()
        except BaseException:
            self.__exit__()
            raise
        self.gateway = tuple(ready["gateway"])
        self.backend = tuple(ready["backend"])
        return self

    def _read(self) -> dict:
        """The child's next line.  A child that says nothing for
        :data:`CHILD_TIMEOUT_S` is killed, which ends the read."""
        watchdog = threading.Timer(CHILD_TIMEOUT_S, self._proc.kill)
        watchdog.start()
        try:
            line = self._proc.stdout.readline()
        finally:
            watchdog.cancel()
        if not line:
            raise RuntimeError(
                f"server child for {self.workload.name} exited early or hung "
                f"(see {self._log.name})")
        return json.loads(line)

    def usage(self) -> dict:
        """``{"cpu_s", "maxrss_kb"}`` of the child process, right now."""
        self._proc.stdin.write("usage\n")
        self._proc.stdin.flush()
        return self._read()

    def stop(self) -> dict:
        """Stop both servers; returns the child's final usage."""
        self._proc.stdin.write("stop\n")
        self._proc.stdin.flush()
        final = self._read()
        self._proc.wait(timeout=CHILD_TIMEOUT_S)
        return final

    def __exit__(self, *exc) -> None:
        proc = self._proc
        if proc is not None:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            for pipe in (proc.stdin, proc.stdout):
                pipe.close()
        self._log.close()


def make_send(client: DjinnClient, workload: Workload):
    model = workload.model
    if workload.frame == "app":
        return lambda raw: client.infer_app(model, raw)
    deadline_ms = workload.deadline_ms
    return lambda x: client.infer(model, x, deadline_ms=deadline_ms)


def connections(workload: Workload) -> int:
    if workload.loop == "closed":
        return 1
    return min(2, CPUS)


def drive(workload: Workload, clients: List[DjinnClient], stream: Stream,
          segment: int) -> Window:
    """Run one segment of the stream through the workload's generator."""
    sl = stream.segment(segment)
    payloads = [stream.payloads[k] for k in stream.order[sl]]
    sends = [make_send(c, workload) for c in clients]
    if workload.loop == "open":
        due = stream.due[sl]
        return run_open(sends, payloads, due)
    return run_closed(sends[0], payloads)


# ------------------------------------------------------------- live metrics
def _total(dump: dict, name: str, **labels: str) -> float:
    entry = dump.get("metrics", {}).get(name)
    if not entry:
        return 0.0
    return sum(s["sum"] if "counts" in s else s["value"]
               for s in entry["samples"]
               if all(s["labels"].get(k) == v for k, v in labels.items()))


def _count(dump: dict, name: str) -> float:
    entry = dump.get("metrics", {}).get(name)
    if not entry:
        return 0.0
    return sum(s["count"] for s in entry["samples"])


def live_metrics(before: dict, after: dict, issued: int) -> Dict[str, float]:
    """Layer metrics read from two ``METRICS`` dumps around a window.

    Per-request figures divide by the requests that reached that layer:
    the backend's own request count for ``batching.*`` / ``server.*``, the
    gateway's forwarded count for ``gateway.*``, issued requests for the
    response cache's eviction rate.
    """
    def delta(name: str, **labels: str) -> float:
        return _total(after, name, **labels) - _total(before, name, **labels)

    backend_reqs = max(delta("djinn_requests_total"), 1.0)
    batches = _count(after, "djinn_batch_size") - _count(before, "djinn_batch_size")
    stage = "djinn_stage_seconds_total"
    gstage = "gateway_stage_seconds_total"
    hits = delta("gateway_cache_hits_total")
    misses = delta("gateway_cache_misses_total")
    forwarded = max(issued - hits, 1.0)
    lc_hits = delta("djinn_layer_cache_events_total", event="hit")
    lc_misses = delta("djinn_layer_cache_events_total", event="miss")
    return {
        "batching.fast_path_share": delta("djinn_fast_path_total") / backend_reqs,
        "batching.rows_per_batch": (delta("djinn_batch_size") / batches
                                    if batches else 0.0),
        "batching.queue_ms_per_req": (delta(stage, stage="backend.queue")
                                      + delta(stage, stage="sched.wait"))
                                     * 1e3 / backend_reqs,
        "batching.assemble_ms_per_req": delta(stage, stage="batch.assemble")
                                        * 1e3 / backend_reqs,
        "server.respond_ms_per_req": delta(stage, stage="respond")
                                     * 1e3 / backend_reqs,
        "gateway.backend_ms_per_req": delta(gstage, stage="gateway.rpc")
                                      * 1e3 / forwarded,
        "gateway.queue_ms_per_req": delta(gstage, stage="gateway.queue")
                                    * 1e3 / forwarded,
        "engine.layer_cache_hit_share": (lc_hits / (lc_hits + lc_misses)
                                         if lc_hits + lc_misses else 0.0),
        "gateway_cache.hit_share": (hits / (hits + misses)
                                    if hits + misses else 0.0),
        "gateway_cache.evictions_per_req":
            delta("gateway_cache_evictions_total") / max(issued, 1),
        "sched.expired": delta("djinn_sched_expired_total")
                         + delta("gateway_expired_total"),
        "sched.shed": delta("gateway_admission_rejected_total"),
    }


# -------------------------------------------------------------------- rounds
@dataclass
class RoundResult:
    issued: int
    correct: int
    #: correct replies that also met the workload's latency limit
    within_slo: int
    failures: Dict[str, int]
    first_reply_ok: bool
    tail_q: int
    #: per-round values of the end-to-end timing and memory metrics
    e2e: Dict[str, float]
    #: per-round values of the live layer metrics and diagnostics
    layers: Dict[str, float]


def _verify(window: Window, stream: Stream, segment: int, refs: list,
            frame: str) -> List[bool]:
    order = stream.order[stream.segment(segment)]
    return [err is None and Oracle.matches(reply, refs[k], frame)
            for reply, err, k in zip(window.replies, window.errors, order)]


def run_round(workload: Workload, stream: Stream, refs: list,
              tracer_pass: bool = False) -> RoundResult:
    calib_ms = stats.calibrate_ms()
    n_conn = connections(workload)
    with ServerChild(workload) as child:
        clients = [DjinnClient(*child.gateway) for _ in range(n_conn)]
        try:
            # set-up, part 1: the bare launch, up to the first verified reply
            first = stream.order[0]
            reply = make_send(clients[0], workload)(stream.payloads[first])
            cold_start_s = time.monotonic() - child.spawned_s
            first_ok = Oracle.matches(reply, refs[first], workload.frame)
            # set-up, part 2: warm-up stream until it serves at steady speed
            drive(workload, clients, stream, 0)
            setup_s = time.monotonic() - child.spawned_s

            before = clients[0].metrics()
            usage0 = child.usage()
            jiffies0 = stats.read_cpu_jiffies()
            own_cpu0 = time.process_time()
            window = drive(workload, clients, stream, 1)
            own_cpu1 = time.process_time()
            jiffies1 = stats.read_cpu_jiffies()
            usage1 = child.usage()
            after = clients[0].metrics()

            traced: Optional[Window] = None
            if tracer_pass:
                for client in clients:
                    client.close()
                clients = [DjinnClient(*child.gateway,
                                       tracer=Tracer(enabled=True))
                           for _ in range(n_conn)]
                traced = drive(workload, clients, stream, 2)
        finally:
            for client in clients:
                client.close()
        final = child.stop()

    ok = _verify(window, stream, 1, refs, workload.frame)
    issued = len(ok)
    good = [lat for lat, flag in zip(window.latency_s, ok) if flag]
    answered = [lat for lat, err in zip(window.latency_s, window.errors)
                if err is None] or [0.0]
    failures: Dict[str, int] = {}
    for err in window.errors:
        if err is not None:
            failures[err] = failures.get(err, 0) + 1
    wrong = issued - sum(ok) - sum(failures.values())
    if wrong:
        failures["wrong_reply"] = wrong
    tail_q = stats.tail_percentile(issued)
    slo_s = workload.slo_ms / 1e3
    e2e = {
        "setup_s": setup_s,
        "throughput_rps": len(good) / window.wall_s,
        "latency_p50_ms": stats.percentile(answered, 50) * 1e3,
        "latency_tail_ms": stats.percentile(answered, tail_q) * 1e3,
        "server_cpu_ms_per_req": stats.cpu_ms_per_request(
            usage0["cpu_s"], usage1["cpu_s"], issued),
        "peak_rss_mb": final["maxrss_kb"] / 1024.0,
    }
    layers = live_metrics(before, after, issued)
    layers.update({
        "server.cold_start_s": cold_start_s,
        "server.warmup_s": setup_s - cold_start_s,
        "loadgen.lag_p99_ms": (stats.percentile(window.lag_s, 99) * 1e3
                               if window.lag_s else 0.0),
        "loadgen.cpu_share": (own_cpu1 - own_cpu0) / window.wall_s,
        "host.steal_share": stats.steal_share(jiffies0, jiffies1),
        "host.calib_ms": calib_ms,
    })
    replay = stream.replay[stream.segment(1)]
    for name, flag in (("gateway_cache.hit_p50_ms", True),
                       ("gateway_cache.miss_p50_ms", False)):
        lats = [lat for lat, rep, err in zip(window.latency_s, replay,
                                             window.errors)
                if rep == flag and err is None]
        layers[name] = (stats.percentile(lats, 50) * 1e3
                        if workload.cache_mb and lats else 0.0)
    if traced is not None:
        on = [lat for lat, err in zip(traced.latency_s, traced.errors)
              if err is None] or [0.0]
        layers["obs.trace_on_p50_ratio"] = (
            stats.percentile(on, 50) * 1e3 / e2e["latency_p50_ms"])
    return RoundResult(
        issued=issued, correct=sum(ok),
        within_slo=sum(1 for lat in good if lat <= slo_s), failures=failures,
        first_reply_ok=first_ok, tail_q=tail_q, e2e=e2e, layers=layers)


def run_primer(workload: Workload, stream: Stream) -> None:
    """One discarded launch: pages the interpreter, numpy and the model
    code into the page cache so round 0 is not the odd one out."""
    with ServerChild(workload) as child:
        with DjinnClient(*child.gateway) as client:
            send = make_send(client, workload)
            for k in stream.order[:PRIMER_REQUESTS]:
                send(stream.payloads[k])
        child.stop()


@dataclass
class RunResult:
    workload: str
    rounds: List[RoundResult]
    #: end-to-end metrics (medians of rounds; the two shares pooled over
    #: every issued request, so a miss in any round counts)
    e2e: Dict[str, float]
    #: live layer metrics (medians of rounds; sched counts summed)
    layers: Dict[str, float]
    issued: int
    succeeded: int
    failures: Dict[str, int]

    @property
    def failed(self) -> int:
        return self.issued - self.succeeded

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(r.first_reply_ok for r in self.rounds)


def combine_rounds(workload: str, results: List[RoundResult]) -> RunResult:
    """A run's metrics from its rounds: per-metric medians, never pooled
    percentiles; counts and the two shares summed over every round."""
    issued = sum(r.issued for r in results)
    succeeded = sum(r.correct for r in results)
    e2e = {name: statistics.median(r.e2e[name] for r in results)
           for name in results[0].e2e}
    e2e["slo_attainment"] = sum(r.within_slo for r in results) / issued
    e2e["correct_share"] = succeeded / issued
    layers = {name: statistics.median(r.layers[name] for r in results)
              for name in results[0].layers}
    for name in ("sched.expired", "sched.shed"):
        layers[name] = float(sum(r.layers[name] for r in results))
    failures: Dict[str, int] = {}
    for r in results:
        for kind, count in r.failures.items():
            failures[kind] = failures.get(kind, 0) + count
    return RunResult(workload, results, e2e, layers, issued, succeeded,
                     failures)


def run_rounds(workload: Workload, streams: List[Stream], refs: list,
               primer: bool, tracer_pass: bool = False) -> RunResult:
    """One round per stream (they share ``refs``: see ``build_streams``)."""
    if primer:
        run_primer(workload, streams[0])
    return combine_rounds(
        workload.name, [run_round(workload, stream, refs, tracer_pass)
                        for stream in streams])
