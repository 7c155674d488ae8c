"""The ``fleet-sweep`` workload and the fleet probe of traced runs.

Load shape: a closed loop from this process over 2 client connections.
Each connection submits one job, waits for its result record, then
submits the next.  The server runs in this process with 2 ``spawn``
workers and an in-memory result cache that starts empty; a warm replay
of the same jobs follows the cold pass.
"""

from __future__ import annotations

import contextlib
import statistics
import threading
import time
from typing import Callable, Dict, List, Optional

from inputs import fleet_job
from spans import Tracer

CONNECTIONS = 2
WORKERS = 2
SETUP_REPS = 7
#: fleet-sweep reruns every LOCAL_EVERY-th cold job in-process to check
#: that worker results match (all of them would double the run time)
LOCAL_EVERY = 4
clock = time.perf_counter


class Server:
    """A fleet server on an ephemeral localhost port, run on a thread."""

    def __init__(self, tracer: Optional[Tracer] = None):
        from repro.fleet.client import FleetClient
        from repro.fleet.server import FleetServer

        self.server = FleetServer(host="127.0.0.1", port=0, workers=WORKERS,
                                  start_method="spawn")
        if tracer is not None:
            tracer.wrap_generator(self.server.runner, "submit", "fleet.submit")
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       kwargs={"poll_interval": 0.05},
                                       daemon=True)
        self.thread.start()
        self.client = FleetClient(*self.server.address, timeout=120.0)

    def submit(self, job: Dict) -> Dict:
        records, _summary = self.client.run_sweep([job])
        return records[0]

    def close(self) -> None:
        self.server.shutdown()
        self.thread.join()
        self.server.server_close()


@contextlib.contextmanager
def traced_job_key(tracer: Tracer):
    """Trace the runner's ``job_key`` calls while active."""
    from repro.fleet import pool

    original = pool.job_key
    tracer.wrap(pool, "job_key", "fleet.job_key",
                request_of=lambda job, *_: job.seed)
    try:
        yield
    finally:
        pool.job_key = original


def start_measured(first_job: Callable[[int], Dict], tracer=None, reps=SETUP_REPS):
    """Start the server *reps* times, each from scratch up to its first
    job result; keep the last one running.  Returns the server and the
    set-up figures."""
    setup, pool_start = [], []
    for rep in range(reps):
        start = clock()
        server = Server(tracer if rep == reps - 1 else None)
        try:
            record = server.submit(first_job(rep))
            if not record.get("ok"):
                raise RuntimeError(f"set-up job failed: {record.get('error')}")
        except BaseException:
            server.close()
            raise
        elapsed = clock() - start
        setup.append(elapsed)
        pool_start.append(elapsed - record["seconds"])
        if rep < reps - 1:
            server.close()
    return server, {"setup_s": setup, "pool_start_s": pool_start}


def closed_loop(server: Server, job_at: Callable[[int], Dict],
                count: Optional[int] = None, deadline: Optional[float] = None,
                tracer: Optional[Tracer] = None) -> Dict:
    """Run jobs ``job_at(0), job_at(1), ...`` over CONNECTIONS closed-loop
    connections until *count* jobs or *deadline*; returns the records
    (by job index), per-job latencies and the wall time."""
    lock = threading.Lock()
    cursor = [0]
    records: Dict[int, Dict] = {}
    latency: Dict[int, float] = {}
    errors: List[str] = []

    def connection():
        while True:
            with lock:
                index = cursor[0]
                if (count is not None and index >= count) or (
                        deadline is not None and clock() >= deadline):
                    return
                cursor[0] += 1
            job = job_at(index)
            try:
                start = clock()
                if tracer is not None:
                    with tracer.span("fleet.request", request=index):
                        record = server.submit(job)
                else:
                    record = server.submit(job)
                latency[index] = clock() - start
                records[index] = record
            except Exception as exc:  # reported as a failed job
                errors.append(f"job {index}: {type(exc).__name__}: {exc}")
                return

    threads = [threading.Thread(target=connection, daemon=True)
               for _ in range(CONNECTIONS)]
    start = clock()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return {"records": records, "latency": latency, "wall_s": clock() - start,
            "errors": errors, "started": cursor[0]}


def check_passes(jobs: List[Dict], cold: Dict, warm: Dict,
                 local_every: int = 1) -> List[str]:
    """Warm payloads must equal cold ones, and every *local_every*-th job
    must also equal an in-process ``run_job``; returns one message per
    failed job."""
    from repro.fleet.jobs import Job, job_key
    from repro.fleet.worker import run_job

    failures = list(cold["errors"]) + list(warm["errors"])
    for index, job in enumerate(jobs):
        first, again = cold["records"].get(index), warm["records"].get(index)
        if first is None or again is None:
            failures.append(f"job {index}: no result record")
        elif not (first.get("ok") and again.get("ok")):
            failures.append(f"job {index}: error {first.get('error')}")
        elif not again.get("cached"):
            failures.append(f"job {index}: warm replay missed the cache")
        elif first["result"] != again["result"]:
            failures.append(f"job {index}: cold and warm payloads differ")
        elif first["key"] != job_key(Job.from_dict(job)):
            failures.append(f"job {index}: server key differs from in-process key")
        elif index % local_every == 0:
            local = run_job(job)
            if not local.get("ok") or local["result"] != first["result"]:
                failures.append(f"job {index}: in-process run_job differs")
    return failures


def fleet_layer_metrics(setup: Dict, cold: Dict, warm: Dict,
                        tracer: Tracer) -> Dict:
    key_s = tracer.durations("fleet.job_key")
    exec_s = [r["seconds"] for r in cold["records"].values() if "seconds" in r]
    waits = [cold["latency"][i] - r["seconds"]
             for i, r in cold["records"].items() if "seconds" in r]
    warm_records = list(warm["records"].values())
    return {
        "fleet.job_key_s": statistics.median(key_s),
        "fleet.worker_exec_s": statistics.median(exec_s),
        "fleet.queue_wait_s": statistics.median(waits),
        "fleet.pool_start_s": statistics.median(setup["pool_start_s"]),
        "fleet.cache_hit_latency_p50_s": statistics.median(warm["latency"].values()),
        "fleet.cache_hit_rate": (sum(1 for r in warm_records if r.get("cached"))
                                 / len(warm_records)),
        "fleet.dedup_hits": sum(1 for r in list(cold["records"].values())
                                + warm_records if r.get("dedup")),
    }


def sweep(seed: int, seconds: float, tracer: Optional[Tracer] = None) -> Dict:
    """The ``fleet-sweep`` run: set-up reps, a cold closed loop for
    *seconds*, a warm replay, then the in-process checks."""
    with traced_job_key(tracer) if tracer else contextlib.nullcontext():
        server, setup = start_measured(lambda rep: fleet_job(seed, -1 - rep),
                                       tracer)
        try:
            cold = closed_loop(server, lambda i: fleet_job(seed, i),
                               deadline=clock() + seconds, tracer=tracer)
            jobs = [fleet_job(seed, i) for i in range(cold["started"])]
            warm = closed_loop(server, jobs.__getitem__, count=len(jobs),
                               tracer=tracer)
        finally:
            server.close()
    checked = check_passes(jobs, cold, warm, LOCAL_EVERY)
    latencies = list(cold["latency"].values())
    done = [r for r in cold["records"].values() if r.get("ok")]
    jobs_per_s = len(jobs) / cold["wall_s"]
    cycles = sum(r["result"]["metrics"]["cycles"] for r in done)
    serial_s = sum(r["seconds"] for r in done)
    out = {
        "attempted": len(jobs),
        "failures": checked,
        "metrics": {
            "setup_s": statistics.median(setup["setup_s"]),
            "cycles_per_s": cycles / cold["wall_s"],
            "speedup_vs_baseline": serial_s / cold["wall_s"],
            "jobs_per_s": jobs_per_s,
            "job_latency_p50_s": percentile(latencies, 50),
            "job_latency_p90_s": percentile(latencies, 90),
        },
    }
    if tracer is not None:
        out["layers"] = fleet_layer_metrics(setup, cold, warm, tracer)
    return out


def probe(jobs: List[Dict], setup_job: Dict, tracer: Tracer) -> Dict:
    """Serve a fixed job list cold, then warm, through a traced server:
    the fleet probe a traced simulation run adds, so every traced run
    reports the fleet layer too."""
    with traced_job_key(tracer):
        server, setup = start_measured(lambda rep: setup_job, tracer, reps=1)
        try:
            cold = closed_loop(server, jobs.__getitem__, count=len(jobs),
                               tracer=tracer)
            warm = closed_loop(server, jobs.__getitem__, count=len(jobs),
                               tracer=tracer)
        finally:
            server.close()
    checked = check_passes(jobs, cold, warm)
    return {"metrics": fleet_layer_metrics(setup, cold, warm, tracer),
            "failures": checked}


def percentile(values: List[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]
