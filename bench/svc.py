"""The ``svc_*`` workloads: the live service, driven and measured from outside."""

from __future__ import annotations

import asyncio
import os
import shutil
import statistics
import tempfile
import time
from typing import Any, Dict, List, Optional, Tuple

from . import procfs
from .loadgen import Connection, LoadGen, LoopResult, Model
from .service import Service
from .spec import (
    BURST_INTERVAL_S, CHUNK_SIZE, CONNECTIONS, OUT_DIR, PIPELINE, SERVE_CONFIG,
    SWEEP_P99_LIMIT_MS, SWEEP_STEPS, Workload, node_config, percentile,
)
from .streams import DigestTable, IdentityStream, prepopulation_batches
from .trace import Tracer

AUDIT_BATCH = 2048
KILLED_NODE = "node0"


class _Deployment:
    """One booted service plus the control connection used around the run."""

    def __init__(self, service: Service, control: Connection, data_dir: str,
                 table: DigestTable, setup_s: float) -> None:
        self.service = service
        self.control = control
        self.data_dir = data_dir
        self.table = table
        self.setup_s = setup_s

    async def stats(self) -> Dict[str, Any]:
        reply = await self.control.request({"t": "stats"})
        return reply["stats"]

    async def teardown(self) -> None:
        await self.control.close()
        self.service.stop()
        shutil.rmtree(self.data_dir, ignore_errors=True)


async def _deploy(workload: Workload, violations: List[str]) -> _Deployment:
    """Child spawn -> workers ready -> pre-population done (``setup_s``)."""
    os.makedirs(OUT_DIR, exist_ok=True)
    data_dir = tempfile.mkdtemp(prefix="data-", dir=OUT_DIR)
    started = time.perf_counter()
    config = dict(SERVE_CONFIG, data_dir=data_dir, node_config=node_config(workload))
    service = Service.start(config)
    tracer = Tracer(False)
    control = await Connection(tracer).open(service.port)
    table = DigestTable()
    for lo, hi in prepopulation_batches(workload.prepopulate):
        table.extend_to(hi)
        reply = await control.request(
            {"t": "batch", "d": table.blob(list(range(lo, hi))), "s": CHUNK_SIZE}
        )
        if not reply.get("ok") or reply.get("new") != hi - lo:
            violations.append(f"pre-population [{lo},{hi}) answered {reply}")
    return _Deployment(service, control, data_dir, table, time.perf_counter() - started)


class _CpuMeter:
    """user+system CPU of the program's processes and of this generator."""

    def __init__(self, gateway_pid: int, worker_pids: List[int]) -> None:
        self.gateway_pid = gateway_pid
        self.worker_pids = worker_pids
        self.tree_pids = procfs.descendants(os.getpid())

    def read(self) -> Dict[str, float]:
        return {
            "gateway": procfs.cpu_seconds(self.gateway_pid),
            "worker": sum(procfs.cpu_seconds(pid) for pid in self.worker_pids),
            "loadgen": time.process_time(),
            "tree": time.process_time()
                    + sum(procfs.cpu_seconds(pid) for pid in self.tree_pids),
            "wall": time.perf_counter(),
        }


async def _sample_stats(port: int, tracer: Tracer, peaks: Dict[str, int]) -> None:
    """4 Hz ``stats`` frames on a side connection while spans are recorded."""
    conn = await Connection(Tracer(False)).open(port)
    try:
        while True:
            await asyncio.sleep(0.25)
            if not tracer.on:
                continue
            stats = (await conn.request({"t": "stats"}))["stats"]
            depth = max(int(w["queue_depth"]) for w in stats["workers"])
            peaks["queue_depth"] = max(peaks["queue_depth"], depth)
            peaks["inflight"] = max(peaks["inflight"], int(stats["inflight"]))
    except asyncio.CancelledError:
        pass
    finally:
        await conn.close()


async def _sample_host_speed(host: procfs.HostSpeed) -> None:
    """Host-speed bursts on the generator's thread while the loop is timed."""
    try:
        while True:
            await asyncio.sleep(BURST_INTERVAL_S)
            host.burst()
    except asyncio.CancelledError:
        pass


async def _audit(gen: LoadGen, table: DigestTable, upto: int) -> Tuple[int, int]:
    """Re-offer every acknowledged identity ``[0, upto)``; a ``new`` verdict
    is an acknowledged fingerprint the service lost."""
    ranges = prepopulation_batches(upto, AUDIT_BATCH)
    cursor = {"next": 0, "lost": 0, "failed": 0}

    async def worker(conn: Connection) -> None:
        while cursor["next"] < len(ranges):
            lo, hi = ranges[cursor["next"]]
            cursor["next"] += 1
            message = {"t": "batch", "d": table.blob(list(range(lo, hi))), "s": CHUNK_SIZE}
            for _attempt in range(50):
                reply = await conn.request(dict(message))
                if reply.get("ok"):
                    cursor["lost"] += int(reply["new"])
                    break
                await asyncio.sleep(0.02)
            else:
                cursor["failed"] += 1

    await asyncio.gather(*(worker(conn) for conn in gen.conns for _ in range(PIPELINE)))
    return cursor["lost"], cursor["failed"]


async def _kill_and_recover(dep: _Deployment, table: DigestTable, upto: int,
                            violations: List[str]) -> float:
    """``kill_worker`` sent -> first acknowledged batch routed to that shard."""
    # node0 of two owns the lower half of the key space: first hex digit < 8.
    shard = [i for i in range(min(upto, 4096)) if table.hex[i][0] < "8"][:256]
    message = {"t": "batch", "d": table.blob(shard), "s": CHUNK_SIZE}
    started = time.perf_counter()
    reply = await dep.control.request({"t": "kill_worker", "node": KILLED_NODE})
    if not reply.get("ok"):
        violations.append(f"kill_worker answered {reply}")
    while time.perf_counter() - started < 60.0:
        reply = await dep.control.request(dict(message))
        if reply.get("ok"):
            if reply["new"]:
                violations.append("first batch after recovery lost acknowledged digests")
            return time.perf_counter() - started
        await asyncio.sleep(0.005)
    violations.append("killed shard did not come back within 60 s")
    return time.perf_counter() - started


def _rtt_ms(result: LoopResult, fraction: float) -> float:
    value = percentile(result.rtts_s, fraction)
    return 0.0 if value is None else value * 1e3


async def _run(workload: Workload, seed: int, seconds: float, tracer: Tracer) -> Dict[str, Any]:
    violations: List[str] = []
    repeats = workload.setup_repeats(tracer.active)
    setups: List[float] = []
    dep: Optional[_Deployment] = None
    for _ in range(repeats):
        if dep is not None:
            await dep.teardown()
        dep = await _deploy(workload, violations)
        setups.append(dep.setup_s)
    assert dep is not None

    table = dep.table
    stream = IdentityStream(seed, workload.dup_fraction, workload.batch_size,
                            known=workload.prepopulate)
    model = Model(known=workload.prepopulate)
    gen = LoadGen(dep.service.port, stream, table, model, tracer)
    await gen.open(CONNECTIONS)
    layers: Dict[str, float] = {}
    try:
        stats_before = await dep.stats()
        worker_pids = dep.service.note_workers(stats_before)
        program_pids = [dep.service.gateway_pid] + worker_pids
        fixed: Dict[str, float] = {}

        def take_fixed_work_readings() -> None:
            stored = workload.prepopulate + model.acked_new
            fixed["rss_mb"] = sum(procfs.status_mb(pid) for pid in program_pids)
            fixed["gateway_rss_mb"] = procfs.status_mb(dep.service.gateway_pid)
            fixed["disk_bytes_per_new_fp"] = procfs.dir_bytes(dep.data_dir) / max(stored, 1)

        peaks = {"queue_depth": 0, "inflight": 0}
        sampler = (asyncio.ensure_future(_sample_stats(dep.service.port, tracer, peaks))
                   if tracer.active else None)
        host = procfs.HostSpeed()
        bursts = asyncio.ensure_future(_sample_host_speed(host))
        meter = _CpuMeter(dep.service.gateway_pid, worker_pids)
        bytes_before = gen.wire_bytes()
        before = meter.read()
        if workload.open_rate_fps:
            result = await gen.run_open(workload.open_rate_fps, seconds)
        else:
            result = await gen.run_closed(
                seconds, PIPELINE, workload.mark_fps // workload.batch_size,
                take_fixed_work_readings,
            )
        after = meter.read()
        bytes_after = gen.wire_bytes()
        bursts.cancel()
        await bursts
        if sampler is not None:
            sampler.cancel()
            await sampler
        if not fixed:
            take_fixed_work_readings()
        stats_after = await dep.stats()
        model.check_totals()

        acked = max(result.acked_fps, 1)
        cpu = {key: after[key] - before[key] for key in before}
        wall = cpu.pop("wall")
        attributed = cpu["loadgen"] + cpu["gateway"] + cpu["worker"]
        sent = (sum(w["sent"] for w in stats_after["workers"])
                - sum(w["sent"] for w in stats_before["workers"]))
        latency = stats_after["batch_latency_us"]
        layers.update({
            "loadgen.cpu_us_per_fp": cpu["loadgen"] / acked * 1e6,
            "gateway.cpu_us_per_fp": cpu["gateway"] / acked * 1e6,
            "worker.cpu_us_per_fp": cpu["worker"] / acked * 1e6,
            "host.cpu_util": attributed / (wall * (os.cpu_count() or 1)),
            "host.calib_mops": host.mops(),
            "host.cpu_unattributed_frac": 1.0 - attributed / max(cpu["tree"], 1e-9),
            "gateway.batch_ms_p50": latency.get("p50", 0.0) / 1e3,
            "gateway.batch_ms_p99": latency.get("p99", 0.0) / 1e3,
            "gateway.fanout": sent / max(result.acked_batches, 1),
            "gateway.shed_batches": stats_after["shed_batches"],
            "gateway.unavailable_batches": stats_after["unavailable_batches"],
            "gateway.protocol_errors": stats_after["protocol_errors"],
            "gateway.rss_mb": fixed["gateway_rss_mb"],
            "worker.rss_mb": fixed["rss_mb"] - fixed["gateway_rss_mb"],
            "worker.restarts": sum(w["restarts"] for w in stats_after["workers"]),
            "wire.request_bytes_per_fp": (bytes_after[0] - bytes_before[0]) / acked,
            "wire.reply_bytes_per_fp": (bytes_after[1] - bytes_before[1]) / acked,
            "loadgen.rtt_p99_ms": _rtt_ms(result, 0.99),
            "loadgen.rtt_samples": len(result.rtts_s),
            "loadgen.max_late_ms": result.max_late_s * 1e3,
            "loadgen.retries": result.retries,
            "loadgen.failed_frac": model.failed_fps / max(model.failed_fps + model.acked_fps, 1),
            "persistence.disk_bytes_per_new_fp": fixed["disk_bytes_per_new_fp"],
            "gateway.queue_depth_max": peaks["queue_depth"],
            "gateway.inflight_max": peaks["inflight"],
            "trace.overhead_frac": gen.clock.overhead_frac(),
            "trace.spans": len(tracer.spans),
        })
        end_to_end = {
            "fps": result.acked_fps / result.elapsed_s,
            "rtt_p50_ms": _rtt_ms(result, 0.50),
            "cpu_us_per_fp": (cpu["gateway"] + cpu["worker"]) / acked * 1e6,
            "rss_mb": fixed["rss_mb"],
            "setup_s": statistics.median(setups),
        }
        attempted = result.offered_batches
        failed = result.failed_batches

        if tracer.active and workload.open_rate_fps:
            sustained = 0.0
            for suffix, share in SWEEP_STEPS:
                rate = share * workload.open_rate_fps
                step = await gen.run_open(rate, seconds / 2)
                p99 = _rtt_ms(step, 0.99)
                layers[f"loadgen.rtt_p99_ms.{suffix}"] = p99
                attempted += step.offered_batches
                failed += step.failed_batches
                if not step.failed_batches and p99 <= SWEEP_P99_LIMIT_MS:
                    sustained = rate / 1e3
            layers["loadgen.ok_rate_kfps"] = sustained
            model.check_totals()

        if workload.kill_tail:
            layers["worker.recovery_s"] = await _kill_and_recover(
                dep, table, model.acked_below, violations)
            lost, unanswered = await _audit(gen, table, model.acked_below)
            layers["loadgen.lost_acked"] = lost
            if lost or unanswered:
                violations.append(f"audit: {lost} acknowledged digests lost, "
                                  f"{unanswered} audit batches unanswered")
            dep.service.note_workers(await dep.stats())

        # A batch of never-offered digests must come back all new.
        fresh = list(range(stream.known, stream.known + workload.batch_size))
        table.extend_to(fresh[-1] + 1)
        reply = await dep.control.request(
            {"t": "batch", "d": table.blob(fresh), "s": CHUNK_SIZE})
        if not reply.get("ok") or reply.get("new") != len(fresh):
            violations.append(f"never-offered digests answered {reply}")
    finally:
        await gen.close()
        await dep.teardown()

    segments = procfs.repro_shm_segments()
    if segments:
        violations.append(f"/dev/shm segments left behind: {segments}")
    violations.extend(model.violations)
    return {
        "end_to_end": end_to_end,
        "per_layer": layers,
        "attempted": attempted,
        "failed": failed,
        "violations": violations,
        "acked_fps_per_250ms": result.slice_fps,
    }


def run(workload: Workload, seed: int, seconds: float, tracer: Tracer) -> Dict[str, Any]:
    return asyncio.run(_run(workload, seed, seconds, tracer))
