"""Command-line entry of the SHHC lookup-path benchmark.

``python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload in this (fresh) process and prints one JSON object as the
last line of standard output: the end-to-end metrics with tracing off, the
per-layer metrics with tracing on.  Without ``--workload`` every workload of
``BENCHMARK.json`` runs in turn, each in its own child process, and the
collected results land in ``bench/out/result.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(_BENCH_DIR)


def _bootstrap() -> None:
    """Make ``bench`` and ``repro`` importable from a bare checkout."""
    src = os.path.join(_ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        sys.exit(f"bench: the program under test is missing ({src}/repro)")
    for path in (src, _ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="bench", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run only this workload, in this process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the timed phase (default: run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1 = traced run reporting the per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="1/100 size, correctness only")
    return parser.parse_args(argv)


def _context() -> Dict[str, Any]:
    from repro.storage.npy import backend_name, np

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": getattr(np, "__version__", None),
        "kernel_backend": backend_name(),
        "git_sha": _git("rev-parse", "HEAD"),
    }


def _git(*args: str) -> Optional[str]:
    if not os.path.isdir(os.path.join(_ROOT, ".git")):
        return None
    try:
        done = subprocess.run(["git", "-C", _ROOT, *args], capture_output=True,
                              text=True, timeout=30, stdin=subprocess.DEVNULL)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def run_workload(name: str, seed: int, seconds: float, trace: int, smoke: bool) -> Dict[str, Any]:
    """Run one workload here and return its full record."""
    from bench import lib_cluster, replay, sim, spec, svc
    from bench.trace import Tracer, self_times

    if name not in spec.WORKLOADS:
        sys.exit(f"bench: unknown workload {name!r}; choose from {sorted(spec.WORKLOADS)}")
    contract = spec.load_contract()
    workload = spec.WORKLOADS[name]
    if smoke:
        workload = spec.smoke(workload)
    tracer = Tracer(bool(trace))
    started = time.perf_counter()
    driver = {"svc": svc, "lib": lib_cluster, "sim": sim}[workload.kind]
    outcome = driver.run(workload, seed, seconds, tracer)
    layers = outcome["per_layer"]
    violations = outcome["violations"]
    outcome["raw_end_to_end"] = outcome["end_to_end"]
    outcome["end_to_end"] = spec.to_reference_host(
        outcome["raw_end_to_end"], layers["host.calib_mops"],
        fixed_rate=bool(workload.open_rate_fps))
    if trace:
        shrink = 100 if smoke else 1
        if workload.kind == "svc":
            replayed, replay_violations = replay.run(
                workload, seed, tracer, spec.REPLAY_BATCHES // shrink)
            layers.update(replayed)
            violations.extend(replay_violations)
        elif workload.kind == "lib":
            layers.update(lib_cluster.replay(
                workload, seed, tracer, max(2, spec.LIB_REPLAY_CALLS // shrink)))
        trace_path = os.path.join(spec.OUT_DIR, f"{name}.trace.jsonl")
        layers["trace.spans"] = tracer.dump(trace_path)
        outcome["trace_file"] = os.path.relpath(trace_path, _ROOT)
        outcome["span_self_time_us"] = {
            span: {"count": count, "self_us": round(total / 1e3, 1)}
            for span, (count, total) in sorted(self_times(tracer.spans).items())
        }
    outcome.update({
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "smoke": smoke,
        "correct": not violations,
        "wall_s": time.perf_counter() - started,
        "context": _context(),
        "metrics": spec.shape_metrics(
            layers if trace else outcome["end_to_end"],
            spec.metric_units(contract, "per_layer" if trace else "end_to_end"),
        ),
    })
    return outcome


def _print_record(record: Dict[str, Any]) -> None:
    """Every metric by name with its unit, then the driver's JSON line."""
    print(f"== {record['workload']} seed={record['seed']} seconds={record['seconds']:g} "
          f"trace={record['trace']} backend={record['context']['kernel_backend']} "
          f"wall={record['wall_s']:.1f}s")
    produced = record["per_layer"] if record["trace"] else record["end_to_end"]
    for name, entry in record["metrics"].items():
        if name in produced:  # layers off this workload's path read 0 in the JSON only
            print(f"{name:36s} {entry['value']:16.4f} {entry['unit']}")
    if not record["trace"]:
        for name, value in record["raw_end_to_end"].items():
            print(f"  raw {name:30s} {value:16.4f}  (as measured on this host)")
        for name, value in sorted(record["per_layer"].items()):
            print(f"  . {name:32s} {value:16.4f}")
    print(f"attempted={record['attempted']} failed={record['failed']} "
          f"correct={record['correct']}")
    sys.stdout.flush()


def _single(args: argparse.Namespace, seconds: float) -> int:
    from bench import spec

    record = run_workload(args.workload, args.seed, seconds, args.trace, args.smoke)
    os.makedirs(spec.OUT_DIR, exist_ok=True)
    suffix = ".trace" if args.trace else ""
    with open(os.path.join(spec.OUT_DIR, f"{args.workload}{suffix}.json"), "w",
              encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    if not record["correct"]:
        # A failed check prints no metrics.
        for line in record["violations"]:
            print(f"bench: correctness: {line}", file=sys.stderr)
        return 1
    _print_record(record)
    print(json.dumps({
        "correct": True,
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": record["metrics"],
    }))
    return 0


def _all(args: argparse.Namespace, seconds: float) -> int:
    """Every workload in its own child process; ``--trace`` adds a traced run."""
    from bench import spec

    contract = spec.load_contract()
    status_before = _git("status", "--porcelain")
    records: List[Dict[str, Any]] = []
    failed = False
    for entry in contract["workloads"]:
        for trace in ((0, 1) if args.trace else (0,)):
            command = [sys.executable, os.path.abspath(__file__), "--workload", entry["name"],
                       "--seed", str(args.seed), "--seconds", f"{seconds:g}",
                       "--trace", str(trace)] + (["--smoke"] if args.smoke else [])
            done = subprocess.run(command, cwd=_ROOT, stdin=subprocess.DEVNULL)
            suffix = ".trace" if trace else ""
            path = os.path.join(spec.OUT_DIR, f"{entry['name']}{suffix}.json")
            if done.returncode != 0 or not os.path.exists(path):
                print(f"bench: {entry['name']} (trace={trace}) failed", file=sys.stderr)
                failed = True
                continue
            with open(path, encoding="utf-8") as handle:
                records.append(json.load(handle))
    status_after = _git("status", "--porcelain")
    if status_before != status_after:
        print("bench: `git status --porcelain` changed during the run:\n"
              f"{status_after}", file=sys.stderr)
        failed = True
    result = {"seed": args.seed, "seconds": seconds, "smoke": args.smoke, "runs": records}
    with open(os.path.join(spec.OUT_DIR, "result.json"), "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)
    print(f"bench: wrote {os.path.relpath(os.path.join(spec.OUT_DIR, 'result.json'), _ROOT)}")
    return 1 if failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    _bootstrap()
    args = _parse(argv)
    from bench import spec

    seconds = args.seconds
    if seconds is None:
        seconds = 0.25 if args.smoke else float(spec.load_contract()["run_seconds"])
    if args.workload:
        return _single(args, seconds)
    return _all(args, seconds)


if __name__ == "__main__":
    sys.exit(main())
