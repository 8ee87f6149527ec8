"""Command-line interface for the SHHC reproduction.

Usage (after ``pip install -e .``)::

    python -m repro.cli presets
    python -m repro.cli run figure5 --set scale=0.0005 --set batch_sizes=1,128
    python -m repro.cli run failover --set replication_factor=2 --json result.json
    python -m repro.cli sweep failover --axis replication_factor=1,2,3 \
                                       --axis outage_density=0.1,0.3 --json sweep.json
    python -m repro.cli sweep elasticity --axis replication_factor=1,2,3 \
                                         --axis churn_events=2,6 --json churn.json
    python -m repro.cli trace --workload mail-server --scale 0.001 --output trace.txt
    python -m repro.cli backup  --root ./mydata --catalog catalog.json --store ./chunkstore
    python -m repro.cli restore --catalog catalog.json --store ./chunkstore \
                                --snapshot snap-1 --target ./restored

``run`` executes one scenario preset with ``--set key=value`` overrides;
``sweep`` expands ``--axis key=v1,v2,...`` into a grid of scenarios and
emits a machine-readable JSON grid of the uniform metrics.
``backup``/``restore`` exercise the library as a real file-level
deduplicating archiver backed by an on-disk chunk store.

Only the standard library and :mod:`repro.core.config` (which every worker
imports to build its node anyway) are imported at module level; each
subcommand imports what it runs.  A ``spawn``ed worker re-runs its parent's
``__main__`` imports, so under ``python -m repro.cli serve`` anything
imported here would be paid again by every worker process.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

if TYPE_CHECKING:
    from .dedup.archive import DirectoryArchiver
    from .scenarios import ScenarioSpec

from .core.config import NODE_BLOOM_ITEMS

__all__ = ["main", "build_parser", "NODE_BLOOM_ITEMS"]


# --------------------------------------------------------------------------- scenarios
def _spec_from_args(args: argparse.Namespace) -> ScenarioSpec:
    """Build the scenario spec from ``--spec``/``--set`` CLI arguments."""
    from .scenarios import ScenarioSpec, SpecError, apply_overrides, parse_setting, spec_for

    overrides = dict(parse_setting(setting) for setting in (args.set or []))
    if getattr(args, "spec", None):
        with open(args.spec, "r", encoding="utf-8") as handle:
            spec = ScenarioSpec.from_json(handle.read())
        if args.preset and args.preset != spec.preset:
            raise SpecError(
                f"--spec file is for preset {spec.preset!r} but {args.preset!r} was requested"
            )
        return apply_overrides(spec, overrides)
    if not args.preset:
        raise SpecError("a preset name (or --spec FILE) is required; see `repro presets`")
    return spec_for(args.preset, **overrides)


def _emit_json(payload_owner, path: Optional[str]) -> None:
    if not path:
        return
    if path == "-":
        print(payload_owner.to_json())
    else:
        payload_owner.write_json(path)
        print(f"wrote {path}", file=sys.stderr)


def _cmd_run(args: argparse.Namespace) -> int:
    from .scenarios import SpecError, run_scenario

    try:
        spec = _spec_from_args(args)
        result = run_scenario(spec)
    except (SpecError, ValueError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if not args.quiet:
        print(result.render())
        for line in result.claim_lines():
            print(line)
    _emit_json(result, args.json)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .scenarios import SpecError, SweepGrid, run_sweep

    try:
        spec = _spec_from_args(args)
        grid = SweepGrid.parse(args.axis, mode="zip" if args.zip else "cartesian")
        total = len(grid)
        done = {"count": 0}

        def _progress(point, run) -> None:
            if args.quiet or run is None:
                return
            done["count"] += 1
            label = ", ".join(f"{key}={value}" for key, value in point.items())
            status = "ok" if run.ok else f"error: {run.error}"
            print(f"[{done['count']}/{total}] {label}: {status}", file=sys.stderr)

        sweep = run_sweep(
            spec, grid, strict=args.strict, progress=_progress, workers=args.workers
        )
    except (SpecError, ValueError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if not args.quiet:
        print(sweep.render())
    _emit_json(sweep, args.json)
    # Success if at least one point ran; a fully failed grid is an error.
    return 0 if any(run.ok for run in sweep.runs) else 1


def _cmd_presets(args: argparse.Namespace) -> int:
    from .scenarios import available_presets, get_preset

    for name in available_presets():
        preset = get_preset(name)
        print(f"{name}: {preset.description}")
        if args.verbose:
            print(f"    keys: {', '.join(preset.valid_keys())}")
    return 0


# --------------------------------------------------------------------------- serving
def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the real serving stack: gateway + one worker process per node."""
    import asyncio
    import signal

    from .serving import ServeConfig, ServiceGateway, ServingError

    config = ServeConfig(
        host=args.host,
        port=args.port,
        num_nodes=args.nodes,
        data_dir=args.data_dir,
        fsync=args.fsync,
        snapshot_every=args.snapshot_every,
        max_queue=args.max_queue,
        max_inflight=args.max_inflight,
        report_interval=args.report_interval,
        node_config={"bloom_expected_items": NODE_BLOOM_ITEMS},
    )

    async def _serve() -> None:
        gateway = ServiceGateway(config, verbose=not args.quiet)
        await gateway.start()
        # Machine-readable line for scripts that need the bound port.
        print(f"listening on {config.host}:{gateway.port}", flush=True)
        loop = asyncio.get_event_loop()
        stop: asyncio.Future = loop.create_future()

        def _request_stop() -> None:
            if not stop.done():
                stop.set_result(None)

        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, _request_stop)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        await stop
        await gateway.close()

    try:
        asyncio.run(_serve())
    except ServingError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:  # pragma: no cover - signal handler normally wins
        pass
    return 0


def _cmd_loadtest(args: argparse.Namespace) -> int:
    """Drive a load test against a running `repro serve` gateway."""
    from .serving import LoadtestConfig, run_loadtest

    config = LoadtestConfig(
        host=args.host,
        port=args.port,
        clients=args.clients,
        pipeline=args.pipeline,
        batch_size=args.batch_size,
        fingerprints=args.fingerprints,
        duplicate_fraction=args.duplicate_fraction,
        arrival_rate_fps=args.rate,
        seed=args.seed,
        max_retries=args.max_retries,
        kill_node=args.kill_node,
        kill_after_fraction=args.kill_after,
        burst_batches=args.burst_batches,
        audit=not args.no_audit,
        report_path=args.json,
        verbose=not args.quiet,
    )
    try:
        report = run_loadtest(config)
    except (ConnectionError, OSError) as error:
        print(f"error: cannot reach {args.host}:{args.port}: {error}", file=sys.stderr)
        return 2
    if not args.quiet:
        latency = report.latency_us
        print(
            f"offered {report.offered_fingerprints:,} fingerprints "
            f"({report.offered_batches:,} batches); "
            f"acked {report.acked_fingerprints:,} in {report.wall_seconds:.2f}s "
            f"= {report.throughput_fps:,.0f} fp/s"
        )
        print(
            f"latency p50={latency.get('p50', 0.0):,.0f}us "
            f"p99={latency.get('p99', 0.0):,.0f}us; "
            f"sheds={report.sheds} retries={report.retries} "
            f"unavailable={report.unavailable} failed={report.failed_batches}"
        )
        print(
            f"kills={report.kills_sent} worker_restarts={report.worker_restarts} "
            f"audit_checked={report.audit_checked} "
            f"lost_acknowledged={report.lost_acknowledged}"
        )
    if report.lost_acknowledged:
        print("error: acknowledged fingerprints were lost", file=sys.stderr)
        return 1
    if report.acked_fingerprints == 0:
        print("error: nothing was acknowledged", file=sys.stderr)
        return 1
    return 0


# --------------------------------------------------------------------------- traces
def _cmd_trace(args: argparse.Namespace) -> int:
    from .workloads.profiles import profile_by_name
    from .workloads.traces import TraceGenerator

    profile = profile_by_name(args.workload).scaled(args.scale)
    generator = TraceGenerator(profile, seed=args.seed)
    destination = open(args.output, "w", encoding="utf-8") if args.output else sys.stdout
    try:
        count = 0
        for fingerprint in generator.generate():
            destination.write(fingerprint.hex + "\n")
            count += 1
        print(
            f"generated {count:,} fingerprints for {profile.name} "
            f"(redundancy target {profile.redundancy:.0%})",
            file=sys.stderr,
        )
    finally:
        if destination is not sys.stdout:
            destination.close()
    return 0


# --------------------------------------------------------------------------- backup / restore
def _persistent_object_store(directory: str):
    """An object store that keeps chunk payloads in an on-disk FileHashStore."""
    from .storage.hashstore import FileHashStore
    from .storage.object_store import CloudObjectStore

    class PersistentObjectStore(CloudObjectStore):
        def __init__(self) -> None:
            super().__init__()
            os.makedirs(directory, exist_ok=True)
            self._backing = FileHashStore(os.path.join(directory, "chunks.log"))
            # Preload previously stored chunks so dedup carries across runs.
            for key, value in self._backing.items():
                super().put(key, value)

        def put(self, key: bytes, data: bytes) -> bool:
            is_new = super().put(key, data)
            if is_new:
                self._backing.put(key, data)
            return is_new

        def close(self) -> None:
            self._backing.close()

    return PersistentObjectStore()


def _catalog_chunking(catalog_path: str) -> dict:
    """Chunker parameters an existing catalogue's chunk store was built with.

    Backups must keep chunking the way the catalogue's chunk store was
    built -- same engine *and* same size bounds -- or nothing deduplicates;
    flags not given explicitly adopt the recorded parameters over the
    built-in defaults.  A readable catalogue with *no* chunking record
    predates engine selection, when the only CDC implementation was the
    Rabin one, so legacy catalogues resolve to the rabin engine.  Returns
    ``{}`` when there is no (readable) catalogue.

    The catalogue is parsed again by :class:`DirectoryArchiver` right after;
    one redundant parse of a per-user snapshot index per one-shot CLI
    invocation is accepted to keep the archiver API free of preloaded-state
    plumbing.
    """
    try:
        with open(catalog_path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError):
        return {}
    recorded = payload.get("chunking")
    if recorded is None:
        return {"engine": "rabin"}
    return recorded if isinstance(recorded, dict) else {}


@contextlib.contextmanager
def _make_archiver(args: argparse.Namespace) -> Iterator[DirectoryArchiver]:
    """The archiver over ``--store``'s chunk store, closed on the way out."""
    from .core.cluster import SHHCCluster
    from .core.config import ClusterConfig, HashNodeConfig
    from .dedup.archive import DirectoryArchiver
    from .dedup.chunking import ContentDefinedChunker

    cluster = SHHCCluster(
        ClusterConfig(
            num_nodes=args.nodes,
            node=HashNodeConfig(ram_cache_entries=200_000, bloom_expected_items=NODE_BLOOM_ITEMS),
        )
    )
    recorded = _catalog_chunking(args.catalog)
    engine = args.chunk_engine or recorded.get("engine")
    if engine not in ("gear", "rabin"):
        engine = "gear"
    # An explicit --chunk-size is passed through untouched so an invalid
    # value fails loudly (ContentDefinedChunker's own validation); only the
    # *recorded* size is sanity-checked before adoption, since a foreign or
    # corrupt catalogue must not crash the default path.
    chunk_size = args.chunk_size
    if chunk_size is None:
        recorded_size = recorded.get("average_size")
        if isinstance(recorded_size, int) and recorded_size >= 64 and not recorded_size & (recorded_size - 1):
            chunk_size = recorded_size
        else:
            chunk_size = 8192
    chunker = ContentDefinedChunker(average_size=chunk_size, engine=engine)
    store = _persistent_object_store(args.store)
    try:
        yield DirectoryArchiver(
            index=cluster, object_store=store, chunker=chunker, catalog_path=args.catalog
        )
    finally:
        store.close()


def _cmd_backup(args: argparse.Namespace) -> int:
    with _make_archiver(args) as archiver:
        snapshot_id = args.snapshot or f"snap-{len(archiver.snapshots) + 1}"
        stats = archiver.backup_directory(args.root, snapshot_id)
    print(f"snapshot {snapshot_id}: {stats.files_scanned} files, "
          f"{stats.chunks_seen} chunks, {stats.chunks_uploaded} uploaded "
          f"({stats.dedup_savings:.0%} deduplicated)")
    return 0


def _cmd_restore(args: argparse.Namespace) -> int:
    with _make_archiver(args) as archiver:
        if args.snapshot not in archiver.snapshots:
            print(f"error: unknown snapshot {args.snapshot!r}; "
                  f"available: {archiver.list_snapshots()}", file=sys.stderr)
            return 1
        written = archiver.restore_directory(args.snapshot, args.target)
    print(f"restored {written} files from {args.snapshot} into {args.target}")
    return 0


def _cmd_snapshots(args: argparse.Namespace) -> int:
    with _make_archiver(args) as archiver:
        if not archiver.snapshots:
            print("no snapshots")
            return 0
        for snapshot_id in archiver.list_snapshots():
            snapshot = archiver.snapshots[snapshot_id]
            print(f"{snapshot_id}: {snapshot.file_count} files, {snapshot.logical_bytes:,} bytes")
    return 0


# --------------------------------------------------------------------------- parser
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SHHC reproduction: experiments, trace generation and file backup.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_scenario_arguments(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("preset", nargs="?", default=None,
                         help="scenario preset name (see `repro presets`)")
        sub.add_argument("--spec", default=None,
                         help="load the base spec from a JSON file instead")
        sub.add_argument("--set", action="append", metavar="KEY=VALUE", default=[],
                         help="override one spec key (repeatable); commas make lists")
        sub.add_argument("--json", default=None, metavar="PATH",
                         help="write the machine-readable result JSON here ('-' = stdout)")
        sub.add_argument("--quiet", action="store_true",
                         help="suppress the rendered table on stdout")

    run = subparsers.add_parser("run", help="run one scenario preset")
    add_scenario_arguments(run)
    run.set_defaults(handler=_cmd_run)

    sweep = subparsers.add_parser(
        "sweep", help="run a preset over a grid of spec values"
    )
    add_scenario_arguments(sweep)
    sweep.add_argument("--axis", action="append", metavar="KEY=V1,V2,...", default=[],
                       required=True, help="one sweep axis (repeatable)")
    sweep.add_argument("--zip", action="store_true",
                       help="walk the axes in lockstep instead of the cartesian product")
    sweep.add_argument("--strict", action="store_true",
                       help="abort the sweep on the first failing point")
    sweep.add_argument("--workers", type=int, default=1, metavar="N",
                       help="run grid points on a process pool of N workers; "
                            "results are byte-identical to a sequential run "
                            "(every point is independently seeded)")
    sweep.set_defaults(handler=_cmd_sweep)

    presets = subparsers.add_parser("presets", help="list scenario presets")
    presets.add_argument("--verbose", "-v", action="store_true",
                         help="also list each preset's accepted spec keys")
    presets.set_defaults(handler=_cmd_presets)

    serve = subparsers.add_parser(
        "serve", help="run the real serving stack (gateway + worker processes)"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7411,
                       help="client port (0 = pick an ephemeral port)")
    serve.add_argument("--nodes", type=int, default=4, help="worker processes")
    serve.add_argument("--data-dir", default=None,
                       help="persistence root (one subdirectory per node); "
                            "omit for in-memory nodes")
    serve.add_argument("--fsync", action="store_true",
                       help="fsync container appends (power-loss durability)")
    serve.add_argument("--snapshot-every", type=int, default=100_000,
                       help="records between automatic bloom checkpoints (0 = off)")
    serve.add_argument("--max-queue", type=int, default=64,
                       help="outstanding frames per worker before admission sheds")
    serve.add_argument("--max-inflight", type=int, default=512,
                       help="global in-flight batch cap")
    serve.add_argument("--report-interval", type=float, default=2.0,
                       help="seconds between console stats lines (0 = off)")
    serve.add_argument("--quiet", action="store_true")
    serve.set_defaults(handler=_cmd_serve)

    loadtest = subparsers.add_parser(
        "loadtest", help="drive concurrent load at a running `repro serve`"
    )
    loadtest.add_argument("--host", default="127.0.0.1")
    loadtest.add_argument("--port", type=int, default=7411)
    loadtest.add_argument("--clients", type=int, default=32,
                          help="client connections")
    loadtest.add_argument("--pipeline", type=int, default=4,
                          help="in-flight batches per client (closed loop)")
    loadtest.add_argument("--batch-size", type=int, default=256)
    loadtest.add_argument("--fingerprints", type=int, default=200_000,
                          help="total fingerprints to offer")
    loadtest.add_argument("--duplicate-fraction", type=float, default=0.25)
    loadtest.add_argument("--rate", type=float, default=0.0,
                          help="open-loop arrival rate in fp/s (0 = closed loop)")
    loadtest.add_argument("--seed", type=int, default=17)
    loadtest.add_argument("--max-retries", type=int, default=8)
    loadtest.add_argument("--kill-node", default=None, metavar="NODE",
                          help="SIGKILL this worker mid-run (e.g. node1)")
    loadtest.add_argument("--kill-after", type=float, default=0.25,
                          help="fraction of fingerprints acked before the kill")
    loadtest.add_argument("--burst-batches", type=int, default=0,
                          help="extra un-retried batches fired at the halfway "
                               "point to provoke sheds")
    loadtest.add_argument("--no-audit", action="store_true",
                          help="skip the post-run lost-acknowledgement audit")
    loadtest.add_argument("--json", default=None, metavar="PATH",
                          help="write the report JSON here")
    loadtest.add_argument("--quiet", action="store_true")
    loadtest.set_defaults(handler=_cmd_loadtest)

    trace = subparsers.add_parser("trace", help="generate a synthetic fingerprint trace")
    trace.add_argument("--workload", default="web-server",
                       choices=["web-server", "home-dir", "mail-server", "time-machine"])
    trace.add_argument("--scale", type=float, default=0.001)
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument("--output", default=None, help="file to write hex fingerprints to")
    trace.set_defaults(handler=_cmd_trace)

    def add_archive_arguments(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--catalog", required=True, help="snapshot catalogue JSON path")
        sub.add_argument("--store", required=True, help="chunk store directory")
        sub.add_argument("--nodes", type=int, default=4)
        sub.add_argument("--chunk-size", type=int, default=None,
                         help="target average chunk size in bytes; defaults to "
                              "the size recorded in the catalog, else 8192")
        sub.add_argument("--chunk-engine", choices=("gear", "rabin"), default=None,
                         help="CDC boundary engine (gear is the fast path, rabin "
                              "the reference oracle); defaults to the engine "
                              "recorded in the catalog, else gear")

    backup = subparsers.add_parser("backup", help="back up a directory tree")
    backup.add_argument("--root", required=True, help="directory to back up")
    backup.add_argument("--snapshot", default=None, help="snapshot id (default: auto)")
    add_archive_arguments(backup)
    backup.set_defaults(handler=_cmd_backup)

    restore = subparsers.add_parser("restore", help="restore a snapshot")
    restore.add_argument("--snapshot", required=True)
    restore.add_argument("--target", required=True, help="directory to restore into")
    add_archive_arguments(restore)
    restore.set_defaults(handler=_cmd_restore)

    snapshots = subparsers.add_parser("snapshots", help="list snapshots in a catalogue")
    add_archive_arguments(snapshots)
    snapshots.set_defaults(handler=_cmd_snapshots)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
