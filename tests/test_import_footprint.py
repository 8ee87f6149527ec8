"""What each entry point imports, and the lazy package roots behind it.

A ``spawn``ed worker starts in a fresh interpreter and pays for every module
it imports before it can serve; so does a respawn after a crash, and so does
a researcher's ``repro run figure5``.  The package roots therefore import
nothing until a public name is used, the serving entry points must not drag
in the simulator, the scenario catalogue or the in-process cluster, and a
preset imports only the experiment it runs.
"""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Nothing the live service runs lives under these.
FOREIGN_PACKAGES = ("scenarios", "analysis", "frontend", "network", "workloads", "baselines")
FOREIGN_MODULES = ("repro.core.cluster", "repro.dedup.archive")

LAZY_ROOTS = ("repro", "repro.core", "repro.storage", "repro.dedup",
              "repro.simulation", "repro.serving", "repro.workloads")

#: Resolving or listing a preset builds spec data only: none of the node and
#: cluster stack, the substrate packages or the trace generator is loaded.
SPEC_ONLY_ABSENT = ("repro.core.cluster", "repro.core.hash_node", "repro.core.replication",
                    "repro.workloads.mixer", "repro.workloads.traces",
                    "repro.workloads.trace_cache")
SPEC_ONLY_ABSENT_PACKAGES = ("repro.storage", "repro.network", "repro.simulation", "repro.dedup")

#: No entry point below loads the live service's event loop, the sweep's
#: process pool or shared-memory support: none of them runs any of it (and
#: nothing maps shared memory: every bloom filter's bits are private).
NEVER_LOADED = ("asyncio", "concurrent.futures.process", "multiprocessing.shared_memory")

EXPERIMENTS = "repro.analysis.experiments."

#: The bench's ``sim_figure5`` set-up child, a tiny Figure-5 run, and the
#: preset listing as ``python -m repro.cli presets`` runs it.
RESOLVE_FIGURE5 = ("from repro.scenarios import spec_for\n"
                   "spec_for('figure5', node_counts=[4], batch_sizes=[1], scale=0.001, seed=1)")
RUN_FIGURE5 = ("from repro.scenarios import run_scenario\n"
               "run_scenario('figure5', node_counts=[4], batch_sizes=[1], scale=0.00005, seed=1)")
CLI_PRESETS = """
import runpy
sys.argv = ["repro", "presets"]
try:
    runpy.run_module("repro.cli", run_name="__main__", alter_sys=True)
except SystemExit as stop:
    assert stop.code == 0, stop.code
"""

#: A spawned worker's work before it serves: a persistent node built from its
#: spec, and the core that serves it (here, to EOF).
BUILD_WORKER = """
import tempfile
from repro.serving.wire import JsonCodec
from repro.serving.worker import WorkerCore, WorkerSpec
with tempfile.TemporaryDirectory() as directory:
    node = WorkerSpec("node0", {"bloom_expected_items": 1000}, persistence_dir=directory).build_node()
    assert WorkerCore(node, JsonCodec).on_bytes(b"") == [None]
    node.persistence.close()
"""
BUILD_GATEWAY = ("from repro.serving import ServeConfig, ServiceGateway\n"
                 "ServiceGateway(ServeConfig(port=0))")

_MARKER = "--- modules ---"


def _run_fresh(statement: str) -> tuple:
    """``(stdout lines, every module loaded)`` of a fresh interpreter running ``statement``."""
    script = "\n".join(["import sys", textwrap.dedent(statement), f"print({_MARKER!r})",
                        "print('\\n'.join(sorted(sys.modules)))"])
    result = subprocess.run(
        [sys.executable, "-c", script],
        cwd=str(REPO_ROOT),
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, f"stdout:\n{result.stdout}\nstderr:\n{result.stderr}"
    output, _, modules = result.stdout.partition(_MARKER + "\n")
    return output.splitlines(), modules.split()


def _loaded_after(statement: str) -> list:
    """The ``repro`` modules a fresh interpreter holds after ``statement``."""
    return [module for module in _run_fresh(statement)[1] if module.split(".")[0] == "repro"]


@pytest.mark.parametrize("statement, also_absent", [
    # Neither side of the live service loads the simulator's latency tally:
    # a worker measures its batches into ``repro.telemetry`` instead.
    ("import repro.serving.worker",
     ("repro.serving.gateway", "repro.serving.loadgen", "repro.simulation.stats")),
    # The gateway imports the worker module for ``WorkerSpec``; the node
    # stack it builds is imported in the worker process only.
    ("from repro.serving import ServeConfig, ServiceGateway",
     ("repro.serving.loadgen", "repro.core.hash_node", "repro.core.persistence",
      "repro.storage.bloom", "repro.simulation.stats")),
    ("import repro.cli", ()),
    # A spawned worker: the module, then the node stack ``WorkerSpec.build_node``
    # imports (its modelled lookup time is a count and a total, not a tally).
    ("import repro.serving.worker\n"
     "import repro.core.config, repro.core.hash_node, repro.core.persistence, repro.storage.bloom",
     ("repro.serving.gateway", "repro.serving.loadgen", "repro.simulation.stats")),
])
def test_a_live_service_process_imports_only_what_it_runs(statement, also_absent):
    loaded = _loaded_after(statement)
    foreign = [module for module in loaded
               if module.partition(".")[2].split(".")[0] in FOREIGN_PACKAGES]
    assert not foreign, foreign
    for module in FOREIGN_MODULES + also_absent:
        assert module not in loaded, module


@pytest.mark.parametrize("statement, experiments", [
    (RESOLVE_FIGURE5, set()),
    (RUN_FIGURE5, {"figure5", "replay"}),
    (CLI_PRESETS, set()),
    ("import repro.serving.worker", None),
    ("import repro.serving.gateway_core", None),
    (BUILD_WORKER, None),
], ids=["resolve-figure5", "run-figure5", "cli-presets", "serving-worker", "gateway-core",
        "build-worker"])
def test_an_entry_point_imports_only_what_it_runs(statement, experiments):
    output, loaded = _run_fresh(statement)
    assert not set(NEVER_LOADED) & set(loaded), sorted(set(NEVER_LOADED) & set(loaded))
    if experiments is None:
        return
    assert not [module for module in loaded if module.startswith("repro.serving")]
    assert {module[len(EXPERIMENTS):] for module in loaded
            if module.startswith(EXPERIMENTS)} == experiments
    if statement is CLI_PRESETS:
        # The listing needs every description and no experiment module.
        from repro.scenarios import available_presets, get_preset

        assert output == [f"{name}: {get_preset(name).description}"
                          for name in available_presets()]


def test_a_gateway_loads_its_event_loop_and_nothing_else_never_loaded():
    _output, loaded = _run_fresh(BUILD_GATEWAY)
    assert "asyncio" in loaded
    assert not (set(NEVER_LOADED) - {"asyncio"}) & set(loaded)


@pytest.mark.parametrize("statement", [RESOLVE_FIGURE5, CLI_PRESETS],
                         ids=["resolve-figure5", "cli-presets"])
def test_resolving_a_preset_loads_spec_data_only(statement):
    loaded = _loaded_after(statement)
    heavy = [module for module in loaded if module in SPEC_ONLY_ABSENT
             or ".".join(module.split(".")[:2]) in SPEC_ONLY_ABSENT_PACKAGES]
    assert not heavy, heavy


def test_a_parallel_sweep_of_a_lazily_resolved_preset_matches_the_sequential_one():
    # The pool starts while the parent holds no experiment module, so each
    # worker imports figure5 on its first point.
    output, _ = _run_fresh("""
        from repro.scenarios import SweepGrid, run_sweep, spec_for
        spec = spec_for("figure5", node_counts=[2], scale=0.0002, seed=3)
        grid = SweepGrid({"batch_sizes": [128, 2048]})
        assert "repro.analysis.experiments.figure5" not in sys.modules
        parallel = run_sweep(spec, grid, workers=2, strict=True).to_json()
        assert "repro.analysis.experiments.figure5" not in sys.modules
        sequential = run_sweep(spec, grid, strict=True).to_json()
        print(parallel == sequential, len(parallel))
    """)
    identical, size = output[0].split()
    assert identical == "True" and int(size) > 0


@pytest.mark.parametrize("root", LAZY_ROOTS)
def test_a_lazy_root_resolves_every_public_name_to_its_submodules_object(root):
    package = importlib.import_module(root)
    assert set(package.__all__) <= set(dir(package))
    for name in package.__all__:
        value = getattr(package, name)
        # The very object some submodule of the root defines, not a copy.
        owners = [module for key, module in list(sys.modules.items())
                  if key.startswith(root + ".") and getattr(module, name, None) is value]
        assert owners or name == "__version__", name
        # Cached in the root's globals: the hook is not consulted again.
        assert vars(package)[name] is value
    with pytest.raises(AttributeError, match=root.replace(".", r"\.")):
        getattr(package, "no_such_name")


def test_star_import_and_attribute_access_still_reach_every_name():
    namespace: dict = {}
    exec("from repro.core import *", namespace)
    core = importlib.import_module("repro.core")
    assert {name for name in namespace if not name.startswith("__")} == set(core.__all__)
    from repro.core.cluster import SHHCCluster

    assert core.SHHCCluster is SHHCCluster
