"""What each live-service process imports, and the lazy package roots behind it.

A ``spawn``ed worker starts in a fresh interpreter and pays for every module
it imports before it can serve; so does a respawn after a crash.  The
package roots therefore import nothing until a public name is used, and the
serving entry points must not drag in the simulator, the scenario catalogue
or the in-process cluster.
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
              "repro.simulation", "repro.serving")


def _loaded_after(statement: str) -> list:
    """The ``repro`` modules a fresh interpreter holds after ``statement``."""
    script = f"""
        import sys
        {statement}
        print("\\n".join(sorted(m for m in sys.modules if m.split(".")[0] == "repro")))
    """
    result = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        cwd=str(REPO_ROOT),
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, f"stdout:\n{result.stdout}\nstderr:\n{result.stderr}"
    return result.stdout.split()


@pytest.mark.parametrize("statement, also_absent", [
    ("import repro.serving.worker", ("repro.serving.gateway", "repro.serving.loadgen")),
    ("from repro.serving import ServeConfig, ServiceGateway", ("repro.serving.loadgen",)),
    ("import repro.cli", ()),
])
def test_a_live_service_process_imports_only_what_it_runs(statement, also_absent):
    loaded = _loaded_after(statement)
    foreign = [module for module in loaded
               if module.partition(".")[2].split(".")[0] in FOREIGN_PACKAGES]
    assert not foreign, foreign
    for module in FOREIGN_MODULES + also_absent:
        assert module not in loaded, module


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
