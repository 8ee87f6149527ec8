"""The unified scenario API: declarative specs, presets, and sweeps.

This package is the single public entry point for running experiments::

    from repro.scenarios import run_scenario, run_sweep, spec_for, SweepGrid

    # One run of a ported paper experiment, with overrides.
    result = run_scenario("failover", replication_factor=3, scale=0.001)
    print(result.render())          # the same table the legacy runner printed
    print(result.metrics)           # uniform machine-readable metrics

    # The ROADMAP failover sweep: replication factor x outage density,
    # with a grey-failure axis riding along.
    sweep = run_sweep(
        spec_for("failover", scale=0.001),
        SweepGrid({"replication_factor": [1, 2, 3], "outage_density": [0.1, 0.3]}),
    )
    sweep.write_json("failover_sweep.json")

Specs serialize to JSON (``spec.to_json()`` / ``ScenarioSpec.from_json``),
so a scenario can be stored next to its results and re-run bit-for-bit.
The CLI front end is ``repro run <preset>`` / ``repro sweep <preset>``.
"""

from .engine import (
    Preset,
    apply_overrides,
    available_presets,
    get_preset,
    register_preset,
    run_scenario,
    run_sweep,
    spec_for,
)
from .result import Claim, ScenarioResult, SweepResult, SweepRun
from .spec import (
    ScenarioSpec,
    SpecError,
    SweepGrid,
    UnknownSpecKeyError,
    coerce_scalar,
    parse_setting,
)

__all__ = [
    "Claim",
    "Preset",
    "ScenarioResult",
    "ScenarioSpec",
    "SpecError",
    "SweepGrid",
    "SweepResult",
    "SweepRun",
    "UnknownSpecKeyError",
    "apply_overrides",
    "available_presets",
    "coerce_scalar",
    "get_preset",
    "parse_setting",
    "register_preset",
    "run_scenario",
    "run_sweep",
    "spec_for",
]
