"""The scenario engine: preset registry, override resolution, run/sweep.

This module is the single execution path for experiments.  A
:class:`Preset` couples a name with (a) the set of spec keys it accepts per
section and (b) a runner that turns a validated :class:`ScenarioSpec` into
a :class:`ScenarioResult`.  :func:`run_scenario` executes one spec and
checks the preset's claims on its result; :func:`run_sweep` expands a
:class:`SweepGrid` against a base spec and collects the uniform metrics of
every point into a :class:`SweepResult`.

Override resolution
-------------------
Callers address spec keys *flat* (``--set replication_factor=2``,
``--axis outage_density=0.1,0.3``); :func:`apply_overrides` routes each key
into its section using the preset's declared key sets, applies aliases
(``nodes`` -> ``num_nodes``), folds fault keys into the spec's
:class:`~repro.core.fault_injection.FaultPlan`, and raises
:class:`~repro.scenarios.spec.UnknownSpecKeyError` for anything the preset
does not understand.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, FrozenSet, List, Mapping, Optional, Tuple, Union

from ..core.fault_injection import FaultPlan
from ..core.membership import ChurnPlan
from .result import Claim, ScenarioResult, SweepResult, SweepRun
from .spec import (
    CHURN_KEYS,
    CLUSTER_KEYS,
    FAULT_KEYS,
    KEY_ALIASES,
    NODE_KEYS,
    ScenarioSpec,
    SpecError,
    SweepGrid,
    UnknownSpecKeyError,
)

__all__ = [
    "Preset",
    "register_preset",
    "get_preset",
    "available_presets",
    "spec_for",
    "apply_overrides",
    "canonicalize_grid",
    "run_scenario",
    "run_sweep",
]


@dataclass(frozen=True)
class Preset:
    """One named scenario family (usually a ported paper figure/table)."""

    name: str
    description: str
    runner: Callable[[ScenarioSpec], ScenarioResult]
    #: Accepted spec keys per section.  ``workload``/``client`` keys are
    #: preset-specific; ``cluster``/``node`` keys must be subsets of the
    #: config dataclasses; ``faults`` is all-or-nothing.
    cluster_keys: FrozenSet[str] = frozenset()
    node_keys: FrozenSet[str] = frozenset()
    workload_keys: FrozenSet[str] = frozenset()
    client_keys: FrozenSet[str] = frozenset()
    accepts_faults: bool = False
    accepts_churn: bool = False
    #: The paper's findings a run of this preset is checked against.
    claims: Tuple[Claim, ...] = ()
    #: The preset's table: a :mod:`repro.analysis.reporting` layout over
    #: its metric names (``None``: every scalar metric, one row each).
    table: Any = None

    def __post_init__(self) -> None:
        if not self.cluster_keys <= CLUSTER_KEYS:
            raise SpecError(
                f"preset {self.name!r}: cluster keys {sorted(self.cluster_keys - CLUSTER_KEYS)} "
                "are not ClusterConfig fields"
            )
        if not self.node_keys <= NODE_KEYS:
            raise SpecError(
                f"preset {self.name!r}: node keys {sorted(self.node_keys - NODE_KEYS)} "
                "are not HashNodeConfig fields"
            )

    def valid_keys(self) -> List[str]:
        """Every flat key this preset accepts (for error messages / docs)."""
        keys = {"seed"}
        keys |= self.cluster_keys | self.node_keys | self.workload_keys | self.client_keys
        if self.accepts_faults:
            keys |= FAULT_KEYS
        if self.accepts_churn:
            keys |= CHURN_KEYS
        return sorted(keys)

    def section_of(self, key: str) -> Optional[str]:
        """Which spec section a flat key belongs to (``None`` if unknown)."""
        if key == "seed":
            return "seed"
        if key in FAULT_KEYS:
            return "faults" if self.accepts_faults else None
        if key in CHURN_KEYS:
            return "churn" if self.accepts_churn else None
        for section, accepted in (
            ("cluster", self.cluster_keys),
            ("node", self.node_keys),
            ("workload", self.workload_keys),
            ("client", self.client_keys),
        ):
            if key in accepted:
                return section
        return None


_PRESETS: Dict[str, Preset] = {}
_BUILTINS_LOADED = False


def register_preset(preset: Preset) -> Preset:
    """Add (or replace) a preset in the registry; returns it for chaining."""
    _PRESETS[preset.name] = preset
    return preset


def get_preset(name: str) -> Preset:
    _ensure_presets_loaded()
    try:
        return _PRESETS[name]
    except KeyError:
        raise SpecError(
            f"unknown preset {name!r}; available: {', '.join(available_presets())}"
        ) from None


def available_presets() -> List[str]:
    """Registered preset names, sorted."""
    _ensure_presets_loaded()
    return sorted(_PRESETS)


def _ensure_presets_loaded() -> None:
    # The built-in presets live in .presets, which imports this module; a
    # lazy import avoids the cycle while keeping `get_preset` self-contained.
    # A dedicated flag (not `_PRESETS` emptiness) so user-registered presets
    # never mask the built-ins, set only once the import succeeded: a failed
    # import re-raises on the next call instead of leaving an empty registry.
    global _BUILTINS_LOADED
    if not _BUILTINS_LOADED:
        from . import presets  # noqa: F401  (registers on import)

        _BUILTINS_LOADED = True


# ------------------------------------------------------------------- overrides
def _merge_fault_key(plan: Optional[FaultPlan], key: str, value: Any) -> FaultPlan:
    """Fold one flat fault key into a plan, inferring the kind upgrades.

    Setting an outage density on a grey plan yields ``rolling_grey`` (and
    vice versa), so ``--axis outage_density=... --axis failure_rate=...``
    composes without the caller spelling the kind explicitly.
    """
    plan = plan if plan is not None else FaultPlan.none()
    if key == "fault_kind":
        return replace(plan, kind=str(value))
    if key == "outage_density":
        kind = plan.kind
        if value and kind == "none":
            kind = "rolling_outage"
        elif value and kind == "grey_failure":
            kind = "rolling_grey"
        return replace(plan, outage_density=float(value), kind=kind)
    if key == "failure_rate":
        kind = plan.kind
        if value and kind == "none":
            kind = "grey_failure"
        elif value and kind == "rolling_outage":
            kind = "rolling_grey"
        return replace(plan, failure_rate=float(value), kind=kind)
    if key == "flaky_nodes":
        return replace(plan, flaky_nodes=int(value))
    if key == "rounds":
        return replace(plan, rounds=int(value))
    raise SpecError(f"unknown fault key {key!r}")  # pragma: no cover - guarded by caller


def _merge_churn_key(plan: Optional[ChurnPlan], key: str, value: Any) -> ChurnPlan:
    """Fold one flat churn key into a plan (``churn_events=6`` etc.)."""
    plan = plan if plan is not None else ChurnPlan.none()
    if key == "churn_kind":
        return replace(plan, kind=str(value))
    if key == "churn_events":
        return replace(plan, events=int(value))
    if key == "churn_start":
        return replace(plan, start=float(value))
    raise SpecError(f"unknown churn key {key!r}")  # pragma: no cover - guarded by caller


def apply_overrides(spec: ScenarioSpec, values: Mapping[str, Any]) -> ScenarioSpec:
    """Route flat ``key -> value`` overrides into a spec's sections.

    Raises :class:`UnknownSpecKeyError` for keys the spec's preset does not
    accept -- a typo'd sweep axis must fail before any experiment runs.
    """
    preset = get_preset(spec.preset)
    sections: Dict[str, Dict[str, Any]] = {
        "cluster": spec.section("cluster"),
        "node": spec.section("node"),
        "workload": spec.section("workload"),
        "client": spec.section("client"),
    }
    seed = spec.seed
    faults = spec.faults
    churn = spec.churn
    for raw_key, value in values.items():
        key = KEY_ALIASES.get(raw_key, raw_key)
        section = preset.section_of(key)
        if section is None:
            raise UnknownSpecKeyError(raw_key, preset.name, preset.valid_keys())
        if section == "seed":
            seed = int(value)
        elif section == "faults":
            faults = _merge_fault_key(faults, key, value)
        elif section == "churn":
            churn = _merge_churn_key(churn, key, value)
        else:
            sections[section][key] = value
    return spec.replace_sections(seed=seed, faults=faults, churn=churn, **sections)


def _validate_spec(spec: ScenarioSpec, preset: Preset) -> None:
    """Reject spec sections carrying keys the preset does not accept."""
    for section, accepted in (
        ("cluster", preset.cluster_keys),
        ("node", preset.node_keys),
        ("workload", preset.workload_keys),
        ("client", preset.client_keys),
    ):
        unknown = set(getattr(spec, section)) - accepted
        if unknown:
            raise UnknownSpecKeyError(sorted(unknown)[0], preset.name, preset.valid_keys())
    if spec.faults is not None and not preset.accepts_faults:
        raise SpecError(f"preset {spec.preset!r} does not take a fault plan")
    if spec.churn is not None and not preset.accepts_churn:
        raise SpecError(f"preset {spec.preset!r} does not take a churn plan")


def spec_for(preset_name: str, **overrides: Any) -> ScenarioSpec:
    """The preset's default spec with flat ``overrides`` applied.

    An empty override set reproduces the legacy runner's defaults exactly;
    that equivalence is what the golden tests pin down.
    """
    get_preset(preset_name)  # fail fast on unknown names
    return apply_overrides(ScenarioSpec(preset=preset_name), overrides)


# ------------------------------------------------------------------- execution
def run_scenario(
    spec: Union[ScenarioSpec, str], **overrides: Any
) -> ScenarioResult:
    """Execute one scenario and return its uniform result.

    ``spec`` may be a :class:`ScenarioSpec` or a preset name; keyword
    overrides are applied through :func:`apply_overrides` either way.
    """
    if isinstance(spec, str):
        spec = spec_for(spec, **overrides)
    elif overrides:
        spec = apply_overrides(spec, overrides)
    preset = get_preset(spec.preset)
    _validate_spec(spec, preset)
    result = preset.runner(spec)
    result.claims = {claim.id: claim.check(result) for claim in preset.claims}
    result.table = preset.table
    return result


def canonicalize_grid(grid: SweepGrid) -> SweepGrid:
    """Resolve axis-name aliases (``nodes`` -> ``num_nodes``) once, up front.

    Alias resolution used to happen per grid point inside
    ``apply_overrides``, which meant an aliased axis produced sweep JSON
    whose ``point``/``grid`` keys differed from the canonical spelling.
    Canonicalizing the grid makes aliased and canonical axis names emit
    identical sweeps, and leaves nothing for the per-point loop to
    resolve.  An alias colliding with its canonical form (``nodes`` and
    ``num_nodes`` as separate axes) is rejected.
    """
    renamed = {KEY_ALIASES.get(name, name): values for name, values in grid.axes.items()}
    if len(renamed) != len(grid.axes):
        raise SpecError(
            "sweep axes collide after alias resolution: "
            f"{sorted(grid.axes)} -> {sorted(renamed)}"
        )
    if list(renamed) == list(grid.axes):
        return grid
    return SweepGrid(axes=renamed, mode=grid.mode)


def _run_sweep_point(
    payload: Tuple[ScenarioSpec, Dict[str, Any], bool]
) -> Tuple[bool, Any]:
    """Worker-side execution of one grid point (module-level: picklable).

    Returns ``(True, metrics)`` or ``(False, error_string)``; with
    ``catch`` false the exception propagates to the caller (strict mode),
    pickled back across the process boundary by the pool.
    """
    spec, point, catch = payload
    if not catch:
        return True, run_scenario(apply_overrides(spec, point)).metrics
    try:
        result = run_scenario(apply_overrides(spec, point))
    except Exception as error:  # noqa: BLE001 - error rows carry any failure
        message = f"{type(error).__name__}: {error}"
        traceback.clear_frames(error.__traceback__)
        return False, message
    return True, result.metrics


def run_sweep(
    spec: Union[ScenarioSpec, str],
    grid: SweepGrid,
    strict: bool = False,
    progress: Optional[Callable[[Dict[str, Any], Optional[SweepRun]], None]] = None,
    workers: int = 1,
) -> SweepResult:
    """Run every grid point against ``spec``; collect metrics per point.

    A failing point is recorded as an error row (so one infeasible corner
    -- say, an unreplicated cluster under total outage -- does not discard
    the rest of an expensive sweep) unless ``strict`` is true.  ``progress``
    is called as ``progress(point, None)`` before each run and
    ``progress(point, run)`` after it.

    ``workers > 1`` executes the grid on a process pool.  Every point is
    independently seeded and the rows are collected in grid order, so the
    result -- including its JSON serialization -- is byte-identical to a
    sequential run for any worker count (pinned by
    tests/test_parallel_sweep.py).  Error-row semantics are preserved; in
    strict mode the first failing point *in grid order* raises (later
    points may already have run -- scenario runs are pure compute, so no
    side effects leak).  ``progress`` keeps firing in grid order: the
    ``(point, None)`` call marks the wait for that point's result rather
    than the exact start of its execution.
    """
    if isinstance(spec, str):
        spec = spec_for(spec)
    if workers < 1:
        raise SpecError(f"workers must be >= 1, got {workers}")
    grid = canonicalize_grid(grid)
    # Validate the axes against the preset before running anything.
    base_preset = get_preset(spec.preset)
    for axis in grid.axes:
        if base_preset.section_of(axis) is None:
            raise UnknownSpecKeyError(axis, base_preset.name, base_preset.valid_keys())
    sweep = SweepResult(base=spec, grid=grid)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        points = list(grid.points())
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_run_sweep_point, (spec, point, not strict))
                for point in points
            ]
            try:
                for point, future in zip(points, futures):
                    if progress is not None:
                        progress(point, None)
                    ok, outcome = future.result()  # strict: re-raises the original
                    run = (
                        SweepRun(point=point, metrics=outcome)
                        if ok
                        else SweepRun(point=point, error=outcome)
                    )
                    sweep.runs.append(run)
                    if progress is not None:
                        progress(point, run)
            except BaseException:
                # Strict abort (or interrupt): drop every not-yet-started
                # point instead of letting the pool drain the whole grid
                # before the failure reaches the caller.
                for pending in futures:
                    pending.cancel()
                raise
        return sweep
    for point in grid.points():
        if progress is not None:
            progress(point, None)
        try:
            result = run_scenario(apply_overrides(spec, point))
        except Exception as error:
            if strict:
                raise
            run = SweepRun(point=point, error=f"{type(error).__name__}: {error}")
            traceback.clear_frames(error.__traceback__)
        else:
            run = SweepRun(point=point, metrics=result.metrics)
        sweep.runs.append(run)
        if progress is not None:
            progress(point, run)
    return sweep
