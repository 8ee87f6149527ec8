"""Experiment runners, one per paper table/figure plus the ablations.

The canonical way to run an experiment is the scenario API::

    from repro.scenarios import run_scenario
    result = run_scenario("figure5", scale=0.001)

whose presets (:mod:`repro.scenarios.presets`) call the ``run_*`` module
functions re-exported here.  Call those directly when an argument is a
rich object a declarative spec cannot carry (workload mixes, profile
objects, explicit configs or schedules).

Every runner returns a result object with a ``render()`` method producing
the same table/series the paper reports.
"""

from __future__ import annotations

from .ablations import (
    BatchTradeoffPoint,
    BatchTradeoffResult,
    ScalingAblationResult,
    TierAblationResult,
    TierAblationRow,
    run_batch_tradeoff,
    run_scaling_ablation,
    run_tier_ablation,
)
from .control_plane import (
    ControlPlaneResult,
    PhaseLatency,
    run_churn_timed,
    run_failover_timed,
)
from .elasticity import ElasticityResult, run_elasticity
from .failover import FailoverResult, run_failover
from .restart import RestartResult, run_restart
from .service import ServiceRunResult, run_service
from .figure1 import Figure1Point, Figure1Result, run_figure1
from .generational import GenerationalResult, GenerationRow, run_generational_backup
from .figure5 import Figure5Point, Figure5Result, run_figure5
from .figure6 import Figure6Result, run_figure6
from .table1 import Table1Result, Table1Row, run_table1

__all__ = [
    "BatchTradeoffPoint",
    "BatchTradeoffResult",
    "ScalingAblationResult",
    "TierAblationResult",
    "TierAblationRow",
    "run_batch_tradeoff",
    "run_scaling_ablation",
    "run_tier_ablation",
    "ControlPlaneResult",
    "PhaseLatency",
    "run_failover_timed",
    "run_churn_timed",
    "ElasticityResult",
    "run_elasticity",
    "FailoverResult",
    "run_failover",
    "RestartResult",
    "run_restart",
    "ServiceRunResult",
    "run_service",
    "Figure1Point",
    "Figure1Result",
    "run_figure1",
    "GenerationalResult",
    "GenerationRow",
    "run_generational_backup",
    "Figure5Point",
    "Figure5Result",
    "run_figure5",
    "Figure6Result",
    "run_figure6",
    "Table1Result",
    "Table1Row",
    "run_table1",
]
