"""Experiment runners, one per paper table/figure plus the ablations.

The canonical way to run an experiment is the scenario API::

    from repro.scenarios import run_scenario
    result = run_scenario("figure5", scale=0.001)

whose presets (:mod:`repro.scenarios.presets`) call the ``run_*`` module
functions re-exported here.  Call those directly when an argument is a
rich object a declarative spec cannot carry (workload mixes, profile
objects, explicit configs or schedules).

Every runner returns a result object with a ``render()`` method producing
the same table/series the paper reports.  Like the package roots, this one
imports nothing until a name is used: a name's first lookup imports only
the experiment that defines it.
"""

from ..._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".ablations": ("BatchTradeoffPoint", "BatchTradeoffResult", "ScalingAblationResult",
                   "TierAblationResult", "TierAblationRow", "run_batch_tradeoff",
                   "run_scaling_ablation", "run_tier_ablation"),
    ".control_plane": ("ControlPlaneResult", "PhaseLatency", "run_churn_timed",
                       "run_failover_timed"),
    ".elasticity": ("ElasticityResult", "run_elasticity"),
    ".failover": ("FailoverResult", "run_failover"),
    ".restart": ("RestartResult", "run_restart"),
    ".service": ("ServiceRunResult", "run_service"),
    ".figure1": ("Figure1Point", "Figure1Result", "run_figure1"),
    ".generational": ("GenerationalResult", "GenerationRow", "run_generational_backup"),
    ".figure5": ("Figure5Point", "Figure5Result", "run_figure5"),
    ".figure6": ("Figure6Result", "run_figure6"),
    ".table1": ("Table1Result", "Table1Row", "run_table1"),
})
