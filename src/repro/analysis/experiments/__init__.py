"""Experiment runners, one module per paper table/figure plus the ablations.

The way to run an experiment is the scenario API::

    from repro.scenarios import run_scenario
    result = run_scenario("figure5", scale=0.001)

whose presets (:mod:`repro.scenarios.presets`) call each module's ``run_*``
function.  Import that function from its module (``from
repro.analysis.experiments.figure5 import run_figure5``) when an argument
is a rich object a declarative spec cannot carry (workload mixes, profile
objects, explicit configs or schedules).

Every runner returns a result object with a ``render()`` method producing
the same table/series the paper reports.  This package imports nothing:
a preset's first run imports only the experiment it runs.
"""
