"""Experiment runners, one module per paper table/figure plus the ablations.

The way to run an experiment is the scenario API::

    from repro.scenarios import run_scenario
    result = run_scenario("figure5", scale=0.001)

whose presets (:mod:`repro.scenarios.presets`) call each module's ``run_*``
function.  Import that function from its module (``from
repro.analysis.experiments.figure5 import run_figure5``) when an argument
is a rich object a declarative spec cannot carry (workload mixes, profile
objects, explicit configs or schedules).

Every runner returns the metrics its preset reports: a dict of plain JSON
values (a figure's ``points``, a table's ``rows``, counters by name).  The
preset wraps it in a :class:`~repro.scenarios.result.ScenarioResult` as it
is, and the paper-formatted table is drawn from those metrics alone.  This
package imports nothing: a preset's first run imports only the experiment
it runs.
"""
