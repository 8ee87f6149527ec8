"""Unit tests for tools/check_bench_floors.py (the CI perf-floor guard).

The tool is a standalone script (not part of the ``repro`` package), so it
is loaded straight from its file path.  The tests pin the guard semantics
the hotpath CI job depends on: a regressed speedup fails, a *dropped*
series fails with a message naming the survivors, machine-dependent
series (``cpu_count`` recorded) skip the committed-value comparison but
still must be present, and brand-new series in the fresh file pass.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_TOOL_PATH = Path(__file__).resolve().parents[1] / "tools" / "check_bench_floors.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("check_bench_floors", _TOOL_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tool = _load_tool()


def _payload(series: dict) -> dict:
    return {"schema": "repro-shhc-bench/1", "series": series}


def test_identical_series_pass():
    committed = _payload({"chunking": {"speedup": 5.0}, "bloom_probe": {"speedup": 3.0}})
    assert tool.check_floors(committed, committed, floor_ratio=0.8) == []


def test_noise_within_floor_ratio_passes():
    committed = _payload({"chunking": {"speedup": 5.0}})
    fresh = _payload({"chunking": {"speedup": 4.1}})  # > 0.8 * 5.0
    assert tool.check_floors(committed, fresh, floor_ratio=0.8) == []


def test_regression_below_floor_fails():
    committed = _payload({"chunking": {"speedup": 5.0}})
    fresh = _payload({"chunking": {"speedup": 3.9}})  # < 0.8 * 5.0
    failures = tool.check_floors(committed, fresh, floor_ratio=0.8)
    assert len(failures) == 1
    assert "chunking" in failures[0]
    assert "3.90" in failures[0] and "4.00" in failures[0]


def test_missing_series_fails_and_names_survivors():
    committed = _payload(
        {"chunking": {"speedup": 5.0}, "service_throughput": {"speedup": 2.0, "cpu_count": 4}}
    )
    fresh = _payload({"chunking": {"speedup": 5.0}})
    failures = tool.check_floors(committed, fresh, floor_ratio=0.8)
    assert len(failures) == 1
    assert failures[0].startswith("service_throughput: series disappeared")
    # The message must name what the fresh run *did* produce, so the reader
    # can tell a renamed leg from a dropped one at a glance.
    assert "chunking" in failures[0]


def test_missing_series_from_empty_fresh_run():
    committed = _payload({"chunking": {"speedup": 5.0}})
    failures = tool.check_floors(committed, _payload({}), floor_ratio=0.8)
    assert len(failures) == 1
    assert "(none)" in failures[0]


def test_cpu_count_series_skips_committed_comparison():
    # A 16-core dev box commits speedup 6.0; a 2-core CI runner measures
    # 1.1.  Machine-dependent, so no failure -- presence is the contract.
    committed = _payload({"sweep_wall_clock": {"speedup": 6.0, "cpu_count": 16}})
    fresh = _payload({"sweep_wall_clock": {"speedup": 1.1, "cpu_count": 2}})
    assert tool.check_floors(committed, fresh, floor_ratio=0.8) == []


def test_new_series_in_fresh_file_passes():
    committed = _payload({"chunking": {"speedup": 5.0}})
    fresh = _payload({"chunking": {"speedup": 5.0}, "service_throughput": {"speedup": 2.0}})
    assert tool.check_floors(committed, fresh, floor_ratio=0.8) == []


def test_lost_speedup_field_fails():
    committed = _payload({"chunking": {"speedup": 5.0}})
    fresh = _payload({"chunking": {"unit": "MB/s"}})
    failures = tool.check_floors(committed, fresh, floor_ratio=0.8)
    assert failures == ["chunking: fresh benchmark lost its 'speedup' field"]


def test_series_without_speedup_is_not_guarded():
    committed = _payload({"notes": {"unit": "freeform"}})
    fresh = _payload({"notes": {"unit": "freeform"}})
    assert tool.check_floors(committed, fresh, floor_ratio=0.8) == []


def test_dropped_sub_key_is_not_guarded():
    # Only the headline ``speedup`` is a floor: a per-kernel ratio deleted
    # together with the code it measured (numpy_kernels.cuckoo_get_speedup)
    # must not fail the check against an older committed file.
    committed = _payload({"numpy_kernels": {"speedup": 1.4, "cuckoo_get_speedup": 1.0}})
    fresh = _payload({"numpy_kernels": {"speedup": 1.4}})
    assert tool.check_floors(committed, fresh, floor_ratio=0.8) == []


def test_main_exit_codes(tmp_path, capsys):
    committed = tmp_path / "committed.json"
    fresh = tmp_path / "fresh.json"
    committed.write_text(json.dumps(_payload({"chunking": {"speedup": 5.0}})))

    fresh.write_text(json.dumps(_payload({"chunking": {"speedup": 5.0}})))
    assert tool.main([str(committed), str(fresh)]) == 0
    assert "chunking" in capsys.readouterr().out

    fresh.write_text(json.dumps(_payload({})))
    assert tool.main([str(committed), str(fresh)]) == 1
    assert "PERF REGRESSION" in capsys.readouterr().err


def test_main_floor_ratio_flag(tmp_path):
    committed = tmp_path / "committed.json"
    fresh = tmp_path / "fresh.json"
    committed.write_text(json.dumps(_payload({"chunking": {"speedup": 5.0}})))
    fresh.write_text(json.dumps(_payload({"chunking": {"speedup": 3.0}})))
    assert tool.main([str(committed), str(fresh)]) == 1
    assert tool.main([str(committed), str(fresh), "--floor-ratio", "0.5"]) == 0
