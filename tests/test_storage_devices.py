"""Tests for the storage device models."""

from __future__ import annotations

import pytest

from repro.storage.devices import (
    HDD_SPEC,
    RAM_SPEC,
    SSD_SPEC,
    DeviceSpec,
    StorageDevice,
    make_hdd,
    make_ram,
    make_ssd,
)


class TestDeviceSpecs:
    def test_latency_ordering_ram_ssd_hdd(self):
        ram = RAM_SPEC.read_time(4096)
        ssd = SSD_SPEC.read_time(4096)
        hdd = HDD_SPEC.read_time(4096)
        assert ram < ssd < hdd

    def test_ssd_write_slower_than_read(self):
        assert SSD_SPEC.write_time(4096) > SSD_SPEC.read_time(4096)

    def test_hdd_sequential_avoids_seek(self):
        random_access = HDD_SPEC.read_time(4096, random_access=True)
        sequential = HDD_SPEC.read_time(4096, random_access=False)
        assert sequential < random_access
        assert random_access - sequential == pytest.approx(HDD_SPEC.seek_latency)

    def test_read_time_scales_with_size(self):
        small = SSD_SPEC.read_time(4096)
        large = SSD_SPEC.read_time(4096 * 64)
        assert large > small
        assert large - small == pytest.approx(4096 * 63 / SSD_SPEC.read_bandwidth)

    def test_factory_overrides(self):
        device = make_ssd(read_latency=1e-3)
        assert device.spec.read_latency == 1e-3
        assert device.spec.write_latency == SSD_SPEC.write_latency

    def test_factory_rejects_unknown_override(self):
        with pytest.raises(TypeError):
            make_ram(bogus_field=1.0)


class TestImmediateMode:
    """Without a simulator a device is its cost model only."""

    def test_costs_need_no_simulator(self):
        device = make_hdd()
        assert device.read_cost(4096) == pytest.approx(HDD_SPEC.read_time(4096))
        assert device.write_cost(4096, False) == pytest.approx(HDD_SPEC.write_time(4096, False))

    def test_busy_without_a_simulator_is_a_runtime_error(self):
        # The same error HybridHashNode.serve_batch raises, not an
        # AttributeError from a missing queue.
        with pytest.raises(RuntimeError, match="constructed with a Simulator"):
            make_ssd().busy(0.5, lambda: None)

    def test_busy_rejects_negative_duration(self):
        with pytest.raises(ValueError):
            make_ssd().busy(-1.0, lambda: None)


class TestSimulatedMode:
    def test_read_completes_after_service_time(self, sim):
        device = make_ssd(sim)
        finished = []
        device.busy(device.read_cost(4096), lambda: finished.append(sim.now))
        assert finished == []
        sim.run()
        assert finished == [pytest.approx(device.read_cost(4096))]

    def test_queueing_with_concurrency_one(self, sim):
        spec = DeviceSpec(
            name="serial-ssd",
            read_latency=1e-3,
            write_latency=1e-3,
            read_bandwidth=1e9,
            write_bandwidth=1e9,
            concurrency=1,
        )
        device = StorageDevice(spec, sim)
        finish_times = []
        for _ in range(3):
            device.busy(device.read_cost(0), lambda: finish_times.append(sim.now))
        sim.run()
        assert finish_times == [
            pytest.approx(1e-3),
            pytest.approx(2e-3),
            pytest.approx(3e-3),
        ]

    def test_concurrency_allows_parallel_access(self, sim):
        spec = DeviceSpec(
            name="parallel-ssd",
            read_latency=1e-3,
            write_latency=1e-3,
            read_bandwidth=1e9,
            write_bandwidth=1e9,
            concurrency=2,
        )
        device = StorageDevice(spec, sim)
        finish_times = []
        for _ in range(2):
            device.busy(device.read_cost(0), lambda: finish_times.append(sim.now))
        sim.run()
        assert finish_times == [pytest.approx(1e-3), pytest.approx(1e-3)]

    def test_process_can_wait_on_device(self, sim):
        """A callback chain resumes after its hold, at the instant it ends."""
        device = make_ram(sim)
        resumed = []
        sim.schedule(0.0, device.busy, device.read_cost(64), lambda: resumed.append(sim.now))
        sim.run()
        assert resumed == [pytest.approx(device.read_cost(64))]
