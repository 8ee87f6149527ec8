"""Calibrated storage / memory device models.

These models substitute for the paper's physical hardware (DDR3 RAM, SATA-II
SSD, 7.2k RPM HDD).  Each device exposes a *service time* for an access of a
given kind and size; a simulated hash node sums those per batch and holds the
device (a :class:`~repro.simulation.resources.Resource`) for the total, which
reproduces queueing under load.

Default parameters follow widely published figures for circa-2010 hardware
(the paper's testbed era):

==============  =====================  ==========================
Device           Latency                Bandwidth
==============  =====================  ==========================
RAM              ~100 ns per access     ~10 GB/s
SATA-II SSD      ~90 µs read / ~230 µs  ~250 MB/s read / 180 MB/s
                 write (4 KB)           write
7.2k RPM HDD     ~6 ms seek + rotate    ~100 MB/s sequential
==============  =====================  ==========================

Absolute values are configurable; experiments rely on the *ratios* (RAM ≪ SSD
≪ HDD random access), which is what the SHHC design exploits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..simulation.engine import Simulator
from ..simulation.resources import Resource

__all__ = [
    "DeviceSpec",
    "StorageDevice",
    "RAM_SPEC",
    "SSD_SPEC",
    "HDD_SPEC",
    "make_ram",
    "make_ssd",
    "make_hdd",
]


@dataclass(frozen=True)
class DeviceSpec:
    """Latency/bandwidth parameters of a storage or memory device.

    All times are seconds; bandwidths are bytes per second.
    """

    name: str
    read_latency: float
    write_latency: float
    read_bandwidth: float
    write_bandwidth: float
    concurrency: int = 1
    seek_latency: float = 0.0

    def read_time(self, size_bytes: int = 4096, random_access: bool = True) -> float:
        """Service time for a read of ``size_bytes``."""
        base = self.read_latency + (self.seek_latency if random_access else 0.0)
        return base + size_bytes / self.read_bandwidth

    def write_time(self, size_bytes: int = 4096, random_access: bool = True) -> float:
        """Service time for a write of ``size_bytes``."""
        base = self.write_latency + (self.seek_latency if random_access else 0.0)
        return base + size_bytes / self.write_bandwidth


RAM_SPEC = DeviceSpec(
    name="ram",
    read_latency=100e-9,
    write_latency=100e-9,
    read_bandwidth=10e9,
    write_bandwidth=10e9,
    concurrency=8,
)

SSD_SPEC = DeviceSpec(
    name="ssd",
    read_latency=90e-6,
    write_latency=230e-6,
    read_bandwidth=250e6,
    write_bandwidth=180e6,
    concurrency=4,
)

HDD_SPEC = DeviceSpec(
    name="hdd",
    read_latency=0.5e-3,
    write_latency=0.5e-3,
    read_bandwidth=100e6,
    write_bandwidth=100e6,
    concurrency=1,
    seek_latency=6e-3,
)


class StorageDevice:
    """A device model: spec-derived service times plus a simulated queue.

    The cost model (:meth:`read_cost` / :meth:`write_cost`) is always
    available; :meth:`busy` needs the device built on a :class:`Simulator`.
    """

    def __init__(self, spec: DeviceSpec, sim: Optional[Simulator] = None, name: str = "") -> None:
        self.spec = spec
        self.sim = sim
        self.name = name or spec.name
        self._resource: Optional[Resource] = (
            Resource(sim, capacity=spec.concurrency, name=f"{self.name}.queue") if sim else None
        )

    # -- cost model (always available) ---------------------------------------
    def read_cost(self, size_bytes: int = 4096, random_access: bool = True) -> float:
        """Pure service time of a read, excluding queueing."""
        return self.spec.read_time(size_bytes, random_access)

    def write_cost(self, size_bytes: int = 4096, random_access: bool = True) -> float:
        """Pure service time of a write, excluding queueing."""
        return self.spec.write_time(size_bytes, random_access)

    # -- simulated access -----------------------------------------------------
    def busy(self, duration: float, on_done: Callable[[], None]) -> None:
        """Occupy the device for an externally computed ``duration``.

        The caller has already accounted for the individual accesses (a
        batched lookup sums their costs) and needs the device's queue to
        reflect the aggregate busy time.  ``on_done()`` runs once the device
        has actually been held for it, right after the slot is handed on.
        """
        if duration < 0:
            raise ValueError("duration must be non-negative")
        sim, resource = self.sim, self._resource
        if resource is None:  # built without a simulator: cost model only
            raise RuntimeError("busy() requires a device constructed with a Simulator")

        def _finish() -> None:
            resource.release()
            on_done()

        resource.request(lambda: sim.schedule(duration, _finish))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<StorageDevice {self.name}>"


def make_ram(sim: Optional[Simulator] = None, name: str = "ram", **overrides) -> StorageDevice:
    """RAM device with optional spec overrides (e.g. ``read_latency=...``)."""
    return StorageDevice(_override(RAM_SPEC, overrides), sim, name)


def make_ssd(sim: Optional[Simulator] = None, name: str = "ssd", **overrides) -> StorageDevice:
    """SATA-II-class SSD device with optional spec overrides."""
    return StorageDevice(_override(SSD_SPEC, overrides), sim, name)


def make_hdd(sim: Optional[Simulator] = None, name: str = "hdd", **overrides) -> StorageDevice:
    """7.2k-RPM HDD device with optional spec overrides."""
    return StorageDevice(_override(HDD_SPEC, overrides), sim, name)


def _override(spec: DeviceSpec, overrides: dict) -> DeviceSpec:
    if not overrides:
        return spec
    valid = {f for f in spec.__dataclass_fields__}  # type: ignore[attr-defined]
    unknown = set(overrides) - valid
    if unknown:
        raise TypeError(f"unknown device spec fields: {sorted(unknown)}")
    params = {f: getattr(spec, f) for f in valid}
    params.update(overrides)
    return DeviceSpec(**params)
