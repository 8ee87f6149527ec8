"""Multi-generation backup workloads.

Cloud backup's defining access pattern -- and the reason the paper says
backup "benefits the most from deduplication" -- is *repeated full backups of
existing data*: each generation (e.g. each nightly backup) re-sends almost
the same chunk stream as the previous one, with a small churn of modified and
new data.  The Table-I traces capture a single stream; this module generates
the cross-generation structure explicitly, so experiments can measure how the
dedup ratio and the RAM-tier hit ratio evolve over a backup cycle.

Model
-----
A *dataset* is a list of chunk identities.  Each new generation applies churn
to the previous dataset: a fraction of chunks is modified (replaced by brand
new identities) and a fraction of new chunks is appended, both controlled by
the :class:`GenerationConfig`.  The fingerprints of a generation are the
dataset's identities in order, so within-generation locality is perfect and
cross-generation redundancy equals ``1 - churn``, which is the behaviour
in-line dedup systems are designed around.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional

from ..dedup.fingerprint import Fingerprint, synthetic_fingerprint
from ..simulation.rng import RandomStreams

__all__ = ["GenerationConfig", "BackupGeneration", "GenerationalWorkload"]


@dataclass(frozen=True)
class GenerationConfig:
    """Shape of a repeated-full-backup workload."""

    initial_chunks: int = 10_000
    generations: int = 7
    modify_fraction: float = 0.03
    growth_fraction: float = 0.01
    chunk_size: int = 8192
    seed: int = 0

    def __post_init__(self) -> None:
        if self.initial_chunks < 1:
            raise ValueError("initial_chunks must be >= 1")
        if self.generations < 1:
            raise ValueError("generations must be >= 1")
        if not 0.0 <= self.modify_fraction <= 1.0:
            raise ValueError("modify_fraction must be within [0, 1]")
        if self.growth_fraction < 0.0:
            raise ValueError("growth_fraction must be non-negative")
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")


@dataclass
class BackupGeneration:
    """One full backup: its sequence number and chunk identities."""

    number: int
    identities: List[int] = field(default_factory=list)
    modified_chunks: int = 0
    new_chunks: int = 0

    def __len__(self) -> int:
        return len(self.identities)

    def fingerprints(self, chunk_size: int = 8192) -> Iterator[Fingerprint]:
        """The generation's fingerprint stream, in dataset order."""
        for identity in self.identities:
            yield synthetic_fingerprint(identity, chunk_size)


class GenerationalWorkload:
    """Generates successive full backups of an evolving dataset."""

    def __init__(self, config: Optional[GenerationConfig] = None) -> None:
        self.config = config if config is not None else GenerationConfig()
        self._rng = RandomStreams(self.config.seed).stream("generations")
        self._next_identity = 1
        self.generations: List[BackupGeneration] = []
        self._build()

    # ------------------------------------------------------------------ construction
    def _fresh_identity(self) -> int:
        identity = self._next_identity
        self._next_identity += 1
        # Offset into a dedicated identity space so generational workloads do
        # not collide with Table-I traces in mixed experiments.
        return (1 << 62) + identity

    def _build(self) -> None:
        config = self.config
        dataset = [self._fresh_identity() for _ in range(config.initial_chunks)]
        first = BackupGeneration(number=0, identities=list(dataset), new_chunks=len(dataset))
        self.generations.append(first)
        for number in range(1, config.generations):
            dataset, generation = self._evolve(dataset, number)
            self.generations.append(generation)

    def _evolve(self, dataset: List[int], number: int) -> tuple:
        config = self.config
        rng = self._rng
        modified = 0
        evolved = list(dataset)
        modify_count = round(len(evolved) * config.modify_fraction)
        if modify_count:
            positions = rng.sample(range(len(evolved)), modify_count)
            for position in positions:
                evolved[position] = self._fresh_identity()
            modified = modify_count
        growth_count = round(len(evolved) * config.growth_fraction)
        new_identities = [self._fresh_identity() for _ in range(growth_count)]
        evolved.extend(new_identities)
        generation = BackupGeneration(
            number=number,
            identities=evolved,
            modified_chunks=modified,
            new_chunks=modified + growth_count,
        )
        return evolved, generation

    # ------------------------------------------------------------------ access
    def __len__(self) -> int:
        return len(self.generations)

    def generation(self, number: int) -> BackupGeneration:
        return self.generations[number]

    def fingerprint_stream(self) -> Iterator[Fingerprint]:
        """All generations concatenated, oldest first (a full backup cycle)."""
        for generation in self.generations:
            yield from generation.fingerprints(self.config.chunk_size)

    def total_chunks(self) -> int:
        """Chunk occurrences across every generation (logical volume)."""
        return sum(len(generation) for generation in self.generations)

    def unique_chunks(self) -> int:
        """Distinct chunk identities ever produced (physical volume)."""
        return self._next_identity - 1

    def expected_dedup_ratio(self) -> float:
        """Logical over physical chunk count for the whole cycle."""
        unique = self.unique_chunks()
        return self.total_chunks() / unique if unique else 1.0
