"""Quickstart: use SHHC as a deduplicating backup library.

Builds a 4-node hybrid hash cluster and a cloud object store in-process,
backs up two clients' data through one directory archiver (one dedup
domain) and shows how deduplication cuts both upload traffic and stored
bytes.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

import os
import random

from repro import ClusterConfig, HashNodeConfig, SHHCCluster
from repro.dedup import DirectoryArchiver
from repro.storage import CloudObjectStore


def make_laptop_image(seed: int, size_chunks: int = 512, chunk_size: int = 8192) -> bytes:
    """Synthesise a 'disk image': mostly shared OS bytes plus user data."""
    shared = random.Random(0)          # same OS files on every laptop
    personal = random.Random(seed)     # user-specific files
    chunks = []
    for index in range(size_chunks):
        rng = shared if index < size_chunks * 3 // 4 else personal
        chunks.append(bytes(rng.getrandbits(8) for _ in range(chunk_size)))
    return b"".join(chunks)


def main() -> None:
    cluster = SHHCCluster(ClusterConfig(
        num_nodes=4,
        node=HashNodeConfig(ram_cache_entries=100_000, bloom_expected_items=1_000_000),
    ))
    store = CloudObjectStore()
    archiver = DirectoryArchiver(cluster, store)

    print("SHHC quickstart: backing up two laptops that share most of their data\n")

    alice_image = make_laptop_image(seed=1)
    bob_image = make_laptop_image(seed=2)

    alice = archiver.backup_files({"alice-laptop/disk.img": alice_image}, "alice-day-1")
    print(f"alice: {alice.chunks_seen} chunks, "
          f"{alice.chunks_uploaded} uploaded, "
          f"bandwidth savings {alice.dedup_savings:.0%}")

    bob = archiver.backup_files({"bob-laptop/disk.img": bob_image}, "bob-day-1")
    print(f"bob:   {bob.chunks_seen} chunks, "
          f"{bob.chunks_uploaded} uploaded, "
          f"bandwidth savings {bob.dedup_savings:.0%}  "
          f"(the shared OS chunks were already in the cloud)")

    # A second, nearly unchanged backup of alice's laptop.
    alice_image_v2 = alice_image[:-8192 * 8] + os.urandom(8192 * 8)
    day2 = archiver.backup_files({"alice-laptop/disk.img": alice_image_v2}, "alice-day-2")
    print(f"alice (day 2): {day2.chunks_uploaded} of {day2.chunks_seen} chunks uploaded")

    logical = alice.bytes_scanned + bob.bytes_scanned + day2.bytes_scanned
    physical = store.total_bytes()
    print("\ncluster state")
    print(f"  distinct fingerprints stored : {len(cluster):,}")
    print(f"  logical bytes backed up      : {logical:,}")
    print(f"  physical bytes in the cloud  : {physical:,}")
    print(f"  dedup ratio                  : {logical / physical:.2f}x")
    print("  hash entries per node        :")
    for node, share in sorted(cluster.storage_distribution().fractions().items()):
        print(f"    {node}: {share:.1%}")
    assert archiver.restore_file("alice-day-2", "alice-laptop/disk.img") == alice_image_v2


if __name__ == "__main__":
    main()
