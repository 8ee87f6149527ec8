"""Block-built ``TraceGenerator`` against the per-position reference loop.

The generator inlines the reuse-distance draw, keeps one digest per
identity and builds its ``Fingerprint`` objects a block at a time; none of
that may change a single fingerprint.  Counts straddle the block boundary
(1, one short of a block, a block, one past it) and the profile axes cover
no redundancy to nearly all, reuse distances shorter and longer than the
fresh-search radius, and any chunk size.
"""

from __future__ import annotations

import random
import time
from itertools import islice
from math import log

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.trace_generator import reference_trace
from repro.dedup.fingerprint import Fingerprint
from repro.workloads.profiles import WorkloadProfile
from repro.workloads.traces import TraceGenerator

BLOCK = TraceGenerator._BLOCK

counts = st.one_of(st.sampled_from([1, BLOCK - 1, BLOCK, BLOCK + 1]), st.integers(1, 300))
profiles = st.builds(
    WorkloadProfile,
    name=st.sampled_from(["web-server", "mail-server", "x"]),
    fingerprints=st.integers(1, 10_000),
    redundancy=st.one_of(st.sampled_from([0.0, 0.5, 0.95, 0.999]),
                         st.floats(0.0, 0.999)),
    duplicate_distance=st.one_of(st.sampled_from([1, 2, 64, 5_000]),
                                 st.floats(1.0, 10_000.0)),
    chunk_size=st.integers(1, 1 << 20),
)


@settings(max_examples=60, deadline=None)
@given(profiles, counts, st.integers(0, 2**32), st.sampled_from([None, "generation-2"]))
def test_generate_matches_the_reference_loop(profile, count, seed, identity_space):
    produced = list(TraceGenerator(profile, seed=seed, identity_space=identity_space)
                    .generate(count))
    assert produced == list(reference_trace(profile, seed, identity_space, count))
    assert all(type(fingerprint) is Fingerprint for fingerprint in produced)


def test_default_count_is_the_profile_length():
    profile = WorkloadProfile("x", BLOCK + 7, 0.6, 30.0, 4096)
    assert list(TraceGenerator(profile, seed=4).generate()) == list(reference_trace(profile, 4))


def test_inlined_exponential_draw_is_expovariate():
    """The generator writes ``Random.expovariate`` out; it must be the same
    float on whatever interpreter runs this (CI covers 3.10 and 3.12)."""
    for lambd in (1.0, 1.0 / 3.0, 1.0 / 246_253, 1.0 / 10_781.0, 7.5):
        library, inlined = random.Random(11), random.Random(11)
        for _ in range(2_000):
            assert library.expovariate(lambd) == -log(1.0 - inlined.random()) / lambd


def test_generate_stays_lazy_on_a_huge_profile():
    profile = WorkloadProfile("huge", 10**8, 0.5, 1_000.0, 8192)
    started = time.perf_counter()
    head = list(islice(TraceGenerator(profile, seed=1).generate(), 10))
    assert time.perf_counter() - started < 5.0  # one block, not 10**8 positions
    assert head == list(reference_trace(profile, 1, count=10))
