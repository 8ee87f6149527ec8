"""Smoke and unit tests of the benchmark harness itself (tier-1, < 20 s).

``--smoke`` runs every workload at 1/100 size: the correctness gate must
pass and the output must carry exactly the metrics ``BENCHMARK.json``
declares, with their units.  The unit tests pin the generator's stream shape,
the model's duplicate watermark, open-loop timing and the compare verdicts.
"""

from __future__ import annotations

import asyncio
import json
import os
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for _path in (os.path.join(ROOT, "src"), ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from bench import compare, replay, spec  # noqa: E402
from bench.loadgen import LoadGen, Model  # noqa: E402
from bench.streams import DigestTable, IdentityStream  # noqa: E402
from bench.trace import Tracer, self_times  # noqa: E402
from repro.serving.wire import encode_frame, get_codec, read_frame  # noqa: E402

CONTRACT = spec.load_contract()
EXACT_COUNTS = ("hash_node.ram_hit_frac", "hash_node.ssd_hit_frac", "hash_node.new_frac",
                "hash_node.bloom_fp_frac", "lru.destages_per_fp",
                "hashstore.page_reads_per_lookup")


# ------------------------------------------------------------------ smoke runs
def _smoke(job):
    workload, trace = job
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "bench", "run.py"), "--workload", workload,
         "--smoke", "--seed", "5", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, stdin=subprocess.DEVNULL,
    )
    return workload, trace, done


def test_smoke_every_workload_reports_exactly_the_declared_metrics():
    jobs = [(entry["name"], trace) for entry in CONTRACT["workloads"] for trace in (0, 1)]
    with ThreadPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(_smoke, jobs))
    for workload, trace, done in results:
        assert done.returncode == 0, f"{workload} trace={trace}: {done.stderr[-800:]}"
        line = json.loads(done.stdout.strip().splitlines()[-1])
        assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
        section = "per_layer" if trace else "end_to_end"
        declared = spec.metric_units(CONTRACT, section)
        assert list(line["metrics"]) == list(declared), f"{workload}: metric names differ"
        for name, entry in line["metrics"].items():
            assert sorted(entry) == ["unit", "value"]
            assert entry["unit"] == declared[name]
            assert isinstance(entry["value"], float)
        if not trace:
            assert all(entry["value"] > 0 for entry in line["metrics"].values())
        else:
            assert os.path.exists(os.path.join(spec.OUT_DIR, f"{workload}.trace.jsonl"))
    assert not [name for name in os.listdir(spec.OUT_DIR) if name.startswith(("data-", "replay-"))]


def test_an_undeclared_metric_is_refused():
    with pytest.raises(KeyError):
        spec.shape_metrics({"fps": 1.0, "made_up": 2.0}, {"fps": "fp/s"})


def test_contract_names_the_five_workloads_and_a_setup_metric():
    assert [entry["name"] for entry in CONTRACT["workloads"]] == list(spec.WORKLOADS)
    assert CONTRACT["paths"] == ["bench"]
    setup = [m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert all(0 < m["bound"] <= 0.25 for m in CONTRACT["end_to_end"])


# ---------------------------------------------------------------- exact counts
def test_exact_counts_repeat_for_a_seed_and_move_with_it():
    workload = spec.smoke(spec.WORKLOADS["svc_open_mixed"])

    def counts(seed):
        layers, violations = replay.run(workload, seed, Tracer(True), batches=12)
        assert not violations
        return [layers[name] for name in EXACT_COUNTS]

    first = counts(1)
    assert counts(1) == first
    assert counts(2) != first
    assert first[1] > 0  # duplicates beyond the RAM tier reach the store


# ------------------------------------------------------------------- generator
def test_stream_duplicate_fraction_distinct_count_and_determinism():
    stream = IdentityStream(seed=7, dup_fraction=0.5, batch_size=256, known=1000)
    batches = [stream.next_batch() for _ in range(40)]
    offered = [identity for batch in batches for identity in batch.identities]
    new = sum(batch.new_count for batch in batches)
    assert len(offered) == 40 * 256
    assert abs(new / len(offered) - 0.5) < 0.03
    # New identities are exactly the next integers: distinct count == known.
    assert stream.known == 1000 + new == batches[-1].known_after
    assert len(set(offered) | set(range(1000))) == stream.known
    again = IdentityStream(seed=7, dup_fraction=0.5, batch_size=256, known=1000)
    assert [again.next_batch().identities for _ in range(40)] == [b.identities for b in batches]
    other = IdentityStream(seed=8, dup_fraction=0.5, batch_size=256, known=1000)
    assert other.next_batch().identities != batches[0].identities


def test_stream_redraws_uniformly_from_everything_known():
    # Hot/cold: with 2000 known identities and almost no growth, redraws
    # cover the whole known range evenly, old and recent halves alike.
    stream = IdentityStream(seed=3, dup_fraction=0.95, batch_size=256, known=2000)
    draws = []
    for _ in range(60):
        batch = stream.next_batch()
        draws += [i for i in batch.identities if i < batch.first_new]
    old_half = sum(1 for identity in draws if identity < 1000)
    assert 0.35 < old_half / len(draws) < 0.5  # a little under half: the range keeps growing
    assert max(draws) > 2000  # identities introduced during the run are redrawn too
    empty = IdentityStream(seed=3, dup_fraction=0.95, batch_size=8)
    assert empty.next_batch().identities[0] == 0  # nothing known yet: the first is new


def test_digest_table_matches_the_repos_synthetic_fingerprint():
    from repro.dedup.fingerprint import synthetic_fingerprint

    table = DigestTable()
    table.extend_to(5)
    assert table.hex[3] == synthetic_fingerprint(3).digest.hex()
    assert table.blob([0, 4]) == table.hex[0] + table.hex[4]


def test_model_watermark_only_advances_over_contiguous_acks():
    stream = IdentityStream(seed=1, dup_fraction=0.0, batch_size=4)
    first, second, third = (stream.next_batch() for _ in range(3))
    model = Model(known=0)
    all_new = {"n": 4, "new": 4, "v": "0"}
    model.ack(second, all_new, 0)
    assert model.acked_below == 0  # batch 0 is still in flight
    model.ack(first, all_new, 0)
    assert model.acked_below == second.known_after
    # Re-offering batch 0's digests now must come back all duplicate.
    must_dup = first.must_be_duplicate_mask(model.acked_below)
    assert must_dup == 0b1111
    model.ack(third, {"n": 4, "new": 2, "v": "3"}, 0b1111)
    assert any("came back new" in text for text in model.violations)
    model.check_totals()
    assert any("sum(new)" in text for text in model.violations)


# -------------------------------------------------------------- open-loop timing
class _StallingStream(IdentityStream):
    """Blocks the generator once, so the following sends go out late."""

    def next_batch(self):
        if self.batches == 3:
            time.sleep(0.08)
        return super().next_batch()


def test_open_loop_counts_rtt_from_the_due_time_when_a_send_is_late():
    codec = get_codec("json")

    async def serve(reader, writer):
        while True:
            message = await read_frame(reader, codec)
            if message is None:
                break
            count = len(message["d"]) // 40
            writer.write(encode_frame(
                {"t": "reply", "id": message["id"], "ok": True, "v": "0", "n": count,
                 "new": count}, codec))
        writer.close()

    async def scenario():
        server = await asyncio.start_server(serve, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        stream = _StallingStream(seed=1, dup_fraction=0.0, batch_size=16)
        gen = LoadGen(port, stream, DigestTable(), Model(known=0), Tracer(False))
        await gen.open(2)
        try:
            # 16 fingerprints every 10 ms for 0.1 s: ten batches.
            return await gen.run_open(rate_fps=1600, seconds=0.1), gen.model
        finally:
            await gen.close()
            server.close()
            await server.wait_closed()

    result, model = asyncio.run(scenario())
    assert result.offered_batches == 10 and result.failed_batches == 0
    assert not model.violations
    # The stall made batch 3 (and the ones queued behind it) late; their RTT
    # includes that wait because it is measured from the due time.
    assert result.max_late_s > 0.05
    assert result.rtts_s[-1] >= result.max_late_s
    assert result.rtts_s[0] < 0.05  # batches before the stall were on time


# ------------------------------------------------------------------------ spans
def test_self_time_subtracts_child_spans():
    tracer = Tracer(True)
    parent = tracer.add("parent", 1, 0, 0, 100)
    tracer.add("child", 1, parent, 10, 40)
    tracer.add("child", 1, parent, 50, 70)
    assert self_times(tracer.spans) == {"parent": (1, 50), "child": (2, 50)}


# ---------------------------------------------------------------------- compare
def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(steady, [v * 1.02 for v in steady], "lower", 0.10)[0] == "within bound"
    assert compare.verdict(steady, [v * 1.30 for v in steady], "lower", 0.10)[0] == "regressed"
    assert compare.verdict(steady, [v * 0.70 for v in steady], "higher", 0.10)[0] == "regressed"
    assert compare.verdict(steady, [v * 1.30 for v in steady], "higher", 0.10)[0] == "within bound"
    noisy = [80.0, 120.0, 95.0, 130.0, 70.0]
    assert compare.verdict(noisy, [v * 1.05 for v in noisy], "lower", 0.10)[0] == "unresolved"
