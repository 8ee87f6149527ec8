"""Tests for the cloud object store."""

from __future__ import annotations

import hashlib

import pytest

from repro.storage.object_store import CloudObjectStore


class TestCloudObjectStore:
    def test_put_and_get(self):
        store = CloudObjectStore()
        assert store.put(b"key1", b"data") is True
        assert store.get(b"key1") == b"data"
        assert b"key1" in store
        assert len(store) == 1

    def test_duplicate_put_bumps_reference_count(self):
        store = CloudObjectStore()
        store.put(b"key", b"data")
        assert store.put(b"key", b"data") is False
        assert store.reference_count(b"key") == 2
        assert len(store) == 1

    def test_release_reclaims_when_last_reference_dropped(self):
        store = CloudObjectStore()
        store.put(b"key", b"data")
        store.add_reference(b"key")
        assert store.release(b"key") is True
        assert b"key" in store
        assert store.release(b"key") is True
        assert b"key" not in store

    def test_release_missing_returns_false(self):
        assert CloudObjectStore().release(b"nope") is False

    def test_add_reference_missing_returns_false(self):
        assert CloudObjectStore().add_reference(b"nope") is False

    def test_total_bytes_tracks_physical_size(self):
        store = CloudObjectStore()
        store.put(b"a", b"x" * 100)
        store.put(b"b", b"y" * 50)
        store.put(b"a", b"x" * 100)  # duplicate: no extra bytes
        assert store.total_bytes() == 150

    def test_content_verification(self):
        store = CloudObjectStore(verify_content=True)
        data = b"verified chunk"
        store.put(hashlib.sha1(data).digest(), data)
        with pytest.raises(ValueError):
            store.put(b"\x00" * 20, data)

    def test_get_missing_returns_none(self):
        assert CloudObjectStore().get(b"missing") is None

    def test_transfer_time_scales_with_size(self):
        store = CloudObjectStore(base_latency=0.01, bandwidth=1e6)
        assert store.transfer_time(0) == pytest.approx(0.01)
        assert store.transfer_time(1_000_000) == pytest.approx(1.01)
