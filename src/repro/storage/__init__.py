"""Storage substrate: device models, caches, filters, and persistent stores."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".bloom": ("BloomFilter", "optimal_parameters"),
    ".cuckoo": ("CuckooHashTable", "CuckooInsertError"),
    ".devices": ("DeviceSpec", "StorageDevice", "RAM_SPEC", "SSD_SPEC", "HDD_SPEC",
                 "make_ram", "make_ssd", "make_hdd"),
    ".hashstore": ("FileHashStore", "IOOperation", "SSDHashStore"),
    ".lru": ("LRUCache",),
    ".object_store": ("CloudObjectStore", "StoredObject"),
    ".snapshot": ("SnapshotError", "discard_staged", "read_snapshot", "write_snapshot"),
})
