"""Shared-memory byte buffers with a plain-``bytearray`` fallback.

The vectorized data plane can back its flat byte buffers (the bloom
filter's bit vector, the parallel-sweep trace cache) with
``multiprocessing.shared_memory`` segments so several
processes -- ``run_sweep(workers=N)`` pool workers, the serving stack's
per-node worker processes -- attach to *one* copy instead of each
rebuilding its own.  Sharing is strictly opt-in: the default everywhere
remains a private ``bytearray``, and :class:`SharedBuffer` exposes the
same buffer protocol for both backings so callers never branch.

Lifecycle rules (the part shared memory makes easy to get wrong):

* ``SharedBuffer.create`` allocates a named segment and registers it in a
  process-local registry; ``SharedBuffer.attach`` maps an existing one.
* ``close()`` unmaps the segment from this process (idempotent); a GC
  finalizer closes leaked handles so dropping the last reference never
  warns.  ``unlink()`` additionally removes the segment from the system.
* A crashed worker cannot run its own cleanup, so creators should be
  paired with :func:`cleanup_segments` in the supervising process (the
  sweep parent, the serving gateway), which unlinks every segment this
  process created plus any explicitly adopted names.  Unlinking a
  segment that is already gone is not an error.

When ``multiprocessing.shared_memory`` is unavailable (or creation fails,
e.g. ``/dev/shm`` is not writable in a locked-down container) the buffer
silently degrades to a private ``bytearray``: correctness is identical,
only the cross-process sharing is lost.
"""

from __future__ import annotations

import atexit
import weakref
from typing import Dict, Iterable, List, Optional

try:  # pragma: no cover - import probe
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - minimal builds
    _shared_memory = None  # type: ignore[assignment]

__all__ = [
    "SharedBuffer",
    "shared_memory_available",
    "cleanup_segments",
    "unlink_segment",
    "created_segment_names",
    "disown_segment",
]

#: Names of segments created by this process (for crash-safe cleanup by a
#: supervisor or the atexit hook below).  Maps name -> still-registered.
_CREATED_SEGMENTS: Dict[str, bool] = {}


def shared_memory_available() -> bool:
    """Whether real cross-process segments can be allocated here."""
    return _shared_memory is not None


def _untrack(shm) -> None:
    """Stop the resource tracker from unlinking ``shm`` at process exit.

    Worker processes publish segments that must outlive them (the sweep
    trace cache, a serving node's bloom bits surviving a respawn).  The
    stdlib resource tracker would unlink those when the *creating* process
    exits; explicit supervision (``cleanup_segments`` in the parent) owns
    deletion instead.  Best-effort: a tracker that cannot be unregistered
    merely restores the default eager cleanup.
    """
    try:  # pragma: no cover - tracker internals vary across versions
        from multiprocessing import resource_tracker

        resource_tracker.unregister(shm._name, "shared_memory")  # noqa: SLF001
    except Exception:  # noqa: BLE001 - cleanup must never raise
        pass


def _retrack(shm) -> None:
    """Balance :func:`_untrack` before ``shm.unlink()``.

    ``SharedMemory.unlink`` sends its own tracker unregister; without a
    matching register the tracker process logs a KeyError traceback.
    """
    try:  # pragma: no cover - tracker internals vary across versions
        from multiprocessing import resource_tracker

        resource_tracker.register(shm._name, "shared_memory")  # noqa: SLF001
    except Exception:  # noqa: BLE001 - cleanup must never raise
        pass


class SharedBuffer:
    """A flat writable byte buffer, shared-memory backed when possible.

    Use :meth:`create` / :meth:`attach`; the constructor is internal.
    ``buf`` is a writable ``memoryview`` (or ``bytearray`` for the
    fallback backing -- both support the same indexing, slicing, and
    in-place mutation the data plane needs).  ``name`` is ``None`` for
    private buffers, which also answers "is this actually shared?".
    """

    __slots__ = ("buf", "name", "_shm", "_finalizer", "__weakref__")

    def __init__(self, buf, name: Optional[str], shm=None) -> None:
        self.buf = buf
        self.name = name
        self._shm = shm
        if shm is not None:
            # Closing on GC keeps "dropped the last reference" from leaking
            # a mapping (and from BufferError noise at interpreter exit).
            self._finalizer = weakref.finalize(self, _close_quietly, shm)
        else:
            self._finalizer = None

    # -- construction -----------------------------------------------------------
    @classmethod
    def create(cls, size: int, name: Optional[str] = None,
               shared: bool = True) -> "SharedBuffer":
        """Allocate a zeroed buffer of ``size`` bytes.

        ``shared=False`` (or an unavailable/failed shared-memory backend)
        yields a private ``bytearray`` buffer with ``name is None``.
        Raises ``FileExistsError`` when ``name`` is given and taken --
        callers racing to publish a segment catch that and :meth:`attach`.
        """
        if size < 1:
            raise ValueError("size must be >= 1")
        if shared and _shared_memory is not None:
            try:
                if name is not None:
                    shm = _shared_memory.SharedMemory(name=name, create=True, size=size)
                else:
                    shm = _shared_memory.SharedMemory(create=True, size=size)
            except FileExistsError:
                raise
            except OSError:
                return cls(bytearray(size), None)
            _CREATED_SEGMENTS[shm.name] = True
            _untrack(shm)
            view = shm.buf[:size]
            view[:] = bytes(size)  # /dev/shm hands back zero pages, but be explicit
            return cls(view, shm.name, shm)
        return cls(bytearray(size), None)

    @classmethod
    def attach(cls, name: str, size: Optional[int] = None) -> "SharedBuffer":
        """Map an existing segment by name (``FileNotFoundError`` if absent).

        ``size`` trims the view to the payload length the creator used
        (platforms may round segments up to a page).
        """
        if _shared_memory is None:
            raise FileNotFoundError(f"shared memory unavailable; cannot attach {name!r}")
        shm = _shared_memory.SharedMemory(name=name, create=False)
        _untrack(shm)
        view = shm.buf if size is None else shm.buf[:size]
        return cls(view, shm.name, shm)

    # -- lifecycle --------------------------------------------------------------
    @property
    def is_shared(self) -> bool:
        return self._shm is not None

    def __len__(self) -> int:
        return len(self.buf)

    def close(self) -> None:
        """Unmap from this process (idempotent; the segment itself survives)."""
        shm, self._shm = self._shm, None
        if shm is not None:
            if self._finalizer is not None:
                self._finalizer.detach()
                self._finalizer = None
            self.buf = bytearray(0)  # drop the exported view before closing
            _close_quietly(shm)

    def unlink(self) -> None:
        """Remove the segment from the system (and unmap it here)."""
        name = self.name
        shm = self._shm
        self.close()
        if shm is not None and name is not None:
            _retrack(shm)
            try:
                shm.unlink()
            except FileNotFoundError:
                pass
            _CREATED_SEGMENTS.pop(name, None)


def _close_quietly(shm) -> None:
    try:
        shm.close()
    except Exception:  # noqa: BLE001 - pragma: no cover - close races are harmless
        pass


def unlink_segment(name: str) -> bool:
    """Unlink a segment by name; returns whether it existed.

    This is the crash-cleanup primitive: a supervisor that knows (or can
    derive) the names its workers publish calls this after the workers are
    gone, tolerating segments that never got created or are already gone.
    """
    if _shared_memory is None:
        return False
    try:
        shm = _shared_memory.SharedMemory(name=name, create=False)
    except FileNotFoundError:
        _CREATED_SEGMENTS.pop(name, None)
        return False
    except ValueError:
        # Created but never sized (its creator died in between): an empty
        # file cannot be mapped, so the name is unlinked without attaching.
        import _posixshmem  # only POSIX segments can be left unsized

        try:
            _posixshmem.shm_unlink("/" + name)
        except FileNotFoundError:  # pragma: no cover - unlink race
            return False
        _CREATED_SEGMENTS.pop(name, None)
        return True
    # Attaching registered the segment with the tracker; unlink() below
    # sends the matching unregister, so no _untrack dance is needed here.
    try:
        shm.unlink()
    except FileNotFoundError:  # pragma: no cover - unlink race
        pass
    finally:
        _close_quietly(shm)
    _CREATED_SEGMENTS.pop(name, None)
    return True


def created_segment_names() -> List[str]:
    """Names of segments this process created and has not yet unlinked."""
    return [name for name, live in _CREATED_SEGMENTS.items() if live]


def cleanup_segments(extra_names: Optional[Iterable[str]] = None) -> int:
    """Unlink every segment this process created (+ any adopted names).

    Returns how many segments were actually removed.  Safe to call
    multiple times and with names that never existed -- which is exactly
    what a supervisor needs after a worker crash left segments behind.
    """
    removed = 0
    for name in list(_CREATED_SEGMENTS):
        removed += unlink_segment(name)
    for name in extra_names or ():
        removed += unlink_segment(name)
    return removed


# A process that exits normally should not leave segments behind unless a
# supervisor explicitly adopted them (workers publishing for a parent call
# _untrack + rely on the parent's cleanup_segments; they also clear the
# local registry via ``disown_segment``).
def disown_segment(name: str) -> None:
    """Hand ownership of a created segment to another process.

    After this, the local atexit sweep will not unlink it; whoever adopted
    the name (usually via :func:`cleanup_segments`'s ``extra_names``) must.
    """
    _CREATED_SEGMENTS.pop(name, None)


@atexit.register
def _cleanup_at_exit() -> None:  # pragma: no cover - interpreter teardown
    cleanup_segments()
