"""Optional numpy backend detection for the columnar data-plane kernels.

numpy is an *optional* ``perf`` extra (``pip install repro-shhc[perf]``),
never a hard dependency: the columnar bloom route in
:mod:`repro.storage.bloom` and the columnar fused kernel in
:mod:`repro.core.bucket_kernel` each have a byte-identical pure-Python
packed path to fall back to.  This module is the single place the decision
is made, so storage, core, serving, and benchmarks all agree on which
backend a process runs.

``REPRO_FORCE_NO_NUMPY=1`` (environment)
    Pretend numpy is not importable even when it is.  Used by the test
    suite's no-numpy leg and handy for A/B benchmarking; honoured at
    import time, so set it before the first ``repro`` import.

The resolved state is exposed as module attributes:

* ``np`` -- the numpy module, or ``None`` when absent/suppressed;
* ``HAVE_NUMPY`` -- ``np is not None``;
* ``NUMPY_MIN_BATCH`` -- the columnar crossover (a constant);
* ``backend_name()`` -- ``"numpy"`` or ``"python-packed"``, the string
  reported in worker ``/stats`` and ``ScenarioResult`` metrics.
"""

from __future__ import annotations

import os

__all__ = ["np", "HAVE_NUMPY", "NUMPY_MIN_BATCH", "backend_name"]

np = None
if os.environ.get("REPRO_FORCE_NO_NUMPY", "") not in ("1", "true", "yes"):
    try:  # pragma: no cover - exercised via the no-numpy subprocess leg
        import numpy as np  # type: ignore[no-redef]
    except ImportError:
        np = None

HAVE_NUMPY = np is not None

#: Crossover for the columnar kernels, counted in the keys a kernel will
#: actually work on.  For the bloom whole-batch calls that is the batch
#: size.  For the fused node kernels it is the number of keys that will
#: reach the **bloom stage**, not the number in the batch: the columnar
#: family prefetches bloom probes for every key it is handed, and keys the
#: RAM tier answers never use theirs, so ``HybridHashNode`` counts the
#: batch's RAM misses first (one C-level pass) and a 128-key bucket with
#: six misses stays on the exec-generated packed kernels.  Below it
#: per-key Python arithmetic beats numpy's fixed per-call overhead.
#: 64 because a batch-size sweep on the dev box (mixed 50%-duplicate
#: traffic) has the columnar path losing ~10% at 32 keys and winning from
#: 64 up, which also keeps the cluster dispatch's ~32-key per-node
#: sub-batches on the packed kernels.
NUMPY_MIN_BATCH = 64


def backend_name() -> str:
    """The data-plane backend this process resolved at import time."""
    return "numpy" if HAVE_NUMPY else "python-packed"
