"""Two names ``bench/run.py``'s ``_context()`` imports; nothing in ``src/`` does.

``bench/`` is the pinned instrument, so that import is this module's only
reason to exist (``np`` was the optional numpy module, ``backend_name()``
named the kernel family; there is one family now and it imports no numpy).
Once a ``benchmark`` PR drops the two context fields (ROADMAP item 1(c)),
delete this file.
"""

np = None


def backend_name() -> str:
    return "python-packed"
