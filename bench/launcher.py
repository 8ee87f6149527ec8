"""Child process that boots the live service through the public serving API.

``repro serve`` cannot pass ``node_config``, so the benchmark owns this
launcher: it builds ``ServiceGateway(ServeConfig(**config))``, prints one
ready line (``{"ready": true, "port": ..., "pid": ...}``) and drains
gracefully when its stdin closes -- which also happens when the benchmark
process dies, so a crashed run leaves no service behind.
"""

from __future__ import annotations

import asyncio
import json
import os
import sys

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)


async def _serve(config: dict) -> None:
    from repro.serving import ServeConfig, ServiceGateway

    gateway = ServiceGateway(ServeConfig(**config))
    await gateway.start()
    print(json.dumps({"ready": True, "port": gateway.port, "pid": os.getpid()}), flush=True)
    loop = asyncio.get_running_loop()
    try:
        # Blocks in a thread until the parent closes our stdin.
        await loop.run_in_executor(None, sys.stdin.buffer.read)
    finally:
        await gateway.close()


if __name__ == "__main__":
    asyncio.run(_serve(json.loads(sys.argv[1])))
