"""``repro serve`` with the shard queues watched, for the traced run.

Usage: ``python3 perfbench/traced_serve.py serve --port 0 ...`` (the
arguments of ``python -m repro``).  Wraps the store's submission path
so the deepest shard queue seen is published as the registry gauge
``perfbench.shard_queue_depth_max``, which ``GET /v1/stats`` returns
with the program's own metrics.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.cli import main  # noqa: E402
from repro.obs import REGISTRY  # noqa: E402
from repro.service.shards import ShardedPostboxStore  # noqa: E402

_DEPTH = REGISTRY.gauge("perfbench.shard_queue_depth_max")
_submit = ShardedPostboxStore._submit


def _watched_submit(self, owner, fn):
    future = _submit(self, owner, fn)
    depth = self._shards[self.shard_index(owner)].queue.qsize()
    if depth > _DEPTH.value:
        _DEPTH.set(depth)
    return future


ShardedPostboxStore._submit = _watched_submit

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
