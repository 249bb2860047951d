"""A toy two-layer program for the wrapper tests: a client call that hands
work to a thread named like a serving worker, as the front end does."""

from __future__ import annotations

import threading
import time


def leaf(seconds: float) -> float:
    time.sleep(seconds)
    return seconds


class Service:
    def handle(self, seconds: float) -> float:
        return leaf(seconds) + leaf(seconds)

    def submit(self, seconds: float) -> float:
        """Run :meth:`handle` on a worker thread and wait for it."""
        out: list[float] = []
        worker = threading.Thread(
            target=lambda: out.append(self.handle(seconds)), name="serving-worker-0"
        )
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        return out[0]
