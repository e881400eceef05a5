"""Serving-grade teardown of :class:`EngineSession`.

The serving layer closes sessions from shutdown paths: a second
``close()`` racing the first, and unwinds driven by asyncio
cancellation.  The contract in every case: ``close()`` returns, the
cache is dropped, and the next call recomputes the identical skyline.
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.api import EngineSession
from repro.core.filter_refine import filter_refine_sky
from repro.workloads import load


def test_double_close_is_idempotent():
    graph = load("karate")
    session = EngineSession(graph)
    first = session.refine_sky()
    session.close()
    session.close()  # second close: a no-op, not an error
    assert not session.cached
    again = session.refine_sky()
    assert again is not first
    assert again.skyline == first.skyline
    assert again.dominator == first.dominator


def test_concurrent_double_close_from_threads():
    session = EngineSession(load("karate"))
    session.refine_sky()  # fill the cache so close has work to do
    barrier = threading.Barrier(4)
    errors = []

    def racer():
        try:
            barrier.wait()
            session.close()
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=racer) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert not session.cached


def test_close_from_asyncio_cancellation_path():
    """A cancelled task whose finally closes the session unwinds cleanly."""
    graph = load("karate")
    session = EngineSession(graph)

    async def main():
        loop = asyncio.get_running_loop()
        executor = ThreadPoolExecutor(max_workers=1)
        refined = asyncio.Event()

        async def serve_one():
            try:
                await loop.run_in_executor(executor, session.refine_sky)
                refined.set()
                await asyncio.sleep(30)  # parked until cancellation
            finally:
                # The serving layer's teardown path: close() runs inside
                # a coroutine's finally during cancellation unwind.
                session.close()

        task = asyncio.create_task(serve_one())
        await asyncio.wait_for(refined.wait(), timeout=60)
        task.cancel()
        with pytest.raises(asyncio.CancelledError):
            await task
        executor.shutdown(wait=True)

    asyncio.run(main())
    assert not session.cached
    assert session.refine_sky().skyline == filter_refine_sky(graph).skyline
