import threading
import time

import pytest

from abmix import experiment


class Schedule:
    """Hooks on the units run_experiment's two threads take: records each
    take by phase ("counting", a chunk drawn and counted by `_count_chunk`, or
    "bootstrap", a block taken by `_Stream.take`) and thread ("caller" or
    "worker"), and can slow one thread or make one take fail.

    `delay[phase, thread]` is slept after each take, outside any lock;
    `fault = (phase, thread, n, exception)` raises the exception in place of
    that thread's n-th take of the phase.  `events` lists
    (phase, thread, "take" | "raise") in the order they happened.
    """

    def __init__(self, monkeypatch):
        self.events = []
        self.delay = {}
        self.fault = None
        self._attempts = {}
        self._lock = threading.Lock()

        def hooked(phase, take):
            def taken(*args):
                thread = "worker" if threading.current_thread().name == "abmix-worker" else "caller"
                key = (phase, thread)
                with self._lock:
                    self._attempts[key] = self._attempts.get(key, 0) + 1
                    if self.fault is not None and self.fault[:3] == (*key, self._attempts[key]):
                        self.events.append((*key, "raise"))
                        raise self.fault[3]
                    unit = take(*args)
                    self.events.append((*key, "take"))
                if key in self.delay:
                    time.sleep(self.delay[key])
                return unit

            return taken

        monkeypatch.setattr(experiment, "_count_chunk", hooked("counting", experiment._count_chunk))
        monkeypatch.setattr(experiment._Stream, "take", hooked("bootstrap", experiment._Stream.take))

    def reset(self) -> None:
        self.events.clear()
        self._attempts.clear()

    def takers(self, phase: str) -> set[str]:
        return {thread for p, thread, what in self.events if p == phase and what == "take"}

    def takes_after_the_fault(self, thread: str) -> int:
        """Takes by `thread` after the fault was raised on the other thread."""
        raised = self.events.index((*self.fault[:2], "raise"))
        return sum(1 for _, t, what in self.events[raised:] if t == thread and what == "take")

    @staticmethod
    def workers_alive() -> list[threading.Thread]:
        return [thread for thread in threading.enumerate() if thread.name == "abmix-worker"]


@pytest.fixture
def schedule(monkeypatch):
    return Schedule(monkeypatch)
