"""Per-stage wall times and work counters of one run, for its manifest.

`main` wraps each command in `recording()`.  Inside it, code marks its
layers with `stage(name)` and adds deterministic work counts to the open
stage with `count(name, k)`.  Outside a recording neither call records
anything, so library callers pay only the call.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator

_stages: list[dict] | None = None  # the current recording's stages, in start order
_current: dict | None = None  # the open stage


@contextmanager
def recording() -> Iterator[list[dict]]:
    """Record the stages of the enclosed run into the list it yields:
    `{name, wall_s, counters}` each, in the order they started."""
    global _stages
    _stages = []
    try:
        yield _stages
    finally:
        _stages = None


@contextmanager
def stage(name: str) -> Iterator[None]:
    """Record the enclosed block as stage `name`.  Counts go to it while it
    is open; when it ends they go to the stage it was opened in again."""
    global _current
    if _stages is None:
        yield
        return
    enclosing = _current
    entry = _current = {"name": name, "wall_s": 0.0, "counters": {}}
    _stages.append(entry)
    started = time.perf_counter()
    try:
        yield
    finally:
        entry["wall_s"] = round(time.perf_counter() - started, 6)
        _current = enclosing


def count(name: str, k: int = 1) -> None:
    """Add k to counter `name` of the open stage, if any."""
    if _current is not None:
        _current["counters"][name] = _current["counters"].get(name, 0) + k
