"""The memo tables every check reads, owned by one object.

A ``Tables`` holds the Stirling triangles and the degenerate harmonic
row behind one lock, plus the triangle faults it was built with; the
faults never change.  Code finds the instance in force with
``current()``: a shared, fault-free default, or whatever a
``use(tables)`` block installed for its thread or task.  A faulted
instance shares no store with the default, so a self-test cannot corrupt
a concurrent library user.  A suite run's shared values, built once from
its plan by ``run``, are read with ``shared``.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from contextvars import ContextVar

from .kernel import LambdaPoly

# Keys in the triangle store, the oldest going first.
MAX_KEYS = 64


class Tables:
    """Memo stores for triangles and the harmonic row, plus fixed triangle faults."""

    def __init__(self, faults=None):
        self.faults = dict(faults or {})  # (family id, r, n, k) -> LambdaPoly added there
        self.lock = threading.RLock()
        self.triangles = {}  # (family id, r) -> stirling.Triangle
        self.harmonic = [LambdaPoly.zero(), LambdaPoly.one()]  # H_0, H_1, ... as far as read

    def remember(self, key, triangle):
        """Store ``triangle`` under ``key``, evicting the oldest key when full."""
        with self.lock:
            store = self.triangles
            store.pop(key, None)
            if len(store) >= MAX_KEYS:
                del store[next(iter(store))]
            store[key] = triangle
        return triangle


_CURRENT: ContextVar[Tables] = ContextVar("qlambda_tables", default=Tables())


def current() -> Tables:
    """The instance in force: the shared default unless a ``use`` block set another."""
    return _CURRENT.get()


@contextmanager
def use(tables: Tables):
    """Make ``tables`` the current instance inside the block (this context only)."""
    token = _CURRENT.set(tables)
    try:
        yield tables
    finally:
        _CURRENT.reset(token)


_RUN: ContextVar[dict | None] = ContextVar("qlambda_run", default=None)


def shared(key, build, *args):
    """The run's value under ``key`` in a ``run`` block, whose plan must list it; else
    ``build(*args)``."""
    store = _RUN.get()
    if store is not None and key not in store:
        raise LookupError(f"{key!r} is not in the run's plan")
    return build(*args) if store is None else store[key]


@contextmanager
def run(plan):
    """Build each ``(key, build, *args)`` of ``plan`` in order, for ``shared`` to read in the
    block; a build reads only the keys before it.  Nothing outlives the block."""
    token = _RUN.set({})
    try:
        for key, build, *args in plan:
            _RUN.get()[key] = build(*args)
        yield
    finally:
        _RUN.reset(token)
