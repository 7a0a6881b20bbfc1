"""The triangle faults a computation runs under, and the values a suite run shares.

A ``Tables`` holds only triangle faults, fixed when it is built.  Code
finds the instance in force with ``current()``: a shared, fault-free
default, or whatever a ``use(tables)`` block installed for its thread or
task.  Nothing here is a memo: a faulted instance changes only what is
built under it, so a self-test cannot corrupt a concurrent library user.
A suite run's shared values, built once from its plan by ``run``, are read
with ``shared``; outside a run each reader builds what it asks for.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar


class Tables:
    """Fixed triangle faults."""

    def __init__(self, faults=None):
        self.faults = dict(faults or {})  # (family id, r, n, k) -> LambdaPoly added there


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
