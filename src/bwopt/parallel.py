"""Independent, deterministic work shared across this machine's usable CPUs.

share(fn, items) returns [fn(x) for x in items]. With W participants, this
process computes items[0::W] itself while W - 1 forked children compute
items[1::W], ..., items[W-1::W]; the results come back in item order. Every
value is computed by the same code on the same inputs as the plain loop, so
callers that fold the results in item order get the same bits either way.

W is min(len(items), usable CPUs), where usable CPUs is this process's CPU
affinity set, so taskset or a cpuset limits it. Only Linux forks; elsewhere,
and whenever W is 1, share is the plain loop in this process. A share called
inside a participant (this process's own part included) also runs in-process,
so forks never nest.

Forking is safe while the process runs no other thread: the children are
forked before the executor starts its own thread, and bwopt starts none.
"""
from __future__ import annotations

import os
import sys

# (fn, items, W) of the share in progress. Forked children inherit it, so only
# a participant index crosses the process boundary: fn may be a closure.
_JOB: tuple | None = None


def usable_cpus() -> int:
    """CPUs this process may run on; 1 where share does not fork."""
    if not sys.platform.startswith("linux"):
        return 1
    return len(os.sched_getaffinity(0))


def _part(k: int) -> list:
    fn, items, workers = _JOB
    return [fn(x) for x in items[k::workers]]


def share(fn, items) -> list:
    """[fn(x) for x in items], computed by up to usable_cpus() processes.

    A participant that dies or raises makes share raise; every child has
    exited by the time share returns or raises.
    """
    global _JOB
    items = list(items)
    workers = min(len(items), usable_cpus())
    if workers <= 1 or _JOB is not None:
        return [fn(x) for x in items]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    _JOB = (fn, items, workers)
    try:
        with ProcessPoolExecutor(workers - 1, mp_context=multiprocessing.get_context("fork")) as pool:
            futures = [pool.submit(_part, k) for k in range(1, workers)]
            parts = [_part(0)] + [f.result() for f in futures]
    finally:
        _JOB = None
    out = [None] * len(items)
    for k, part in enumerate(parts):
        out[k::workers] = part
    return out
