import multiprocessing
import os
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

from bwopt import parallel
from bwopt.parallel import share

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture()
def forks(monkeypatch):
    """Records every os.fork this process makes."""
    made = []
    real_fork = os.fork

    def counting_fork():
        made.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return made


def with_cpus(monkeypatch, n):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: n)


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_share_keeps_item_order(monkeypatch, forks, cpus):
    with_cpus(monkeypatch, cpus)
    items = list(range(11))
    out = share(lambda x: (x * x, os.getpid()), items)
    assert [value for value, _ in out] == [x * x for x in items]
    # this process computed items[0::W] and forked children the rest; a child
    # that finishes its part early may also take another child's part
    pids = [pid for _, pid in out]
    for k in range(cpus):
        assert (set(pids[k::cpus]) == {os.getpid()}) == (k == 0)
    assert len(forks) == cpus - 1
    forks.clear()
    assert share(lambda x: -x, [5, 6]) == [-5, -6]
    assert len(forks) == min(2, cpus) - 1
    assert share(lambda x: x, []) == []
    assert multiprocessing.active_children() == []


def test_share_on_one_cpu_imports_no_multiprocessing():
    code = (
        "import sys\n"
        "from bwopt import parallel\n"
        "parallel.usable_cpus = lambda: 1\n"
        "assert parallel.share(abs, [-1, 2]) == [1, 2]\n"
        "assert 'multiprocessing' not in sys.modules\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_nested_share_runs_in_process(monkeypatch, forks):
    with_cpus(monkeypatch, 2)

    def inner(x):
        return share(lambda y: (y, os.getpid()), [x, x + 1])

    out = share(inner, [0, 10])
    assert [[y for y, _ in row] for row in out] == [[0, 1], [10, 11]]
    assert {pid for _, pid in out[0]} == {os.getpid()}
    assert len({pid for _, pid in out[1]}) == 1  # the child forked no grandchild
    assert len(forks) == 1
    assert parallel._JOB is None


def test_share_raises_when_a_child_dies(monkeypatch):
    with_cpus(monkeypatch, 2)
    parent = os.getpid()

    def fn(x):
        if os.getpid() != parent:
            os._exit(3)
        return x

    with pytest.raises(BrokenProcessPool):
        share(fn, [1, 2, 3])
    assert multiprocessing.active_children() == []
    assert share(abs, [-1, -2]) == [1, 2]  # usable again afterwards


def test_share_reraises_a_child_exception(monkeypatch):
    with_cpus(monkeypatch, 2)

    def fn(x):
        if x == 2:
            raise ValueError(f"bad item {x}")
        return x

    with pytest.raises(ValueError, match="bad item 2"):
        share(fn, [1, 2, 3])
    assert multiprocessing.active_children() == []
