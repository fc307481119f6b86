"""The process fan-out: how ``fanout.fan_out`` deals tasks, takes back
what a child did not send, and reaps its children; and that no other module
forks, kills or pickles."""

import ast
import contextlib
import os
import pickle
import time
from pathlib import Path

import pytest

from stlboost import fanout
from helpers import cut_dump, forbid_forks


def _made(task):
    """A task's result, with the process that made it."""
    return task, os.getpid()


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_fan_out_deals_tasks_round_robin(monkeypatch, cpus):
    """With more tasks than workers, task k is made by worker k mod the
    workers, worker 0 being this process, and results come in task order."""
    monkeypatch.setattr(fanout, "_cpus", lambda: cpus)
    with fanout.fan_out(_made, range(8)) as results:
        got = list(results)
    assert [task for task, _ in got] == list(range(8))
    makers = [pid for _, pid in got]
    assert makers == [makers[k % cpus] for k in range(8)]
    assert makers[0] == os.getpid() and len(set(makers)) == cpus


@pytest.mark.parametrize("size", [0, 1 << 17])
@pytest.mark.parametrize("fault", ["raises", "cut-short"])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_tasks_a_child_did_not_send_are_made_here(monkeypatch, k, fault, size):
    """A child that raises on its k-th task, or exits halfway through
    pickling its result, leaves that task and its later ones to this
    process; results of ``size`` bytes fill the pipe before the cut."""
    monkeypatch.setattr(fanout, "_cpus", lambda: 2)
    parent = os.getpid()
    if fault == "cut-short":
        monkeypatch.setattr(pickle, "dump", cut_dump(k))

    def work(task):
        if fault == "raises" and os.getpid() != parent and task == 2 * k + 1:
            raise RuntimeError("child")
        return _made(task) + (bytes(size),)

    with fanout.fan_out(work, range(6)) as results:
        got = list(results)
    assert [task for task, _, _ in got] == list(range(6))
    assert all(len(padding) == size for _, _, padding in got)
    here = [task for task, pid, _ in got if pid == parent]
    assert here == sorted({0, 2, 4} | set(range(2 * k + 1, 6, 2)))


@pytest.mark.parametrize("leave", ["break", "raise"])
def test_leaving_a_fan_out_early_reaps_its_children(monkeypatch, leave):
    """Leaving the block at the first result, while the children still
    work, kills and reaps them and closes their pipes."""
    monkeypatch.setattr(fanout, "_cpus", lambda: 3)
    parent = os.getpid()

    def work(task):
        if os.getpid() != parent:
            time.sleep(60)
        return task

    fds = os.listdir("/dev/fd")
    start = time.monotonic()
    with contextlib.suppress(RuntimeError):
        with fanout.fan_out(work, range(6)) as results:
            for _ in results:
                if leave == "raise":
                    raise RuntimeError("left")
                break
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert os.listdir("/dev/fd") == fds
    assert time.monotonic() - start < 30  # the sleeping children were killed


@pytest.mark.parametrize("cpus, tasks", [(1, 5), (3, 1), (3, 0)])
def test_fan_out_forks_nothing_for_one_worker(monkeypatch, cpus, tasks):
    """At one CPU, or with one task or none, every task is made here."""
    monkeypatch.setattr(fanout, "_cpus", lambda: cpus)
    forbid_forks(monkeypatch)
    with fanout.fan_out(_made, range(tasks)) as results:
        assert list(results) == [_made(task) for task in range(tasks)]


FORK_NAMES = {"os.fork", "os.kill", "pickle"}


def _process_names(source: str) -> set[str]:
    """The names of ``FORK_NAMES`` that ``source`` imports or reads."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            names.add(f"{node.value.id}.{node.attr}")
    return names & FORK_NAMES


def test_only_fanout_forks_kills_or_pickles():
    """``os.fork``, ``os.kill`` and ``pickle`` are used in ``fanout.py``
    alone: every other module spreads its work through ``fan_out``."""
    package = Path(fanout.__file__).parent
    users = {path.name: _process_names(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}
    assert {name: used for name, used in users.items() if used} == {"fanout.py": FORK_NAMES}
