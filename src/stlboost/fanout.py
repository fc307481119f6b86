"""Process fan-out: the one way work is spread over CPUs.

``fan_out`` serves the loader's parts, the writer's chunks, ``stlboost
cv``'s folds and the lockstep batches of a node's search
(``tree.optimize_primitive``).  It deals them round-robin to this process
and to one forked child per further CPU (``_cpus``), and each child pickles
its results back through a pipe.  A task a child did not send is run here,
and no child outlives the ``with`` block.  Fan-outs do not nest: one
started inside a fan-out of several workers, in this process or in a
child, runs every task here, so a cv fold's searches never fork.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
import warnings
from contextlib import contextmanager
from functools import partial

_fanning = False  # within a fan_out of several workers, or in one of its children


def worker_count(count: int) -> int:
    """How many workers ``fan_out`` deals ``count`` tasks to, for callers
    that cut their work first: one per CPU (``_cpus``), at most ``count``,
    and one inside a fan-out of several workers or in one of its children."""
    return 1 if _fanning else min(_cpus(), count)


def _cpus() -> int:
    """How many workers ``fan_out`` deals a load's, a save's, a cv's or a
    node search's tasks to: this process and one child per further CPU
    (``fan_out`` itself takes one inside another fan-out of several).

    1 without ``os.fork`` or ``os.sched_getaffinity``, and while another
    Python thread runs: a forked child has only the thread that forked it,
    and a lock another thread held stays locked in the child.
    """
    if (not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity")
            or threading.active_count() > 1):
        return 1
    return len(os.sched_getaffinity(0))


def _fork(send) -> tuple[int, int]:
    """Fork a child that runs ``send`` on the write end of a new pipe, as a
    binary file, and leaves through ``os._exit``; returns the child's pid
    and the pipe's read end.
    """
    reader, writer = os.pipe()
    parent = os.getpid()
    status = 1
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns in fork when the OS lists other threads of
            # the process.  None of them is a Python thread (_cpus), and
            # OpenBLAS, whose pool they can be, restarts it in the child
            # from its pthread_atfork handlers.
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:
            os.close(reader)
            with open(writer, "wb") as pipe:
                send(pipe)
            status = 0
    except BaseException:
        if os.getpid() == parent:
            os.close(reader)
        raise
    finally:
        if os.getpid() != parent:
            # The child never returns into the caller's stack, and exits
            # without flushing the buffers it copied from the parent.
            os._exit(status)
        os.close(writer)
    return pid, reader


@contextmanager
def fan_out(work, tasks):
    """For a ``with`` block, an iterator of ``work(task)`` for each of
    ``tasks``, in task order.

    The tasks are dealt round-robin to this process and to one forked child
    per further CPU (``_cpus``), at most one worker per task.  A child runs
    its tasks in order and pickles each result through a pipe as soon as it
    has it; this process runs its own tasks as the iterator reaches them.
    A task whose child sent nothing for it (the child raised, died or was
    cut short, or could not be forked) is run here, and so are that
    child's later tasks.  Every child is reaped when the block exits,
    however it exits, and one still running is killed.

    Fan-outs do not nest: while a fan-out of several workers is active,
    and in its children, a fan-out runs every task here and forks nothing,
    so the CPUs an outer fan-out fills get no further processes.

    A context manager, not a generator: a generator's ``finally`` waits for
    it to be collected, which a traceback holding the caller's frame defers.
    """
    global _fanning
    tasks = list(tasks)
    workers = worker_count(len(tasks))
    children = []  # (pid, pipe) of workers 1, 2, ...

    def results():
        streams = {worker: open(pipe, "rb", closefd=False)
                   for worker, (_, pipe) in enumerate(children, 1)}
        for index, task in enumerate(tasks):
            worker = index % workers
            if worker in streams:
                try:
                    result = pickle.load(streams[worker])
                except (EOFError, pickle.UnpicklingError):  # the child sent nothing more
                    del streams[worker]
            if worker not in streams:
                result = work(task)
            yield result

    outer, _fanning = _fanning, _fanning or workers > 1  # a child keeps it set
    try:
        for worker in range(1, workers):
            try:
                children.append(_fork(partial(_send, work, tasks[worker::workers])))
            except OSError:  # no process or pipe to be had
                break
        yield results()
    finally:
        _fanning = outer
        for pid, pipe in children:  # one still running is no longer wanted
            os.close(pipe)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _send(work, tasks, pipe) -> None:
    """A child's side of ``fan_out``: each task's result, pickled as soon as
    it is made."""
    for task in tasks:
        pickle.dump(work(task), pipe, pickle.HIGHEST_PROTOCOL)
        pipe.flush()
