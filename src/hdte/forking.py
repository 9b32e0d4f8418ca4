"""Work shared with forked children over pipes: the one place that forks.

A CSV load parses the parts of a large data block in children
(:func:`hdte.data.load_csv`), and a multi-split runs shares of its splits in
them (:func:`hdte.inference.multi_split`). Each caller passes a writer that
a child runs on its pipe and a reader the parent runs on all of them, so
the forking, reaping and killing below never depend on the caller.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import signal
import sys
from typing import Callable, TypeVar

__all__ = ["cpu_count", "single_threaded", "fill", "run_forked"]

T = TypeVar("T")


def cpu_count() -> int:
    """The CPUs of this process's affinity set (``taskset`` limits them);
    1 off Linux, where no work is forked."""
    return len(os.sched_getaffinity(0)) if sys.platform.startswith("linux") else 1


def single_threaded() -> bool:
    """Whether this process runs one thread and is not a ``multiprocessing``
    worker. A fork copies only the calling thread, so a lock another thread
    holds stays locked in the child, and a BLAS thread pool is shut down and
    started again around each fork; a pool's workers, which already share
    the CPUs, fork nothing more of their own."""
    return (multiprocessing.parent_process() is None
            and len(os.listdir("/proc/self/task")) == 1)


def fill(fd: int, out) -> bool:
    """Read the bytes of the C-ordered buffer ``out`` from the pipe ``fd``;
    ``False`` where the pipe ends first."""
    view = memoryview(out).cast("B")
    while view:
        got = os.readv(fd, [view])
        if not got:
            return False
        view = view[got:]
    return True


def run_forked(count: int, write: Callable[[int, int], None],
               read: Callable[[list[int]], T | None]) -> T | None:
    """``read(fds)`` over the pipes of ``count`` forked children, or
    ``None`` where it returns ``None`` or a pipe or a fork fails
    (``OSError``). Linux only: callers fork where :func:`cpu_count` is 2 or
    more.

    Child ``k`` closes the read ends it inherited and binds itself, where
    it can, to the ``k + 1``-th CPU after the parent's, cyclically in the
    affinity set: a scheduler that does not balance load leaves a forked
    child on its parent's CPU. It then calls ``write(k, fd)`` with the write
    end of its own pipe and leaves through ``os._exit`` in a ``finally``,
    whether ``write`` returns or raises: it never returns into the caller's
    frames and never flushes the stdio buffers it inherited. A child that
    raises or dies leaves its pipe short, which ``read`` sees as an early
    end (:func:`fill`). The parent closes each write end once the child is
    forked, so a pipe ends when its child does; ``fds`` are the read ends in
    child order. However ``read`` ends (a result, an error, an interrupt),
    the parent then kills every child and reaps it, so none outlives the
    call; a child that has already exited takes the signal harmlessly until
    it is reaped.
    """
    pids, reads = [], []
    try:
        cpus = sorted(os.sched_getaffinity(0))
        with open("/proc/self/stat") as stat:   # field 39, the CPU this process is on
            here = int(stat.read().rsplit(")", 1)[1].split()[36])
        first = cpus.index(here) + 1 if here in cpus else 0
        for k in range(count):
            r, w = os.pipe()
            reads.append(r)
            try:
                pid = os.fork()
                if pid == 0:
                    try:
                        for fd in reads:
                            os.close(fd)
                        with contextlib.suppress(OSError):
                            os.sched_setaffinity(0, {cpus[(first + k) % len(cpus)]})
                        write(k, w)
                    finally:
                        os._exit(0)
            finally:
                os.close(w)
            pids.append(pid)
        return read(reads)
    except OSError:
        return None
    finally:
        for r in reads:
            os.close(r)
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
