"""Work shared with forked children over pipes: the one place that forks.

A CSV load parses the parts of a large data block in children
(:func:`hdte.data.load_csv`), and a CSV write formats all but the first row
part of a large file in them (:func:`hdte.data.write_csv`); a multi-split
runs shares of its splits, and an experiment shares of its replicates, in
them (:func:`run_shared`). Each caller of :func:`run_forked` passes a writer
that a child runs on its pipe and a reader the parent runs on all of them,
so the forking, reaping and killing below never depend on the caller.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import signal
import sys
from typing import Callable, TypeVar

T = TypeVar("T")

# Set in a forked child, and in its parent until the children are reaped
_sharing = False


def cpu_count() -> int:
    """The CPUs of this process's affinity set (``taskset`` limits them);
    1 off Linux, where no work is forked."""
    return len(os.sched_getaffinity(0)) if sys.platform.startswith("linux") else 1


def single_threaded() -> bool:
    """Whether this process runs one thread. A fork copies only the calling
    thread, so a lock another thread holds stays locked in the child, and a
    BLAS thread pool is shut down and started again around each fork."""
    return len(os.listdir("/proc/self/task")) == 1


def share_count(count: int) -> int:
    """How many processes share ``count`` pieces of work that call BLAS: one
    per CPU of the affinity set, at most ``count``, in a process that runs
    one thread and is not already sharing (so forks never nest); else 1."""
    k = min(cpu_count(), count)
    return k if k > 1 and not _sharing and single_threaded() else 1


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
    it is reaped. Until then, here and in the children, this process counts
    as sharing (:func:`share_count`).
    """
    global _sharing
    pids, reads, outer = [], [], _sharing
    _sharing = True
    try:
        cpus = sorted(os.sched_getaffinity(0))
        with open("/proc/self/stat", "rb") as stat:   # field 39, the CPU this process is on
            here = int(stat.read().rsplit(b")", 1)[1].split()[36])
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
        _sharing = outer


def run_shared(count: int, k: int, run: Callable[[range], list]) -> list:
    """The results of ``count`` pieces of work in order, from ``run(share)``
    over the shares ``range(i, count, k)``: share 0 runs in this process,
    each other in a forked child that pickles its list back. The share of a
    child that dies or raises is run here, so its error reaches the caller
    as it does serially. ``run(range(count))`` where ``k`` is 1 or no child
    is forked. ``run`` may stop early; the results then end before the
    first piece a share did not reach."""
    shares = [range(i, count, k) for i in range(k)]

    def write(child: int, fd: int) -> None:
        with open(fd, "wb", closefd=False) as out:
            pickle.dump(run(shares[child + 1]), out)

    def read(fds: list[int]) -> list[list]:
        parts = [run(shares[0])]
        for fd, share in zip(fds, shares[1:]):
            with open(fd, "rb", closefd=False) as pipe:
                try:
                    parts.append(pickle.load(pipe))
                except (EOFError, pickle.UnpicklingError):   # a short pipe
                    parts.append(run(share))
        return parts

    parts = run_forked(k - 1, write, read) if k > 1 else None
    if parts is None:
        return run(range(count))
    out = []
    for i in range(count):
        if i // k == len(parts[i % k]):
            break
        out.append(parts[i % k][i // k])
    return out
