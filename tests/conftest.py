import os
import tracemalloc

import pytest
from hypothesis import settings

from hdte import forking

# Property tests draw the same examples on every run, so a tier-1 result is
# reproducible; a test's own settings (example counts) still apply.
settings.register_profile("derandomized", derandomize=True, deadline=None)
settings.load_profile("derandomized")

_ACCEPTANCE_LINES = []


def traced_peak(fn):
    """``(fn(), peak)``: the result of ``fn`` and the peak of the memory
    traced while it ran, in bytes. Tracing always stops on return."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def split_route(patch, cpus: int) -> list:
    """Let ``multi_split`` share its splits, and an experiment its
    replicates, among ``cpus`` processes (1 keeps them serial) whatever the
    machine's CPUs and threads: ``forking.share_count`` then counts the
    process as single-threaded. The returned list records this process's
    forks."""
    forks, fork = [], os.fork

    def counted():
        forks.append(os.getpid())
        return fork()

    patch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    patch.setattr(forking, "single_threaded", lambda: True)
    patch.setattr(os, "fork", counted)
    return forks


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a child process behind, running or exited:
    the parts of a CSV load and of a CSV write, the split shares and the
    replicate shares all reap theirs before they return."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process ({pid or 'still running'})")


@pytest.fixture
def criterion_log():
    """Collector for acceptance-criterion result lines, echoed after the run."""
    return _ACCEPTANCE_LINES.append


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
