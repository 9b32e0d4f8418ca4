import tracemalloc

import pytest
from hypothesis import settings

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


@pytest.fixture
def criterion_log():
    """Collector for acceptance-criterion result lines, echoed after the run."""
    return _ACCEPTANCE_LINES.append


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
