import faulthandler
import os
import sys

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "seqmatch",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("seqmatch")

_criterion_lines = []


def record_criterion(line):
    _criterion_lines.append(line)


def pytest_terminal_summary(terminalreporter):
    if _criterion_lines:
        terminalreporter.section("acceptance criteria")
        for line in _criterion_lines:
            terminalreporter.write_line(line)


# A test still running after this many seconds (the slowest takes about
# 22) dumps every thread's stack and ends the run, so a skip loop that
# stops advancing fails the suite instead of hanging it.
TEST_TIME_LIMIT = 300
_DUMP_FD = pytest.StashKey[int]()


def pytest_configure(config):
    # the dump goes to a copy of the terminal's stderr: output capture
    # would swallow it when the process exits
    config.stash[_DUMP_FD] = os.dup(sys.stderr.fileno())


def pytest_unconfigure(config):
    os.close(config.stash[_DUMP_FD])


@pytest.fixture(autouse=True)
def _time_limit(pytestconfig):
    faulthandler.dump_traceback_later(TEST_TIME_LIMIT, exit=True,
                                      file=pytestconfig.stash[_DUMP_FD])
    yield
    faulthandler.cancel_dump_traceback_later()
