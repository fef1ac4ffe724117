import faulthandler
import os
import resource

import pytest
from hypothesis import settings

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")

# A runaway test stops the suite instead of hanging it or exhausting the
# machine.  The slowest test takes about 10 s, and the suite's largest
# process peaks near 120 MB.  The wall-clock limit runs on faulthandler's
# watchdog thread, so the tests' own SIGALRM timers are left alone; on
# expiry it prints every thread's traceback and exits the run with status
# 1.  The data limit covers this process and every process it starts,
# which inherit it; an allocation past it raises MemoryError.
TEST_WALL_LIMIT_S = 120
DATA_LIMIT_BYTES = 1 << 30

_, _hard = resource.getrlimit(resource.RLIMIT_DATA)
resource.setrlimit(resource.RLIMIT_DATA, (
    DATA_LIMIT_BYTES if _hard == resource.RLIM_INFINITY
    else min(DATA_LIMIT_BYTES, _hard), _hard))

_stderr_fd = None


def pytest_configure(config):
    # Output capture is suspended here, so fd 2 is the terminal's stderr;
    # during a test it is captured, and a traceback written there would be
    # lost with the process.
    global _stderr_fd
    _stderr_fd = os.dup(2)


@pytest.hookimpl(wrapper=True)
def pytest_runtest_protocol(item, nextitem):
    # Set-up, call and teardown share one limit.
    faulthandler.dump_traceback_later(TEST_WALL_LIMIT_S, exit=True,
                                      file=_stderr_fd)
    try:
        return (yield)
    finally:
        faulthandler.cancel_dump_traceback_later()
