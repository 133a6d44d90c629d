import faulthandler
import os
import sys
from pathlib import Path

import pytest

# let `pytest` work from a fresh checkout without an editable install
src = str(Path(__file__).parent / "src")
if src not in sys.path:
    sys.path.insert(0, src)

# a test, or the collection of the test modules, still running after this
# many seconds is taken to spin: every thread's stack is printed and the run
# ends.  The slowest test takes about 7 s, and collection about 1.8 s
HANG_LIMIT_S = 120

_STDERR = pytest.StashKey[int]()


def pytest_configure(config):
    # a copy of the real stderr, taken while no test's capture holds it, so
    # the stacks reach the terminal when the run ends without its report
    config.stash[_STDERR] = os.dup(sys.__stderr__.fileno())


def pytest_unconfigure(config):
    os.close(config.stash[_STDERR])


@pytest.hookimpl(hookwrapper=True)
def pytest_collection(session):
    # the test modules build their corpora on first use, so collection runs
    # no search; the guard still ends an import that spins
    faulthandler.dump_traceback_later(HANG_LIMIT_S, exit=True, file=session.config.stash[_STDERR])
    yield
    faulthandler.cancel_dump_traceback_later()


@pytest.fixture(autouse=True)
def _hang_guard(request):
    faulthandler.dump_traceback_later(HANG_LIMIT_S, exit=True, file=request.config.stash[_STDERR])
    yield
    faulthandler.cancel_dump_traceback_later()
