import os

import pytest
from hypothesis import settings

# Every run draws the same examples, so a failure repeats on the next run;
# ``--hypothesis-profile=explore`` draws new ones (and ``--hypothesis-seed``
# picks them).
settings.register_profile("repeatable", derandomize=True)
settings.register_profile("explore", derandomize=False)
settings.load_profile("repeatable")


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a child process unreaped, running or not."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    pytest.fail(f"a child process was left unreaped: {f'pid {pid}' if pid else 'still running'}")
