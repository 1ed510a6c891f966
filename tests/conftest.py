from __future__ import annotations

import os

import pytest


@pytest.fixture(autouse=True)
def _no_child_left():
    """Fail any test that leaves a child process behind, running or unreaped:
    afterwards this process must have no child at all."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    state = "running" if pid == 0 else f"{pid}, unreaped"
    pytest.fail(f"the test left a child process behind ({state})")
