"""Run a Python snippet in a child process with its own session, so a hang
fails one test instead of hanging the suite, and a signal sent to the
child's process group reaches the child and its pool workers only."""

import os
import signal
import subprocess
import sys
import threading

import pytest

import powerdom

# the directory that holds the package under test, for the child's path
_SRC = os.path.dirname(os.path.dirname(powerdom.__file__))

# Patches the kernel so that a pool worker exits abruptly on its first
# block, with blocks of 4 ranks and a pool that starts on a search's first
# block, so that zim's levels are pooled.
DYING_WORKER = """
import os
import powerdom.search
parent = os.getpid()
real = powerdom.search._force_closure
def dying(*args):
    if os.getpid() != parent:
        os._exit(1)
    return real(*args)
powerdom.search._force_closure = dying
powerdom.search._CHUNK = 4
powerdom.search._POOL_AFTER = 0
"""


def start(code: str) -> subprocess.Popen:
    path = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.Popen(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )


def finish(child: subprocess.Popen, timeout: float):
    """The child's (stdout, stderr); a child still running after timeout
    seconds is killed with its whole process group, and the test fails."""
    try:
        return child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        out, err = child.communicate()
        pytest.fail(f"child still running after {timeout} s:\n{out}\n{err}")


def read_lines(child: subprocess.Popen, count: int, timeout: float):
    """The next count lines of the child's stdout; a child that has not
    written them within timeout seconds is killed with its process group,
    which ends the read. The pipe is read a byte at a time, so that what
    follows the lines stays in it for finish: communicate reads the pipe
    itself, and would lose what a buffered readline had read ahead."""
    watchdog = threading.Timer(timeout, os.killpg, (child.pid, signal.SIGKILL))
    watchdog.start()
    data = b""
    try:
        while data.count(b"\n") < count:
            byte = os.read(child.stdout.fileno(), 1)
            if not byte:
                break
            data += byte
        return data.decode().splitlines(keepends=True)
    finally:
        # joined, so that no thread is alive when a later test forks
        watchdog.cancel()
        watchdog.join()


def run(code: str, timeout: float = 60):
    child = start(code)
    out, err = finish(child, timeout)
    return child.returncode, out, err
