import faulthandler
import os
import signal
import sys

import pytest

from powerdom import Graph, builtin_graph


def pytest_configure(config):
    """`kill -USR1 <pid>` prints every thread's stack, for a run that hangs.
    The dump goes to a copy of the terminal's stderr taken here, while
    pytest is not capturing it, so a test's captured output cannot hide it."""
    if hasattr(signal, "SIGUSR1"):
        faulthandler.register(
            signal.SIGUSR1, file=os.dup(sys.__stderr__.fileno()), all_threads=True
        )


@pytest.fixture
def zim():
    return builtin_graph("zim")


@pytest.fixture
def mutated_zim():
    return builtin_graph("mutated_zim")


@pytest.fixture
def fig3():
    return builtin_graph("fig3")


@pytest.fixture
def tadpole():
    return builtin_graph("tadpole")


@pytest.fixture
def ieee39():
    return builtin_graph("ieee39")


@pytest.fixture
def path5():
    labels = [f"p{i}" for i in range(5)]
    return Graph(labels, [(labels[i], labels[i + 1]) for i in range(4)])
