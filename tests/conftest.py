"""Shared fixtures. BLAS is pinned to one thread before numpy loads, as
bench/run.py pins it, so two test processes on a small host do not
oversubscribe its cores (test_fem.py::test_blas_runs_one_thread checks it)."""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import threading

import pytest


@pytest.fixture
def threads_left():
    """Return a function that counts the threads started during the test and still alive.

    It joins each such thread with a timeout first, so a Monte Carlo draw
    worker that exits after its last fill is given time to finish.
    """
    baseline = threading.enumerate()

    def count(timeout: float = 10.0) -> int:
        started = [thread for thread in threading.enumerate() if thread not in baseline]
        for thread in started:
            thread.join(timeout)
        return sum(thread.is_alive() for thread in started)

    return count
