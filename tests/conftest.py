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
