"""Shared test set-up: a CPU-time bound on every test."""

import signal

import pytest

#: CPU seconds one test may use; the slowest test takes about 4 s.
TEST_CPU_SECONDS = 30


class CpuTimeExceeded(BaseException):
    """A test ran past :data:`TEST_CPU_SECONDS` of CPU time.

    It derives from ``BaseException`` so that neither the code under test
    nor Hypothesis, which retries and shrinks on ``Exception``, catches it.
    """


def _out_of_cpu_time(signum, frame):
    raise CpuTimeExceeded(f"test used more than {TEST_CPU_SECONDS} s of CPU time")


@pytest.fixture(autouse=True)
def cpu_time_bound():
    """Fail a test that loops instead of stalling the suite.  ``ITIMER_PROF``
    counts this process's CPU time and signals ``SIGPROF``, so it leaves
    ``ITIMER_REAL`` and ``SIGALRM`` to the per-example bound of the CLI
    fuzz test."""
    previous = signal.signal(signal.SIGPROF, _out_of_cpu_time)
    signal.setitimer(signal.ITIMER_PROF, TEST_CPU_SECONDS)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, previous)
