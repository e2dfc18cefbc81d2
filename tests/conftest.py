"""Shared fixtures."""

import contextlib
import signal

import pytest


@pytest.fixture
def deadline():
    """``with deadline(s): ...`` raises TimeoutError after s seconds, so a
    call that never returns fails its test instead of hanging the suite."""
    @contextlib.contextmanager
    def within(seconds: int):
        def expire(signum, frame):
            raise TimeoutError(f"no result within {seconds} s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(seconds)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
    return within
