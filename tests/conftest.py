import tracemalloc

import pytest


def _traced_peak(fn):
    """Call fn() under tracemalloc and return its value and the peak bytes traced meanwhile.

    Only allocations made during the call count, so arrays built before it
    stay out of the peak.
    """
    tracemalloc.start()
    try:
        value = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return value, peak


@pytest.fixture
def traced_peak():
    return _traced_peak
