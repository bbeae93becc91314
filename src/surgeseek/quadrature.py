"""Composite-Simpson quadrature helpers for periodic dither signals."""
import numpy as np

DEFAULT_PANELS = 4096


def simpson(values, h):
    """Composite Simpson integral of uniformly sampled values (even panel count)."""
    n = len(values) - 1
    if n % 2 != 0:
        raise ValueError("simpson needs an even number of panels")
    return (h / 3.0) * (values[0] + values[-1]
                        + 4.0 * np.sum(values[1:-1:2])
                        + 2.0 * np.sum(values[2:-1:2]))


def sample_period(w, period):
    """Sample w on `DEFAULT_PANELS` panels over one period; returns (grid, values, h)."""
    s = np.linspace(0.0, period, DEFAULT_PANELS + 1)
    return s, np.array([w(si) for si in s]), period / DEFAULT_PANELS
