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


def cumulative_simpson(values, h):
    """Running integral of uniformly sampled values, 4th-order accurate.

    Even grid points use paired-panel Simpson; odd points use the
    three-point end rule so the whole grid is usable downstream.
    """
    n = len(values) - 1
    if n % 2 != 0:
        raise ValueError("cumulative_simpson needs an even number of panels")
    out = np.empty_like(values, dtype=float)
    out[0] = 0.0
    y = values
    for k in range(0, n, 2):
        out[k + 2] = out[k] + (h / 3.0) * (y[k] + 4.0 * y[k + 1] + y[k + 2])
        out[k + 1] = out[k] + (h / 12.0) * (5.0 * y[k] + 8.0 * y[k + 1] - y[k + 2])
    return out


def sample_period(w, period):
    """Sample w on `DEFAULT_PANELS` panels over one period; returns (grid, values, h)."""
    s = np.linspace(0.0, period, DEFAULT_PANELS + 1)
    return s, np.array([w(si) for si in s]), period / DEFAULT_PANELS
