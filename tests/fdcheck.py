"""Central finite-difference oracle used by the test suite.

Kept separate from the package's own numeric-jacobian utility so the two
differentiation paths stay independent of each other.
"""

import numpy as np


def central_diff(fn, x, step=1e-6):
    """Jacobian of fn at x by central differences, one column per coordinate.

    fn maps a 1-d array to a 1-d array.
    """
    x = np.asarray(x, dtype=float)
    f0 = np.asarray(fn(x), dtype=float)
    jac = np.zeros((f0.shape[0], x.shape[0]))
    for k in range(x.shape[0]):
        hi = x.copy()
        lo = x.copy()
        hi[k] += step
        lo[k] -= step
        jac[:, k] = (np.asarray(fn(hi)) - np.asarray(fn(lo))) / (2.0 * step)
    return jac


def wrap_angle(a):
    """Independent wrap into (-pi, pi] via plain arithmetic."""
    r = a - 2.0 * np.pi * np.floor((a + np.pi) / (2.0 * np.pi))
    # floor maps the upper boundary pi to -pi; put it back
    if np.isscalar(r):
        return np.pi if r == -np.pi else r
    r = np.asarray(r)
    r[r == -np.pi] = np.pi
    return r


def delta_diff(d2, d1):
    """Tangent difference d2 - d1 of two motions (``p``, ``theta``), with
    the angle wrapped by :func:`wrap_angle`."""
    return np.array([d2.p[0] - d1.p[0], d2.p[1] - d1.p[1],
                     wrap_angle(d2.theta - d1.theta)])
