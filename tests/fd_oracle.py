"""Central-difference oracle shared by the analytic-derivative tests."""

import numpy as np


def central_differences(fn, free, h_rel=1e-6):
    """Derivatives of ``fn`` along each entry of ``free`` (trailing axis),
    with step ``h_rel * (1 + |free_j|)``: the gradient of a scalar ``fn``,
    the (m, k) Jacobian of an (m,) one."""
    cols = []
    for j in range(free.size):
        h = h_rel * (1.0 + abs(free[j]))
        up, dn = free.copy(), free.copy()
        up[j] += h
        dn[j] -= h
        cols.append((np.asarray(fn(up)) - np.asarray(fn(dn))) / (2.0 * h))
    return np.stack(cols, axis=-1)
