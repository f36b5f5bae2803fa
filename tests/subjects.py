"""The tests' one way to build a dataset from per-subject values, and to
read it back one subject at a time."""

import numpy as np

from recency.model import SubjectArrays


def subjects(x, s, z, w=1.0) -> SubjectArrays:
    """A :class:`SubjectArrays` with one subject per entry of ``s``.

    ``x`` is one covariate vector per subject (an (n, c) matrix or a
    sequence of n vectors), or one value of a single covariate shared by
    every subject.  ``z`` and ``w`` are one value per subject or one value
    shared by all.  x, s and w are stored as float and z as int, so
    per-subject draws ``(x_i, s_i, z_i, w_i)`` become
    ``subjects(*zip(*draws))`` value for value.
    """
    s = np.atleast_1d(np.asarray(s, dtype=float))
    n = s.size
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        x = np.full((n, 1), x)
    z = np.broadcast_to(np.asarray(z, dtype=int), (n,)).copy()
    w = np.broadcast_to(np.asarray(w, dtype=float), (n,)).copy()
    return SubjectArrays(x=x, s=s, z=z, w=w)


def rows(arrs: SubjectArrays):
    """``(x_i, s_i, z_i, w_i)`` for each subject, with s, z and w as Python
    numbers: the per-subject view the row-by-row oracles read."""
    return zip(arrs.x, arrs.s.tolist(), arrs.z.tolist(), arrs.w.tolist(), strict=True)
