"""A fixed piece of work that gauges how fast the machine runs right now.

The benchmark's machine is shared: on a 2-vCPU VM the same library call
ran 30-50% slower for minutes at a time, with no steal time to show
for it.  Wall time alone then differs between two runs of the same
code by more than any useful regression bound.

`run.py` times `work` between the timed library calls and scales each
pass's timings by `NOMINAL_S` over the pass's mean `work` time: wall
time as it would read on the machine running at the speed where `work`
takes `NOMINAL_S`.

`work` imports nothing from the library, so a change to the library
cannot move it, and it is built from the same kind of calls as the
library's small-size hot loops (numpy calls on arrays of a few hundred
elements, driven from a Python loop), whose speed varied with it.
"""

from __future__ import annotations

import numpy as np

# about the fastest time of one `work` call on a 2-vCPU Xeon VM (2.1 GHz)
NOMINAL_S = 0.006

_X = np.random.default_rng(12345).random((25, 10)) * 0.6
_TARGET = np.full(25, 2.0)


def work():
    """Bisect a per-row threshold that brings each clipped row sum of a
    fixed 25x10 matrix down to a target, ten times over."""
    for _ in range(10):
        lo = np.zeros(_X.shape[0])
        hi = _X.max(axis=1)
        for _ in range(60):
            theta = 0.5 * (lo + hi)
            too_big = np.clip(_X - theta[:, None], 0.0, 1.0).sum(axis=1) > _TARGET
            lo = np.where(too_big, theta, lo)
            hi = np.where(too_big, hi, theta)
    return lo
