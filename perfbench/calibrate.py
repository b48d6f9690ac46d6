"""A fixed, paracalc-free workload that measures how fast the host is right now.

run.py times this script in a fresh process before the first round and after
every round, and scales the CLI's wall times by ``CALIBRATION_REF_S`` over its
wall time (see perfbench/README.md, *Noise and host-speed adjustment*).  It is
built like a CLI invocation: it starts an interpreter, imports numpy, works on
a few MB of small Python objects and complex numbers, and makes, draws and
operates on many 4-element complex numpy arrays.  It must never change: every figure
ever reported is relative to it.
"""

import numpy as np


class Pair:
    __slots__ = ("s", "v")

    def __init__(self, s, v):
        self.s = s
        self.v = v


items = [Pair(complex(i % 13, -i % 7), (i * 0.5, i % 3, -1.0)) for i in range(60000)]
table = {}
total = 0j
for rounds in range(3):
    for i, p in enumerate(items):
        z = p.s * complex(p.v[0], p.v[1]) + p.v[2]
        total += z
        table[i % 4099] = z
a = np.arange(4.0) + 1j
for i in range(8000):
    a = (a * 0.5 + (1.0 + 1j)).conj().conj()  # converges to 2+2j: no overflow
rng = np.random.default_rng(0)
drawn = []
for i in range(8000):
    b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    c = np.array([b[0], b[1] * b[2], b[3], 0j])
    c.setflags(write=False)
    drawn.append(c)
if len(table) != 4099 or not np.isfinite(total) or not np.allclose(a, 2 + 2j) \
        or not np.isfinite(sum(abs(c[1]) for c in drawn)):
    raise SystemExit("calibration arithmetic is wrong")
