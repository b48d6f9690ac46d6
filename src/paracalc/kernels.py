"""Hot numeric kernels: paravector product, monomial and plane-wave evaluation.

Plain numpy on length-4 complex arrays ``[s, v1, v2, v3]`` (paravectors) and
``[t, x, y, z]`` (events).  Each ``*_rows`` twin works on ``(n, 4)`` stacks of
them, row by row, and rounds every row exactly as its one-row kernel does.
"""

import numpy as np

_C128 = np.complex128


def pv_mul(a, b):
    # scalar = a0*b0 + a.v . b.v (bilinear); vector = a0*b.v + b0*a.v + i (a.v x b.v)
    out = np.empty(4, _C128)
    out[0] = a[0] * b[0] + a[1] * b[1] + a[2] * b[2] + a[3] * b[3]
    out[1] = a[0] * b[1] + b[0] * a[1] + 1j * (a[2] * b[3] - a[3] * b[2])
    out[2] = a[0] * b[2] + b[0] * a[2] + 1j * (a[3] * b[1] - a[1] * b[3])
    out[3] = a[0] * b[3] + b[0] * a[3] + 1j * (a[1] * b[2] - a[2] * b[1])
    return out


def cmul(x, y):
    """Elementwise complex product, rounded as a numpy-scalar product rounds it.

    The real and imaginary parts are rounded on their own.  Complex array
    ``*`` may fuse a product into the sum (FMA) and round differently.
    """
    out = np.empty(np.broadcast(x, y).shape, _C128)
    out.real = x.real * y.real - x.imag * y.imag
    out.imag = x.real * y.imag + x.imag * y.real
    return out


def pv_mul_rows(a, b):
    """pv_mul of each row pair of two (n, 4) stacks, bit for bit as pv_mul."""
    p = cmul(a, b)
    out = np.empty(p.shape, _C128)
    out[:, 0] = p[:, 0] + p[:, 1] + p[:, 2] + p[:, 3]
    i, j = [2, 3, 1], [3, 1, 2]  # cross product: v_i w_j - v_j w_i
    cross = cmul(a[:, i], b[:, j]) - cmul(a[:, j], b[:, i])
    out[:, 1:] = cmul(a[:, :1], b[:, 1:]) + cmul(b[:, :1], a[:, 1:]) + cmul(1j, cross)
    return out


def poly_eval(exps, coeffs, x):
    """Sum over terms of coeffs[i] * prod_c x[c]**exps[i, c]; coeffs is (n, 4)."""
    if exps.shape[0] == 0:
        return np.zeros(4, _C128)
    monos = np.prod(x[np.newaxis, :] ** exps, axis=1)
    return monos @ coeffs


def poly_eval_rows(exps, coeffs, xs):
    """poly_eval at each row of an (n, 4) stack of points, bit for bit as poly_eval."""
    if exps.shape[0] == 0:
        return np.zeros((len(xs), 4), _C128)
    powers = xs[:, :, None] ** np.arange(exps.max() + 1)  # x[c] ** e per point
    monos = powers[:, 0, exps[:, 0]]
    for c in (1, 2, 3):  # left to right, as np.prod multiplies one row
        monos = cmul(monos, powers[:, c, exps[:, c]])
    # one vector-matrix product per row, as in poly_eval (not one matrix product)
    return np.matmul(monos[:, None, :], coeffs)[:, 0]


def plane_wave_eval(k4, amp, x):
    s = k4[0] * x[0] + k4[1] * x[1] + k4[2] * x[2] + k4[3] * x[3]
    return amp * np.exp(s)


def plane_wave_eval_rows(k4, amps, xs):
    """plane_wave_eval at each row of an (n, 4) stack of points, bit for bit.

    ``amps`` is one amplitude (4,) or one per row (n, 4).
    """
    s = (cmul(k4[0], xs[:, 0]) + cmul(k4[1], xs[:, 1])
         + cmul(k4[2], xs[:, 2]) + cmul(k4[3], xs[:, 3]))
    return amps * np.exp(s)[:, None]
