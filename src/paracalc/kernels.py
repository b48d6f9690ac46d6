"""Hot numeric kernels: paravector product, monomial and plane-wave evaluation.

Plain numpy on length-4 complex arrays ``[s, v1, v2, v3]`` (paravectors) and
``[t, x, y, z]`` (events); ``pv_mul_rows`` multiplies stacks of them, row by
row, and rounds every row exactly as ``pv_mul`` does.
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


def matvec4(m, x):
    out = np.empty(4, _C128)
    for i in range(4):
        out[i] = m[i, 0] * x[0] + m[i, 1] * x[1] + m[i, 2] * x[2] + m[i, 3] * x[3]
    return out


def poly_eval(exps, coeffs, x):
    """Sum over terms of coeffs[i] * prod_c x[c]**exps[i, c]; coeffs is (n, 4)."""
    if exps.shape[0] == 0:
        return np.zeros(4, _C128)
    monos = np.prod(x[np.newaxis, :] ** exps, axis=1)
    return monos @ coeffs


def plane_wave_eval(k4, amp, x):
    s = k4[0] * x[0] + k4[1] * x[1] + k4[2] * x[2] + k4[3] * x[3]
    return amp * np.exp(s)
