"""Hot numeric kernels: paravector product, monomial and plane-wave evaluation,
and the jets of exact derivatives.

Plain numpy on length-4 complex arrays ``[s, v1, v2, v3]`` (paravectors) and
``[t, x, y, z]`` (events).  ``pv_mul`` takes one pair; the ``*_rows`` kernels
work on ``(n, 4)`` stacks of them, each row on its own, so a row rounds the
same in any stack and one point is a stack of one.
``jets`` takes a block (see ``diffops``), one field per row, and evaluates
the value and exact partials of each row's field at its points (any middle
axes), from its own frame, phase and coefficients on the exponent table of
a degree, whose partials ``lowering`` gives.  ``_disc`` turns a stream's
doubles into the values on a disc that every draw takes (``fields``' one at
a time, ``tape``'s a block at a time).
"""

import functools
import math

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


def dots(a, b):
    """sum_c a[..., c] b[..., c], bilinear, left to right; complex products as cmul rounds them."""
    p = cmul(a, b) if np.iscomplexobj(a) or np.iscomplexobj(b) else a * b
    return functools.reduce(np.add, (p[..., c] for c in range(p.shape[-1])))


def pv_mul_rows(a, b):
    """pv_mul of each row pair of two (n, 4) stacks, bit for bit as pv_mul."""
    p = cmul(a, b)
    out = np.empty(p.shape, _C128)
    out[:, 0] = p[:, 0] + p[:, 1] + p[:, 2] + p[:, 3]
    i, j = [2, 3, 1], [3, 1, 2]  # cross product: v_i w_j - v_j w_i
    cross = cmul(a[:, i], b[:, j]) - cmul(a[:, j], b[:, i])
    out[:, 1:] = cmul(a[:, :1], b[:, 1:]) + cmul(b[:, :1], a[:, 1:]) + cmul(1j, cross)
    return out


#: The disc radius of the paravector and event draws, and the |det| that a
#: drawn paravector must reach.
DRAW_SCALE = 2.0
MIN_DET = 0.1


def _disc(u: np.ndarray, scale: float) -> np.ndarray:
    """Values uniform on the closed disc of radius `scale`, from the doubles
    u (..., 2m): each value takes two consecutive doubles, the radius uniform
    then the angle uniform; 2*pi*u is how numpy computes uniform(0, 2*pi)."""
    radius = scale * np.sqrt(u[..., 0::2])
    theta = 2.0 * np.pi * u[..., 1::2]
    z = np.empty(radius.shape, np.complex128)
    z.real = radius * np.cos(theta)
    z.imag = radius * np.sin(theta)
    return z


def coefficient_matrix(coeffs):
    """b[..., (i, part), (m, t)] for coefficients (..., T, W): [c.re, -c.im;
    c.im, c.re] takes the real and imaginary planes m of T monomials to part
    (re, im) of component i of sum_t c_t y^e_t.  The summed axis (m, t) is
    last and contiguous, so einsum sums it in one order whatever the stack."""
    c = np.swapaxes(coeffs, -1, -2)  # (..., W, T)
    b = np.empty(c.shape[:-1] + (4, c.shape[-1]))  # (..., W, (part, m), T), C order
    b[..., 0, :], b[..., 1, :], b[..., 2, :], b[..., 3, :] = c.real, -c.imag, c.imag, c.real
    return b.reshape(c.shape[:-2] + (2 * c.shape[-2], 2 * c.shape[-1]))


def poly_eval_rows(exps, coeffs, xs):
    """Sum over terms of coeffs[i] * prod_c x[c]**exps[i, c] at each row x of an
    (n, 4) stack of points; coeffs is (T, 4), or (G, T, 4) for G coefficient
    sets on the same exponent rows, which then share the monomials and give
    (G, n, 4), set g bit for bit its own (T, 4) call.

    Each monomial is built left to right, as np.prod multiplies one row, on
    contiguous real and imaginary planes, each product rounded as cmul
    rounds it; the planes are then summed against coefficient_matrix."""
    if exps.shape[0] == 0:
        return np.zeros(coeffs.shape[:-2] + (len(xs), 4), _C128)
    powers = xs[:, :, None] ** np.arange(exps.max() + 1)  # x[c] ** e per point
    planes = np.stack([powers.real, powers.imag])
    re, im = planes[:, :, 0, exps[:, 0]]
    for c in (1, 2, 3):
        pr, pi = planes[:, :, c, exps[:, c]]
        re, im = re * pr - im * pi, re * pi + im * pr
    monos = np.ascontiguousarray(np.concatenate([re, im], axis=1))  # real, then imaginary
    return np.einsum("ns,...os->...no", monos, coefficient_matrix(coeffs), order="C").view(_C128)


def plane_wave_eval_rows(k4, amps, xs):
    """amp * exp(k4 . x) at each row x of an (n, 4) stack of points; ``amps``
    is one amplitude (4,) or one per row (n, 4)."""
    return amps * np.exp(dots(k4, xs))[:, None]


# -- forward-mode jets --------------------------------------------------------
#
# The derivatives are propagated with the values (Griewank & Walther,
# *Evaluating Derivatives*, SIAM 2008), never built as expressions.  Slot q
# is one partial of every monomial of an exponent table: 0 the monomial
# itself, 1-4 d_j, 5-8 d_j d_j, 9-14 d_j d_l for j < l.
_MIXED = [(j, l) for j in range(4) for l in range(j + 1, 4)]
_LOWER = ([[0] * 4] + [[int(i == j) for i in range(4)] for j in range(4)]
          + [[2 * int(i == j) for i in range(4)] for j in range(4)]
          + [[int(i in pair) for i in range(4)] for pair in _MIXED])
_BUDGET = 12288  # doubles in the arrays of a pass of _poly_slots: 96 KB


@functools.cache
def _degree_exponents(degree: int) -> np.ndarray:
    """Read-only exponent rows of total degree <= degree, in lexicographic order.

    Built one coordinate at a time, each new one leading: for each of its
    exponents a, the rows so far whose sum is at most degree - a, in order.
    """
    exps = np.arange(degree + 1, dtype=np.int64)[:, None]  # the last coordinate
    for _ in range(3):
        total = exps.sum(axis=1)
        exps = np.concatenate([np.insert(exps[total <= degree - a], 0, a, axis=1)
                               for a in range(degree + 1)])
    exps.flags.writeable = False
    return exps


TABLE_DEGREE = {math.comb(d + 4, 4): d for d in range(33)}  #: a table's rows -> its degree


def exponent_keys(exps: np.ndarray, base: int) -> np.ndarray:
    """The key ((e0 b + e1) b + e2) b + e3 of each exponent row (..., 4): with
    every exponent below the base b, the keys order like the rows."""
    return ((exps[..., 0] * base + exps[..., 1]) * base + exps[..., 2]) * base + exps[..., 3]


def table_rows(degree: int, exps: np.ndarray) -> np.ndarray:
    """The rows of the degree's exponent table that hold the exponent rows exps."""
    b = degree + 1  # the table is lexicographic: its keys increase
    return np.searchsorted(exponent_keys(_degree_exponents(degree), b), exponent_keys(exps, b))


@functools.cache
def lowering(degree: int, slots: int):
    """Per slot q and row t of the degree's exponent table, (slots, T) each, the
    row and integer weight of d_j d_l x^e = e_j (e_l - [j = l]) x^(e - u_j - u_l);
    a weight of 0 marks an exponent that drops below 0, and row 0 the monomial 1."""
    e = _degree_exponents(degree)[None]
    low = np.array(_LOWER[:slots])[:, None, :]
    weight = (np.where(low > 0, e, 1) * np.where(low > 1, e - 1, 1)).prod(axis=-1)
    rows = np.where(weight > 0, table_rows(degree, np.maximum(e - low, 0)), 0)
    rows.flags.writeable = weight.flags.writeable = False
    return rows, weight


@functools.cache
def _plan(degree: int, slots: int):
    """How _poly_slots builds the monomials in graded order: per degree, the span
    [lo, hi) of its rows, their parents (the row with its last nonzero exponent
    lowered by one) and that coordinate; and where each slot finds the real,
    then imaginary, parts of its lowered monomials, (slots, 2T), and weights."""
    exps = _degree_exponents(degree)
    d = exps.sum(axis=1)
    graded = np.concatenate([np.flatnonzero(d == L) for L in range(degree + 1)])
    at = np.empty_like(graded)  # a table row's graded position
    at[graded] = np.arange(len(graded))
    c = 3 - np.argmax(exps[:, ::-1] > 0, axis=1)
    p = at[table_rows(degree, np.maximum(exps - np.eye(4, dtype=np.int64)[c], 0))]  # parents
    spans = [(math.comb(L + 3, 4), math.comb(L + 4, 4)) for L in range(1, degree + 1)]
    levels = [(lo, hi, p[graded[lo:hi]], c[graded[lo:hi]]) for lo, hi in spans]
    rows, w = lowering(degree, slots)
    return levels, np.hstack([at[rows], at[rows] + len(exps)]), np.hstack([w, w], dtype=float)


def _poly_slots(y, coeffs, plan):
    """s[n, ..., q, i]: slot q of component i of P = sum_t coeffs[t] y^e_t, for
    each row's coefficients (n, ..., T, 4) on the exponent table of the
    _plan's degree.

    Each monomial is evaluated once per point in double, its parent times one
    coordinate; each slot gathers its lowered monomials times their weights
    and sums their parts against coefficient_matrix.  In passes of at most
    _BUDGET doubles: rows are independent, and so are the points of one row
    (1, k, 4) past the budget."""
    levels, index, weight = plan
    terms = index.shape[-1] // 2
    point = index.size + 8 * terms  # doubles per point: a, the monomials and a level's parts
    row = 16 * terms  # and per row of its own coefficients: coefficient_matrix
    step = max(1, _BUDGET // (math.prod(y.shape[1:-1]) * point + row))
    if len(y) > step:
        return np.concatenate([_poly_slots(y[i:i + step], coeffs[i:i + step], plan)
                               for i in range(0, len(y), step)])
    step = max(1, (_BUDGET - row) // point)
    if y.ndim == 3 and y.shape[1] > step:
        shared = coeffs.shape[1] == 1
        return np.concatenate([
            _poly_slots(y[:, j:j + step], coeffs if shared else coeffs[:, j:j + step], plan)
            for j in range(0, y.shape[1], step)], axis=1)
    mono = np.empty(y.shape[:-1] + (2, terms))  # real and imaginary parts, graded
    mono[..., 0] = 1.0, 0.0
    y = np.stack([y.real, y.imag], axis=-2)
    (lo, hi, _, c), *higher = levels
    mono[..., lo:hi] = np.take(y, c, axis=-1)  # degree 1: the coordinates
    for lo, hi, parent, c in higher:  # parent times coordinate, rounded as cmul rounds
        p, x = np.take(mono, parent, axis=-1), np.take(y, c, axis=-1)
        re, im = p * x[..., :1, :], p * x[..., 1:, :]
        np.subtract(re[..., 0, :], im[..., 1, :], out=mono[..., 0, lo:hi])
        np.add(im[..., 0, :], re[..., 1, :], out=mono[..., 1, lo:hi])
    a = np.take(mono.reshape(mono.shape[:-2] + (2 * terms,)), index, axis=-1)  # the largest temporary
    a *= weight
    return np.einsum("...qs,...os->...qo", a, coefficient_matrix(coeffs), order="C").view(_C128)


def cdot(spec: str, x, y):
    """The complex einsum ``spec`` ("...ab,...bc->...ac" style) of x and y.

    One real einsum over the real and imaginary parts of both, which sums
    over the contracted axes in an order that depends only on their lengths.
    """
    ins, out = spec.split("->")
    left, right = ins.split(",")
    r = np.einsum(f"X{left},Y{right}->XY{out}",
                  np.array([x.real, x.imag]), np.array([y.real, y.imag]))
    z = np.empty(r.shape[2:], _C128)
    z.real = r[0, 0] - r[1, 1]
    z.imag = r[0, 1] + r[1, 0]
    return z


def jets(f, xs, order: int = 1):
    """Value and partials of row p's field f(x) = P(M x) e^{k.x} at each point
    xs[p, ...] of an (n, ..., 4) stack.

    f is a block (see ``diffops``), (m, k, coeffs), one field per row: P is
    sum_t coeffs[t] y^e_t on the exponent table e of a degree >= 1, with
    coefficients ``coeffs`` (n, T, 4); ``m`` the frames (n, 4, 4), or None
    for the identity; ``k`` the phases (n, 4), or None for none.  Each row's
    arguments broadcast over its points' middle axes.

    Returns [value (n, ..., 4)], then for order >= 1 the first partials
    d[..., component, coordinate], and for order 2 the repeated second
    partials in the same layout.  The chain rule runs through M and k:
    d_c f = [sum_j M[j, c] (d_j P)(M x) + k_c P(M x)] e^{k.x}.

    Every operation is elementwise, a sum over fixed-length axes or a product
    per point of a shape the table fixes, so a row's result does not depend
    on the other rows of the stack.  Several middle axes are flattened to
    one, whose points _poly_slots may split into passes.
    """
    if xs.ndim > 3:
        flat = jets(f, xs.reshape(len(xs), math.prod(xs.shape[1:-1]), 4), order)
        return [d.reshape(xs.shape[:-1] + d.shape[2:]) for d in flat]
    rows = (slice(None),) + (None,) * (xs.ndim - 2)  # a row's arguments over its points
    m, k, coeffs = (None if a is None else a[rows] for a in f)
    framed = m is not None
    y = cdot("...ij,...j->...i", m, xs) if framed else xs
    slots = (1, 5, 15 if framed else 9)[order]
    s = _poly_slots(y, coeffs, _plan(TABLE_DEGREE[coeffs.shape[-2]], slots))
    out = [s[..., 0, :]]
    if order and framed:  # sum_j m[j, c] (d_j P)_i
        out.append(cdot("...jc,...ji->...ic", m, s[..., 1:5, :]))
    elif order:
        out.append(np.swapaxes(s[..., 1:5, :], -1, -2))
    if order == 2 and framed:  # sum_jl m[j, c] m[l, c] (d_j d_l P)_i
        j, l = zip(*([(j, j) for j in range(4)] + _MIXED))
        mm = m[..., j, :] * m[..., l, :]
        mm[..., 4:, :] *= 2.0  # d_j d_l and d_l d_j
        out.append(cdot("...qc,...qi->...ic", mm, s[..., 5:15, :]))
    elif order == 2:
        out.append(np.swapaxes(s[..., 5:9, :], -1, -2))
    if k is None:
        return out
    e = np.exp(dots(k, xs))[..., None]  # the phase rounds as plane_wave_eval_rows rounds it
    if order:
        kc = k[..., None, :]  # the phase factor of d_c
        kp = kc * out[0][..., :, None]
    if order == 2:
        out[2] = (out[2] + 2.0 * kc * out[1] + kc * kp) * e[..., None]
    if order:
        out[1] = (out[1] + kp) * e[..., None]
    out[0] = out[0] * e
    return out
