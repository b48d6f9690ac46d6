"""Complex paravector arithmetic and its actions on space-time events.

Two value types share one (4,) complex128 layout and one body (``_Value``:
``from_data``, equality, ``repr``) but are kept semantically apart:
``Paravector`` is multiplicative (no addition is defined on it) and ``Event``
is additive (no product is defined on it).  Paravectors act on events through
``act_left`` and ``act_right``; a value reads as the other type through
``from_data``, as ``Paravector.from_data(x.data)``.
"""

from __future__ import annotations

import numpy as np

from . import kernels

__all__ = [
    "SingularParavector",
    "Paravector",
    "Event",
    "mul",
    "reverse",
    "det",
    "inverse",
    "det_rows",
    "reverse_rows",
    "inverse_rows",
    "normalize_rows",
    "act_left",
    "act_right",
    "left_matrix",
    "right_matrix",
    "IDENTITY",
    "BASIS",
]


class SingularParavector(ArithmeticError):
    """An inverse was required but the determinant is numerically zero."""


def _pack(scalar, vector) -> np.ndarray:
    data = np.empty(4, np.complex128)
    data[0] = scalar
    v = np.asarray(vector, dtype=np.complex128)
    if v.shape != (3,):
        raise ValueError(f"vector part must have 3 components, got shape {v.shape}")
    data[1:] = v
    return data


def _freeze(data: np.ndarray) -> np.ndarray:
    data = np.ascontiguousarray(data, dtype=np.complex128)
    if data.shape != (4,):
        raise ValueError(f"expected 4 components, got shape {data.shape}")
    if not np.isfinite(data).all():
        raise ValueError("components must be finite")
    if data.flags.writeable:
        data = data.copy()
        data.flags.writeable = False
    return data


class _Value:
    """The body both value types share: frozen (4,) complex128 data, equal to
    a value of the same type with equal data, and so unhashable."""

    __slots__ = ("data",)

    @classmethod
    def from_data(cls, data):
        value = object.__new__(cls)
        value.data = _freeze(data)
        return value

    def __eq__(self, other):
        if isinstance(other, type(self)):
            return bool(np.array_equal(self.data, other.data))
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        return f"{type(self).__name__}({self.data[0]!r}, {tuple(self.data[1:])!r})"


class Paravector(_Value):
    """Multiplicative pair [s; v] of a complex scalar and complex 3-vector.

    Supports the non-commutative product (``*`` or :func:`mul`), reversion,
    determinant and inverse.  Addition is deliberately not defined; sums live
    on :class:`Event`.
    """

    __slots__ = ()
    # an entry of its own: perfbench/tracer.py wraps each class's namespace
    from_data = _Value.__dict__["from_data"]

    def __init__(self, scalar=0.0, vector=(0.0, 0.0, 0.0)):
        self.data = _freeze(_pack(scalar, vector))

    @property
    def s(self) -> complex:
        return complex(self.data[0])

    @property
    def v(self) -> np.ndarray:
        return self.data[1:]

    def __mul__(self, other):
        if isinstance(other, Paravector):
            return mul(self, other)
        return NotImplemented


class Event(_Value):
    """Additive space-time point (t, r) in C^(1+3)."""

    __slots__ = ()
    from_data = _Value.__dict__["from_data"]

    def __init__(self, t=0.0, r=(0.0, 0.0, 0.0)):
        self.data = _freeze(_pack(t, r))

    @property
    def t(self) -> complex:
        return complex(self.data[0])

    @property
    def r(self) -> np.ndarray:
        return self.data[1:]

    def __add__(self, other):
        if isinstance(other, Event):
            return Event.from_data(self.data + other.data)
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, Event):
            return Event.from_data(self.data - other.data)
        return NotImplemented


# -- product, reversion, determinant ----------------------------------------

def mul(a: Paravector, b: Paravector) -> Paravector:
    """Paravector product: [a0*b0 + a.v.b.v ; a0*b.v + b0*a.v + i(a.v x b.v)].

    The 3-vector dot product is bilinear (never conjugating); the i-weighted
    cross product makes the product non-commutative.
    """
    return Paravector.from_data(kernels.pv_mul_rows(a.data[None], b.data[None])[0])


def reverse(a: Paravector) -> Paravector:
    """Negate the vector part.  Anti-automorphism: (ab)~ = b~ a~."""
    return Paravector.from_data(reverse_rows(a.data[None])[0])


def det(a: Paravector) -> complex:
    """s^2 - v.v, the scalar part of a * reverse(a).  Multiplicative."""
    return complex(det_rows(a.data[None])[0])


def inverse(a: Paravector) -> Paravector:
    """reverse(a)/det(a); raises as inverse_rows does."""
    return Paravector.from_data(inverse_rows(a.data[None])[0])


# -- stacks: (n, 4) arrays of paravector rows ---------------------------------
#
# The one implementation of each operation; mul (kernels.pv_mul_rows), det,
# reverse and inverse are one-row calls.  Every row rounds on its own, as the
# numpy-scalar or CPython arithmetic of one value would round it, operation
# for operation: the tests hold each against such a value.

def det_rows(rows: np.ndarray) -> np.ndarray:
    """det of each row, as an (n,) complex array."""
    sq = kernels.cmul(rows, rows)
    return sq[:, 0] - (sq[:, 1] + sq[:, 2] + sq[:, 3])


def reverse_rows(rows: np.ndarray) -> np.ndarray:
    """reverse of each row."""
    out = np.array(rows, dtype=np.complex128)
    out[:, 1:] = -out[:, 1:]
    return out


def _reciprocal(d: np.ndarray) -> np.ndarray:
    """1.0/d per element, branch for branch as CPython divides a complex.

    numpy's complex division rounds differently from CPython's, the division
    of the Python complex that ``det`` returns.
    """
    out = np.empty(d.shape, np.complex128)
    re, im = d.real, d.imag
    wide = np.abs(re) >= np.abs(im)
    r, i = re[wide], im[wide]
    ratio = i / r
    denom = r + i * ratio
    out.real[wide] = (1.0 + 0.0 * ratio) / denom
    out.imag[wide] = (0.0 - 1.0 * ratio) / denom
    r, i = re[~wide], im[~wide]
    ratio = r / i
    denom = r * ratio + i
    out.real[~wide] = (1.0 * ratio + 0.0) / denom
    out.imag[~wide] = (0.0 * ratio - 1.0) / denom
    return out


def _check_rows(rows: np.ndarray, d: np.ndarray) -> None:
    """Raise OverflowError at the first row whose det d is not finite, else
    SingularParavector at the first whose |d| is at most 1e-12 max(1, |row|^2),
    the sum of its squared component magnitudes.

    The sum is taken on the row scaled by 2^-64, so that it cannot overflow;
    a power of two scales exactly, and a part it underflows is too small to
    reach the sum's last place where that sum is at least 1."""
    re, im = rows.real * 2.0 ** -64, rows.imag * 2.0 ** -64
    sq = re * re + im * im
    eps = np.maximum(1e-12, 1e-12 * 2.0 ** 128 * (sq[:, 0] + sq[:, 1] + sq[:, 2] + sq[:, 3]))
    size = np.hypot(d.real, d.imag)  # hypot is abs() of a Python complex
    for bad, error, why in ((~np.isfinite(size), OverflowError, "overflows"),
                            (size <= eps, SingularParavector, "is numerically zero")):
        if bad.any():
            k = int(np.flatnonzero(bad)[0])
            raise error(f"determinant {complex(d[k])!r} of row {k} {why}")


def inverse_rows(rows: np.ndarray) -> np.ndarray:
    """inverse of each row; raises as _check_rows does."""
    d = det_rows(rows)
    _check_rows(rows, d)
    # each row scaled as np.complex128(c) * data scales one value
    return _reciprocal(d)[:, None] * reverse_rows(rows)


def normalize_rows(rows: np.ndarray) -> np.ndarray:
    """Each row rescaled so that its det becomes 1, by the principal complex
    square root; raises as inverse_rows does."""
    d = det_rows(rows)
    _check_rows(rows, d)
    return (1.0 / np.sqrt(d))[:, None] * rows


# -- actions on events --------------------------------------------------------

def act_left(g, x):
    """X' = g X: left multiplication of the event by a paravector.

    g and x are a Paravector and an Event, or two (n, 4) stacks of rows for
    an (n, 4) stack of events; a value is a one-row stack.
    """
    if isinstance(x, Event):
        return Event.from_data(act_left(g.data[None], x.data[None])[0])
    return kernels.pv_mul_rows(g, x)


def act_right(x, g):
    """X' = X g: right multiplication (cross term enters with opposite sign).
    x and g as for act_left."""
    if isinstance(x, Event):
        return Event.from_data(act_right(x.data[None], g.data[None])[0])
    return kernels.pv_mul_rows(x, g)


IDENTITY = Paravector(1.0)

#: Unit paravectors [1;0], [0;e_x], [0;e_y], [0;e_z]; multiplying on the left
#: by these and summing assembles the 4-divergence from coordinate partials.
BASIS = (
    Paravector(1.0),
    Paravector(0.0, (1.0, 0.0, 0.0)),
    Paravector(0.0, (0.0, 1.0, 0.0)),
    Paravector(0.0, (0.0, 0.0, 1.0)),
)

#: The product on the basis, T[:, j, l] = BASIS[j] * BASIS[l], so that
#: (a b)_i = sum_jl a_j b_l T[i, j, l].  Each product of two basis
#: paravectors is one basis paravector times +-1 or +-i.
_T = np.array([[mul(a, b).data for b in BASIS] for a in BASIS])
_T = np.ascontiguousarray(_T.transpose(2, 0, 1))
_T.flags.writeable = False


def left_matrix(g) -> np.ndarray:
    """The 4x4 matrix of X -> g X; column j is g E_j.

    g is a Paravector, or an (n, 4) stack of paravector rows for an (n, 4, 4)
    stack of matrices.  Each entry is one component of g times +-1 or +-i,
    so the matrices are exact.
    """
    g = g.data if isinstance(g, Paravector) else g
    return (g[..., None, :, None] * _T).sum(axis=-2)


def right_matrix(g) -> np.ndarray:
    """The 4x4 matrix of X -> X g; column j is E_j g.  g as for left_matrix."""
    g = g.data if isinstance(g, Paravector) else g
    return (_T * g[..., None, None, :]).sum(axis=-1)
