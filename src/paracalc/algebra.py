"""Complex paravector arithmetic and its actions on space-time events.

Two value types share one (4,) complex128 layout but are kept semantically
apart: ``Paravector`` is multiplicative (no addition is defined on it) and
``Event`` is additive (no product is defined on it).  The only bridge between
them is the pair of reinterpret functions ``event_as_paravector`` /
``paravector_as_event`` defined here.
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
    "norm_sq",
    "singular_eps",
    "inverse",
    "det_rows",
    "reverse_rows",
    "inverse_rows",
    "scale",
    "normalize_orthogonal",
    "event_as_paravector",
    "paravector_as_event",
    "act_left",
    "act_right",
    "conjugate_rotate",
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


class Paravector:
    """Multiplicative pair [s; v] of a complex scalar and complex 3-vector.

    Supports the non-commutative product (``*`` or :func:`mul`), reversion,
    determinant and inverse.  Addition is deliberately not defined; sums live
    on :class:`Event`.
    """

    __slots__ = ("data",)

    def __init__(self, scalar=0.0, vector=(0.0, 0.0, 0.0)):
        self.data = _freeze(_pack(scalar, vector))

    @classmethod
    def from_data(cls, data) -> "Paravector":
        p = object.__new__(cls)
        p.data = _freeze(data)
        return p

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

    def __eq__(self, other):
        if isinstance(other, Paravector):
            return bool(np.array_equal(self.data, other.data))
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        return f"Paravector({self.data[0]!r}, {tuple(self.data[1:])!r})"


class Event:
    """Additive space-time point (t, r) in C^(1+3)."""

    __slots__ = ("data",)

    def __init__(self, t=0.0, r=(0.0, 0.0, 0.0)):
        self.data = _freeze(_pack(t, r))

    @classmethod
    def from_data(cls, data) -> "Event":
        x = object.__new__(cls)
        x.data = _freeze(data)
        return x

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

    def __eq__(self, other):
        if isinstance(other, Event):
            return bool(np.array_equal(self.data, other.data))
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        return f"Event({self.data[0]!r}, {tuple(self.data[1:])!r})"


# -- product, reversion, determinant ----------------------------------------

def mul(a: Paravector, b: Paravector) -> Paravector:
    """Paravector product: [a0*b0 + a.v.b.v ; a0*b.v + b0*a.v + i(a.v x b.v)].

    The 3-vector dot product is bilinear (never conjugating); the i-weighted
    cross product makes the product non-commutative.
    """
    return Paravector.from_data(kernels.pv_mul(a.data, b.data))


def reverse(a: Paravector) -> Paravector:
    """Negate the vector part.  Anti-automorphism: (ab)~ = b~ a~."""
    data = a.data.copy()
    data[1:] = -data[1:]
    return Paravector.from_data(data)


def det(a: Paravector) -> complex:
    """s^2 - v.v, the scalar part of a * reverse(a).  Multiplicative."""
    d = a.data
    return complex(d[0] * d[0] - (d[1] * d[1] + d[2] * d[2] + d[3] * d[3]))


def norm_sq(a) -> float:
    """Sum of squared component magnitudes (works on Paravector or Event)."""
    d = a.data
    return float(np.sum(d.real * d.real + d.imag * d.imag))


def singular_eps(a: Paravector) -> float:
    """Scale-relative singularity threshold: 1e-12 * max(1, |a|^2)."""
    return 1e-12 * max(1.0, norm_sq(a))


def inverse(a: Paravector) -> Paravector:
    """reverse(a)/det(a); raises SingularParavector when |det| is below threshold."""
    d = det(a)
    if abs(d) <= singular_eps(a):
        raise SingularParavector(f"determinant {d!r} is numerically zero")
    return scale(1.0 / d, reverse(a))


def scale(c, a: Paravector) -> Paravector:
    """Componentwise scaling by a complex scalar; det scales by c^2."""
    return Paravector.from_data(np.complex128(c) * a.data)


# -- stacks: (n, 4) arrays of paravector rows ---------------------------------
#
# Each function is its per-value twin applied to every row, and rounds every
# row exactly as the twin does: it follows the numpy or CPython arithmetic the
# twin uses, operation for operation.

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

    numpy's complex division rounds differently from CPython's, which
    ``inverse`` uses on the Python complex that ``det`` returns.
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


def inverse_rows(rows: np.ndarray) -> np.ndarray:
    """inverse of each row; raises SingularParavector if any row is singular."""
    d = det_rows(rows)
    sq = rows.real * rows.real + rows.imag * rows.imag
    eps = 1e-12 * np.maximum(1.0, sq[:, 0] + sq[:, 1] + sq[:, 2] + sq[:, 3])
    singular = np.hypot(d.real, d.imag) <= eps  # hypot is abs() of a Python complex
    if singular.any():
        k = int(np.flatnonzero(singular)[0])
        raise SingularParavector(f"determinant {complex(d[k])!r} of row {k} is numerically zero")
    # scale's np.complex128(c) * data, broadcast over the rows
    return _reciprocal(d)[:, None] * reverse_rows(rows)


def normalize_orthogonal(a: Paravector) -> Paravector:
    """Rescale so det becomes 1, using the principal complex square root."""
    d = det(a)
    if abs(d) <= singular_eps(a):
        raise SingularParavector(f"determinant {d!r} is numerically zero")
    return scale(1.0 / np.sqrt(np.complex128(d)), a)


# -- reinterpretation and actions on events ----------------------------------
#
# The one place where the additive and multiplicative types trade layouts.

def event_as_paravector(x: Event) -> Paravector:
    return Paravector.from_data(x.data)


def paravector_as_event(p: Paravector) -> Event:
    return Event.from_data(p.data)


def act_left(g: Paravector, x: Event) -> Event:
    """X' = g X: left multiplication of the event by a paravector."""
    return paravector_as_event(mul(g, event_as_paravector(x)))


def act_right(x: Event, g: Paravector) -> Event:
    """X' = X g: right multiplication (cross term enters with opposite sign)."""
    return paravector_as_event(mul(event_as_paravector(x), g))


def conjugate_rotate(lam: Paravector, x: Event) -> Event:
    """X' = lam X lam~, the observer-rotation map."""
    return act_right(act_left(lam, x), reverse(lam))


IDENTITY = Paravector(1.0)

#: Unit paravectors [1;0], [0;e_x], [0;e_y], [0;e_z]; multiplying on the left
#: by these and summing assembles the 4-divergence from coordinate partials.
BASIS = (
    Paravector(1.0),
    Paravector(0.0, (1.0, 0.0, 0.0)),
    Paravector(0.0, (0.0, 1.0, 0.0)),
    Paravector(0.0, (0.0, 0.0, 1.0)),
)
