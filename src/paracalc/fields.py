"""Holomorphic paravector-valued field families over complex space-time.

Fields are immutable expression trees closed under exact differentiation:
sparse polynomials, plane waves with linear phases, sums, scalar scalings,
constant left/right paravector factors, and pullbacks along invertible linear
coordinate maps.  ``Field.partial`` returns another tree; ``numeric_partial``
is the independent central-difference oracle (stepping along the real axis of
a complex coordinate, which recovers the complex partial because every family
is holomorphic per coordinate).
"""

from __future__ import annotations

import itertools

import numpy as np

from . import kernels
from .algebra import BASIS, Event, Paravector, det, normalize_orthogonal, reverse, scale

__all__ = [
    "DEGREE_CAP",
    "MAX_TERMS",
    "MAX_DEPTH",
    "coord_index",
    "LinearMap",
    "Field",
    "PolynomialField",
    "PlaneWaveField",
    "SumField",
    "ScalarScaledField",
    "LeftMulField",
    "RightMulField",
    "PullbackField",
    "numeric_partial",
    "sum_fields",
    "random_paravector",
    "random_orthogonal",
    "random_event",
    "random_field",
    "random_scalar_field",
    "random_plane_wave",
    "null_plane_wave",
]

DEGREE_CAP = 8
MAX_TERMS = 512
MAX_DEPTH = 32

_COORD_NAMES = {"t": 0, "x": 1, "y": 2, "z": 3}


def coord_index(coord) -> int:
    """Accept 0..3 or 't'/'x'/'y'/'z' and return the coordinate index."""
    if isinstance(coord, str):
        try:
            return _COORD_NAMES[coord]
        except KeyError:
            raise ValueError(f"unknown coordinate {coord!r}") from None
    c = int(coord)
    if not 0 <= c <= 3:
        raise ValueError(f"coordinate index out of range: {coord!r}")
    return c


class LinearMap:
    """Invertible linear coordinate map, stored as its 4x4 complex matrix.

    Constructors cover the three paravector actions (the matrices are the
    coordinate expansions of gX, Xg and gXg~) plus a diagonal rescaling used
    for c-scaled operators.  The stored matrix doubles as the constant
    Jacobian for the pullback chain rule.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        m = np.ascontiguousarray(matrix, dtype=np.complex128)
        if m.shape != (4, 4):
            raise ValueError(f"expected a 4x4 matrix, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("matrix entries must be finite")
        if m.flags.writeable:
            m = m.copy()
            m.flags.writeable = False
        self.matrix = m

    @classmethod
    def left_action(cls, g: Paravector) -> "LinearMap":
        # column j is g E_j, so the matrix applied to X is the product g X
        return cls(np.column_stack([kernels.pv_mul(g.data, e.data) for e in BASIS]))

    @classmethod
    def right_action(cls, g: Paravector) -> "LinearMap":
        return cls(np.column_stack([kernels.pv_mul(e.data, g.data) for e in BASIS]))

    @classmethod
    def conjugation(cls, c: Paravector) -> "LinearMap":
        # Y -> (c Y) c~, composed left-to-right.
        return cls(cls.right_action(reverse(c)).matrix @ cls.left_action(c).matrix)

    @classmethod
    def diagonal(cls, factors) -> "LinearMap":
        f = np.asarray(factors, dtype=np.complex128)
        if f.shape != (4,):
            raise ValueError("diagonal map needs 4 factors")
        return cls(np.diag(f))

    def apply_raw(self, x: np.ndarray) -> np.ndarray:
        return kernels.matvec4(self.matrix, x)

    def __call__(self, X: Event) -> Event:
        return Event.from_data(self.apply_raw(X.data))


# ---------------------------------------------------------------------------
# Field trees
# ---------------------------------------------------------------------------

class Field:
    """Base class; subclasses implement _value(x) and _partial(coord)."""

    __slots__ = ("depth", "_pcache")

    def _init_base(self, depth: int):
        if depth > MAX_DEPTH:
            raise ValueError(f"field tree depth {depth} exceeds cap {MAX_DEPTH}")
        self.depth = depth
        self._pcache = {}

    def at(self, X: Event) -> Paravector:
        return Paravector.from_data(self._value(X.data))

    def partial(self, coord) -> "Field":
        c = coord_index(coord)
        try:
            return self._pcache[c]
        except KeyError:
            f = self._partial(c)
            self._pcache[c] = f
            return f

    def _value(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _partial(self, c: int) -> "Field":
        raise NotImplementedError


_KEY_BASE = DEGREE_CAP + 1
_KEY_COUNT = _KEY_BASE ** 4


def _canonical_terms(exps, coeffs):
    """Merge duplicate exponent tuples, drop zero rows, sort lexicographically.

    Duplicates are added onto their first occurrence in order of appearance,
    so the sums round exactly as a left-to-right merge would.
    """
    exps = np.asarray(exps, dtype=np.int64).reshape(-1, 4)
    coeffs = np.asarray(coeffs, dtype=np.complex128).reshape(-1, 4)
    if exps.shape[0] != coeffs.shape[0]:
        raise ValueError("exponent and coefficient counts differ")
    if exps.size and (exps.min() < 0 or exps.max() > DEGREE_CAP):
        raise ValueError(f"exponents must lie in [0, {DEGREE_CAP}]")
    # base-(DEGREE_CAP + 1) digits, so keys order like the exponent tuples
    b = _KEY_BASE
    keys = ((exps[:, 0] * b + exps[:, 1]) * b + exps[:, 2]) * b + exps[:, 3]
    if not (keys[1:] > keys[:-1]).all():
        # Not sorted or not distinct.  A dense table over all keys lists them
        # in order; numpy applies repeated fancy-index writes in order, so
        # writing the rows backwards leaves each key's first occurrence.
        rows = np.arange(len(keys))
        first = np.full(_KEY_COUNT, -1, np.intp)
        first[keys[::-1]] = rows[::-1]
        lead = first[first >= 0]
        slot = np.empty(_KEY_COUNT, np.intp)
        slot[keys[lead]] = np.arange(len(lead))
        merged = coeffs[lead]
        rest = rows[first[keys] != rows]
        while rest.size:  # one pass per further occurrence of a key
            k = keys[rest]
            first[k[::-1]] = rest[::-1]
            now = first[k] == rest
            merged[slot[k[now]]] += coeffs[rest[now]]
            rest = rest[~now]
        exps, coeffs = exps[lead], merged
    nonzero = (coeffs != 0).any(axis=1)
    out_e, out_c = exps[nonzero], coeffs[nonzero]
    if len(out_e) > MAX_TERMS:
        raise ValueError(f"term count {len(out_e)} exceeds cap {MAX_TERMS}")
    out_e.flags.writeable = False
    out_c.flags.writeable = False
    return out_e, out_c


class PolynomialField(Field):
    """Sparse multivariate polynomial with paravector coefficients.

    A scalar polynomial rho is the field [rho; 0]: its vector coefficients are
    all zero, and div4 of it is (d rho) = [drho/dt; grad rho].
    """

    __slots__ = ("exps", "coeffs")

    def __init__(self, exps, coeffs):
        self._set_terms(*_canonical_terms(exps, coeffs))

    def _set_terms(self, exps, coeffs):
        # read-only rows that are already distinct, sorted and nonzero
        self.exps, self.coeffs = exps, coeffs
        self._init_base(1)

    @classmethod
    def zero(cls) -> "PolynomialField":
        return cls(np.zeros((0, 4), np.int64), np.zeros((0, 4), np.complex128))

    @classmethod
    def constant(cls, p: Paravector) -> "PolynomialField":
        return cls(np.zeros((1, 4), np.int64), p.data.reshape(1, 4))

    @classmethod
    def monomial(cls, exps, coeff: Paravector) -> "PolynomialField":
        """coeff * t^et x^ex y^ey z^ez for exps = (et, ex, ey, ez)."""
        return cls(np.array([exps]), coeff.data.reshape(1, 4))

    def _value(self, x):
        return kernels.poly_eval(self.exps, self.coeffs, x)

    def _partial(self, c):
        # Lowering one exponent of every kept row keeps the rows distinct and
        # their order, and scaling by a positive integer keeps them nonzero,
        # so the result is canonical without a merge.
        keep = self.exps[:, c] > 0
        exps = self.exps[keep]
        coeffs = self.coeffs[keep] * exps[:, c][:, None]
        exps[:, c] -= 1
        exps.flags.writeable = False
        coeffs.flags.writeable = False
        f = object.__new__(PolynomialField)
        f._set_terms(exps, coeffs)
        return f


class PlaneWaveField(Field):
    """amplitude * exp(kappa0*t + kappa . r) with a complex linear phase."""

    __slots__ = ("kappa0", "kappa", "amplitude", "_k4")

    def __init__(self, kappa0, kappa, amplitude: Paravector):
        self.kappa0 = np.complex128(kappa0)
        k = np.array(kappa, dtype=np.complex128, copy=True)
        if k.shape != (3,):
            raise ValueError("kappa must have 3 components")
        k.flags.writeable = False
        self.kappa = k
        self.amplitude = amplitude
        k4 = np.empty(4, np.complex128)
        k4[0] = self.kappa0
        k4[1:] = k
        k4.flags.writeable = False
        self._k4 = k4
        if not np.all(np.isfinite(k4)):
            raise ValueError("phase coefficients must be finite")
        self._init_base(1)

    def _value(self, x):
        return kernels.plane_wave_eval(self._k4, self.amplitude.data, x)

    def _partial(self, c):
        return PlaneWaveField(self.kappa0, self.kappa, scale(self._k4[c], self.amplitude))


class SumField(Field):
    __slots__ = ("left", "right")

    def __init__(self, left: Field, right: Field):
        self.left = left
        self.right = right
        self._init_base(max(left.depth, right.depth) + 1)

    def _value(self, x):
        return self.left._value(x) + self.right._value(x)

    def _partial(self, c):
        return SumField(self.left.partial(c), self.right.partial(c))


class ScalarScaledField(Field):
    """Pointwise rho(X) * f(X) for a scalar polynomial rho (zero vector part)."""

    __slots__ = ("rho", "inner")

    def __init__(self, rho: PolynomialField, inner: Field):
        if not isinstance(rho, PolynomialField) or np.any(rho.coeffs[:, 1:]):
            raise ValueError("rho must be a PolynomialField with zero vector coefficients")
        self.rho = rho
        self.inner = inner
        self._init_base(inner.depth + 1)

    def _value(self, x):
        return self.rho._value(x)[0] * self.inner._value(x)

    def _partial(self, c):
        return SumField(
            ScalarScaledField(self.rho.partial(c), self.inner),
            ScalarScaledField(self.rho, self.inner.partial(c)),
        )


class LeftMulField(Field):
    """Pointwise g * f(X) for a constant paravector g."""

    __slots__ = ("factor", "inner")

    def __init__(self, factor: Paravector, inner: Field):
        self.factor = factor
        self.inner = inner
        self._init_base(inner.depth + 1)

    def _value(self, x):
        return kernels.pv_mul(self.factor.data, self.inner._value(x))

    def _partial(self, c):
        return LeftMulField(self.factor, self.inner.partial(c))


class RightMulField(Field):
    """Pointwise f(X) * g for a constant paravector g."""

    __slots__ = ("inner", "factor")

    def __init__(self, inner: Field, factor: Paravector):
        self.inner = inner
        self.factor = factor
        self._init_base(inner.depth + 1)

    def _value(self, x):
        return kernels.pv_mul(self.inner._value(x), self.factor.data)

    def _partial(self, c):
        return RightMulField(self.inner.partial(c), self.factor)


class PullbackField(Field):
    """f(m(X)) for a linear map m; differentiated with m's constant Jacobian."""

    __slots__ = ("mapping", "inner")

    def __init__(self, mapping: LinearMap, inner: Field):
        self.mapping = mapping
        self.inner = inner
        self._init_base(inner.depth + 1)

    def _value(self, x):
        return self.inner._value(self.mapping.apply_raw(x))

    def _partial(self, c):
        m = self.mapping.matrix
        parts = []
        for k in range(4):
            w = m[k, c]
            if w == 0:
                continue
            parts.append(_scaled(w, PullbackField(self.mapping, self.inner.partial(k))))
        return sum_fields(*parts)


def _scaled(w, f: Field) -> Field:
    if w == 1:
        return f
    return LeftMulField(Paravector(w), f)


def sum_fields(*fields: Field) -> Field:
    """Fold fields into a sum tree; no arguments gives the zero field."""
    if not fields:
        return PolynomialField.zero()
    acc = fields[0]
    for f in fields[1:]:
        acc = SumField(acc, f)
    return acc


# ---------------------------------------------------------------------------
# Operation surface
# ---------------------------------------------------------------------------

def central_difference(value_fn, x: np.ndarray, c: int, h: float) -> np.ndarray:
    """(value(x + h e_c) - value(x - h e_c)) / 2h along the real axis of coord c.

    Raises ValueError when x[c] +- h rounds back to x[c]: such a stencil
    differences nothing and would read every derivative as zero.
    """
    xp = x.copy()
    xp[c] += h
    xm = x.copy()
    xm[c] -= h
    if xp[c] == x[c] or xm[c] == x[c]:
        raise ValueError(f"step {h!r} does not move coordinate {c} from {complex(x[c])!r}")
    return (value_fn(xp) - value_fn(xm)) / (2.0 * h)


def numeric_partial(f: Field, X: Event, coord, h: float) -> Paravector:
    """Second-order central-difference derivative; the oracle for Field.partial."""
    if h <= 0:
        raise ValueError("step h must be positive")
    c = coord_index(coord)
    return Paravector.from_data(central_difference(f._value, X.data, c, h))


# ---------------------------------------------------------------------------
# Seeded random families
# ---------------------------------------------------------------------------

def as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _random_complexes(rng, scale: float, n: int) -> np.ndarray:
    """n values uniform on the closed disc of radius `scale`.

    Each value takes two consecutive doubles of the stream, the radius uniform
    then the angle uniform; 2*pi*u is how numpy computes uniform(0, 2*pi).
    """
    u = rng.random((n, 2))
    radius = scale * np.sqrt(u[:, 0])
    theta = 2.0 * np.pi * u[:, 1]
    z = np.empty(n, np.complex128)
    z.real = radius * np.cos(theta)
    z.imag = radius * np.sin(theta)
    return z


def random_paravector(seed, scale: float = 2.0, min_det: float = 0.1) -> Paravector:
    """Components uniform on the radius-`scale` disc; redrawn until |det| >= min_det."""
    rng = as_rng(seed)
    while True:
        p = Paravector.from_data(_random_complexes(rng, scale, 4))
        if abs(det(p)) >= min_det:
            return p


def random_orthogonal(seed, scale: float = 2.0) -> Paravector:
    """normalize_orthogonal over a rejection-sampled paravector (det ~ 1)."""
    return normalize_orthogonal(random_paravector(seed, scale))


def random_event(seed, scale: float = 2.0) -> Event:
    return Event.from_data(_random_complexes(as_rng(seed), scale, 4))


_EXPONENTS: dict = {}


def _degree_exponents(degree: int) -> np.ndarray:
    """Read-only exponent rows of total degree <= degree, in lexicographic order."""
    try:
        return _EXPONENTS[degree]
    except KeyError:
        exps = np.array(
            [e for e in itertools.product(range(degree + 1), repeat=4) if sum(e) <= degree],
            dtype=np.int64,
        ).reshape(-1, 4)
        exps.flags.writeable = False
        return _EXPONENTS.setdefault(degree, exps)


def _random_polynomial(seed, degree: int, scale: float, width: int) -> PolynomialField:
    # term by term, the first `width` components; the rest stay zero
    if degree > DEGREE_CAP:
        raise ValueError(f"degree must be <= {DEGREE_CAP}")
    exps = _degree_exponents(degree)
    n = len(exps)
    coeffs = np.zeros((n, 4), np.complex128)
    coeffs[:, :width] = _random_complexes(as_rng(seed), scale, n * width).reshape(n, width)
    return PolynomialField(exps, coeffs)


def random_field(seed, degree: int = 3, scale: float = 1.0) -> PolynomialField:
    """Dense random polynomial of total degree <= degree, |coefficients| <= scale."""
    return _random_polynomial(seed, degree, scale, 4)


def random_scalar_field(seed, degree: int = 3, scale: float = 1.0) -> PolynomialField:
    """As random_field, for a scalar polynomial: the vector coefficients are zero."""
    return _random_polynomial(seed, degree, scale, 1)


def random_plane_wave(seed, scale: float = 1.0) -> PlaneWaveField:
    # amplitude (scalar, vector), then kappa0, then kappa
    z = _random_complexes(as_rng(seed), scale, 8)
    return PlaneWaveField(z[4], z[5:], Paravector.from_data(z[:4]))


def null_plane_wave(seed, scale: float = 1.0) -> PlaneWaveField:
    """Plane wave whose phase satisfies kappa0^2 = kappa . kappa."""
    z = _random_complexes(as_rng(seed), scale, 7)
    kappa = z[4:]
    kappa0 = np.sqrt(np.complex128(kappa @ kappa))
    return PlaneWaveField(kappa0, kappa, Paravector.from_data(z[:4]))
