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
from dataclasses import dataclass

import numpy as np

from . import kernels
from .algebra import Event, Paravector, det, normalize_orthogonal, reverse, scale

__all__ = [
    "DEGREE_CAP",
    "MAX_TERMS",
    "MAX_DEPTH",
    "FieldValue",
    "coord_index",
    "LinearMap",
    "Field",
    "MonomialTerm",
    "PolynomialField",
    "PlaneWaveField",
    "SumField",
    "ScalarScaledField",
    "LeftMulField",
    "RightMulField",
    "PullbackField",
    "ScalarField",
    "component_scalar",
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

#: Field values are paravectors; the scalar part is the phi component and the
#: vector part the Phi component.
FieldValue = Paravector

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
        a, bx, by, bz = g.data
        return cls([
            [a, bx, by, bz],
            [bx, a, -1j * bz, 1j * by],
            [by, 1j * bz, a, -1j * bx],
            [bz, -1j * by, 1j * bx, a],
        ])

    @classmethod
    def right_action(cls, g: Paravector) -> "LinearMap":
        a, bx, by, bz = g.data
        return cls([
            [a, bx, by, bz],
            [bx, a, 1j * bz, -1j * by],
            [by, -1j * bz, a, 1j * bx],
            [bz, 1j * by, -1j * bx, a],
        ])

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

    def at(self, X: Event) -> FieldValue:
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


def _canonical_terms(exps, coeffs, width: int):
    """Merge duplicate exponent tuples, drop zero rows, sort lexicographically."""
    exps = np.asarray(exps, dtype=np.int64).reshape(-1, 4)
    coeffs = np.asarray(coeffs, dtype=np.complex128).reshape(-1, width)
    if exps.shape[0] != coeffs.shape[0]:
        raise ValueError("exponent and coefficient counts differ")
    if exps.size and (exps.min() < 0 or exps.max() > DEGREE_CAP):
        raise ValueError(f"exponents must lie in [0, {DEGREE_CAP}]")
    merged: dict = {}
    for e, c in zip(exps, coeffs):
        key = tuple(int(v) for v in e)
        if key in merged:
            merged[key] = merged[key] + c
        else:
            merged[key] = c.copy()
    keys = sorted(k for k, c in merged.items() if np.any(c != 0))
    if len(keys) > MAX_TERMS:
        raise ValueError(f"term count {len(keys)} exceeds cap {MAX_TERMS}")
    out_e = np.array(keys, dtype=np.int64).reshape(-1, 4)
    out_c = np.array([merged[k] for k in keys], dtype=np.complex128).reshape(-1, width)
    out_e.flags.writeable = False
    out_c.flags.writeable = False
    return out_e, out_c


@dataclass(frozen=True)
class MonomialTerm:
    """One monomial t^et x^ex y^ey z^ez with a paravector coefficient."""

    exps: tuple
    coeff: Paravector


class PolynomialField(Field):
    """Sparse multivariate polynomial with paravector coefficients."""

    __slots__ = ("exps", "coeffs")

    def __init__(self, exps, coeffs):
        self.exps, self.coeffs = _canonical_terms(exps, coeffs, 4)
        self._init_base(1)

    @classmethod
    def zero(cls) -> "PolynomialField":
        return cls(np.zeros((0, 4), np.int64), np.zeros((0, 4), np.complex128))

    @classmethod
    def constant(cls, p: Paravector) -> "PolynomialField":
        return cls(np.zeros((1, 4), np.int64), p.data.reshape(1, 4))

    @classmethod
    def monomial(cls, exps, coeff: Paravector) -> "PolynomialField":
        return cls.from_terms([MonomialTerm(tuple(exps), coeff)])

    @classmethod
    def from_terms(cls, terms) -> "PolynomialField":
        exps = [t.exps for t in terms]
        coeffs = [t.coeff.data for t in terms]
        if not exps:
            return cls.zero()
        return cls(np.array(exps), np.array(coeffs))

    def _value(self, x):
        return kernels.poly_eval(self.exps, self.coeffs, x)

    def _partial(self, c):
        keep = self.exps[:, c] > 0
        exps = self.exps[keep].copy()
        coeffs = self.coeffs[keep] * exps[:, c][:, None]
        exps[:, c] -= 1
        return PolynomialField(exps, coeffs)


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
    """Pointwise rho(X) * f(X) for a scalar polynomial rho."""

    __slots__ = ("rho", "inner")

    def __init__(self, rho: "ScalarField", inner: Field):
        self.rho = rho
        self.inner = inner
        self._init_base(inner.depth + 1)

    def _value(self, x):
        return self.rho.value_raw(x) * self.inner._value(x)

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
# Scalar fields (complex-valued sparse polynomials)
# ---------------------------------------------------------------------------

class ScalarField:
    """Sparse multivariate polynomial with complex coefficients."""

    __slots__ = ("exps", "coeffs")

    def __init__(self, exps, coeffs):
        self.exps, coeffs2 = _canonical_terms(exps, coeffs, 1)
        self.coeffs = coeffs2.reshape(-1)
        self.coeffs.flags.writeable = False

    @classmethod
    def zero(cls) -> "ScalarField":
        return cls(np.zeros((0, 4), np.int64), np.zeros(0, np.complex128))

    @classmethod
    def constant(cls, c) -> "ScalarField":
        return cls(np.zeros((1, 4), np.int64), np.array([c]))

    @classmethod
    def coordinate(cls, coord) -> "ScalarField":
        e = np.zeros((1, 4), np.int64)
        e[0, coord_index(coord)] = 1
        return cls(e, np.ones(1, np.complex128))

    def value_raw(self, x: np.ndarray) -> complex:
        return kernels.scalar_poly_eval(self.exps, self.coeffs, x)

    def at(self, X: Event) -> complex:
        return complex(self.value_raw(X.data))

    def partial(self, coord) -> "ScalarField":
        c = coord_index(coord)
        keep = self.exps[:, c] > 0
        exps = self.exps[keep].copy()
        coeffs = self.coeffs[keep] * exps[:, c]
        exps[:, c] -= 1
        return ScalarField(exps, coeffs)

    def antiderivative(self, coord) -> "ScalarField":
        """Coordinate antiderivative with zero integration constant."""
        c = coord_index(coord)
        exps = self.exps.copy()
        coeffs = self.coeffs / (exps[:, c] + 1)
        exps[:, c] += 1
        return ScalarField(exps, coeffs)

    def __add__(self, other):
        if isinstance(other, ScalarField):
            return ScalarField(
                np.concatenate([self.exps, other.exps]),
                np.concatenate([self.coeffs, other.coeffs]),
            )
        return NotImplemented

    def __neg__(self):
        return ScalarField(self.exps, -self.coeffs)


def component_scalar(poly: PolynomialField, comp: int) -> ScalarField:
    """Extract one paravector component of a polynomial field as a ScalarField."""
    if not 0 <= comp <= 3:
        raise ValueError("component index must be 0..3")
    return ScalarField(poly.exps, poly.coeffs[:, comp])


# ---------------------------------------------------------------------------
# Operation surface
# ---------------------------------------------------------------------------

def central_difference(value_fn, x: np.ndarray, c: int, h: float) -> np.ndarray:
    """(value(x + h e_c) - value(x - h e_c)) / 2h along the real axis of coord c."""
    xp = x.copy()
    xp[c] += h
    xm = x.copy()
    xm[c] -= h
    return (value_fn(xp) - value_fn(xm)) / (2.0 * h)


def numeric_partial(f: Field, X: Event, coord, h: float) -> FieldValue:
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


def _random_complex(rng, scale: float) -> complex:
    # uniform on the closed disc of radius `scale`
    radius = scale * np.sqrt(rng.uniform())
    theta = rng.uniform(0.0, 2.0 * np.pi)
    return complex(radius * np.cos(theta), radius * np.sin(theta))


def _random_cvec(rng, scale: float) -> np.ndarray:
    return np.array([_random_complex(rng, scale) for _ in range(3)])


def random_paravector(seed, scale: float = 2.0, min_det: float = 0.1) -> Paravector:
    """Components uniform on the radius-`scale` disc; redrawn until |det| >= min_det."""
    rng = as_rng(seed)
    while True:
        p = Paravector(_random_complex(rng, scale), _random_cvec(rng, scale))
        if abs(det(p)) >= min_det:
            return p


def random_orthogonal(seed, scale: float = 2.0) -> Paravector:
    """normalize_orthogonal over a rejection-sampled paravector (det ~ 1)."""
    return normalize_orthogonal(random_paravector(seed, scale))


def random_event(seed, scale: float = 2.0) -> Event:
    rng = as_rng(seed)
    return Event(_random_complex(rng, scale), _random_cvec(rng, scale))


def _degree_exponents(degree: int):
    return [
        e
        for e in itertools.product(range(degree + 1), repeat=4)
        if sum(e) <= degree
    ]


def random_field(seed, degree: int = 3, scale: float = 1.0) -> PolynomialField:
    """Dense random polynomial of total degree <= degree, |coefficients| <= scale."""
    if degree > DEGREE_CAP:
        raise ValueError(f"degree must be <= {DEGREE_CAP}")
    rng = as_rng(seed)
    exps = _degree_exponents(degree)
    coeffs = np.array(
        [[_random_complex(rng, scale) for _ in range(4)] for _ in exps]
    )
    return PolynomialField(np.array(exps), coeffs)


def random_scalar_field(seed, degree: int = 3, scale: float = 1.0) -> ScalarField:
    if degree > DEGREE_CAP:
        raise ValueError(f"degree must be <= {DEGREE_CAP}")
    rng = as_rng(seed)
    exps = _degree_exponents(degree)
    coeffs = np.array([_random_complex(rng, scale) for _ in exps])
    return ScalarField(np.array(exps), coeffs)


def random_plane_wave(seed, scale: float = 1.0) -> PlaneWaveField:
    rng = as_rng(seed)
    amp = Paravector(_random_complex(rng, scale), _random_cvec(rng, scale))
    return PlaneWaveField(_random_complex(rng, scale), _random_cvec(rng, scale), amp)


def null_plane_wave(seed, scale: float = 1.0) -> PlaneWaveField:
    """Plane wave whose phase satisfies kappa0^2 = kappa . kappa."""
    rng = as_rng(seed)
    amp = Paravector(_random_complex(rng, scale), _random_cvec(rng, scale))
    kappa = _random_cvec(rng, scale)
    kappa0 = np.sqrt(np.complex128(kappa @ kappa))
    return PlaneWaveField(kappa0, kappa, amp)
