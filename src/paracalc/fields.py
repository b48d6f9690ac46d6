"""Holomorphic paravector-valued fields over complex space-time.

Every field is a sum of polynomials in a linear frame times exponentials of
linear phases,

    f(X) = sum_j P_j(M_j X) exp(k_j . X),

where each P_j has paravector coefficients, M_j is a 4x4 matrix (the
identity until a pullback composes a map into it) and k_j . X is
k0 t + k1 x + k2 y + k3 z.  One immutable class, ``Field``, holds it as
canonical rows: an exponent row, a coefficient row and a phase per term,
grouped by frame and phase.  The class is closed under every operation the
package needs:

* partials:  d_c [P(M X) e^{k.X}] = [sum_j M[j, c] (d_j P)(M X) + k_c P(M X)] e^{k.X};
* pullbacks along a linear map A:  P(M A X) e^{(A^T k).X};
* constant left and right paravector factors, applied to the coefficient rows;
* products with a scalar field [rho; 0] in the same frame: polynomials
  multiply, phases add;
* sums: the rows concatenated and merged.

Pullbacks keep a frame rather than expanding P(M X) into monomials of X: for
the strongly non-unitary maps the suites draw, that expansion cancels away
most of its significant digits when evaluated (see the README).
``central_difference`` is the independent oracle (stepping along the real
axis of a complex coordinate, which recovers the complex partial because
every field is holomorphic per coordinate).
"""

from __future__ import annotations

import itertools
import operator

import numpy as np

from . import kernels
from .algebra import Event, Paravector, det_rows, left_matrix, normalize_orthogonal, right_matrix

__all__ = [
    "DEGREE_CAP",
    "MAX_TERMS",
    "coord_index",
    "Field",
    "PolynomialField",
    "random_paravector",
    "random_paravectors",
    "random_orthogonal",
    "random_event",
    "random_field",
    "random_scalar_field",
    "random_plane_wave",
    "null_plane_wave",
]

DEGREE_CAP = 8
MAX_TERMS = 512

_COORD_NAMES = {"t": 0, "x": 1, "y": 2, "z": 3}


def coord_index(coord) -> int:
    """Accept an integer 0..3 or 't'/'x'/'y'/'z' and return the coordinate index.

    Bools and non-integers such as 1.7 are refused rather than truncated.
    """
    if isinstance(coord, str):
        try:
            return _COORD_NAMES[coord]
        except KeyError:
            raise ValueError(f"unknown coordinate {coord!r}") from None
    try:
        if isinstance(coord, bool):  # an int to Python, but never a coordinate
            raise TypeError
        c = operator.index(coord)
    except TypeError:
        raise ValueError(f"coordinate must be an integer, got {coord!r}") from None
    if not 0 <= c <= 3:
        raise ValueError(f"coordinate index out of range: {coord!r}")
    return c


# ---------------------------------------------------------------------------
# Canonical rows
# ---------------------------------------------------------------------------

_KEY_BASE = DEGREE_CAP + 1


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


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
        # Not sorted or not distinct.  A dense table over the keys lists them
        # in order; numpy applies repeated fancy-index writes in order, so
        # writing the rows backwards leaves each key's first occurrence.
        # np.add.at, unbuffered, then adds the other occurrences onto it one
        # at a time in order of appearance.
        rows = np.arange(len(keys))
        first = np.full(keys.max() + 1, -1, np.intp)
        first[keys[::-1]] = rows[::-1]
        lead = first[first >= 0]
        slot = np.empty(len(first), np.intp)
        slot[keys[lead]] = np.arange(len(lead))
        merged = coeffs[lead]
        rest = rows[first[keys] != rows]
        np.add.at(merged, slot[keys[rest]], coeffs[rest])
        exps, coeffs = exps[lead], merged
    nonzero = (coeffs != 0).any(axis=1)
    out_e, out_c = exps[nonzero], coeffs[nonzero]
    if len(out_e) > MAX_TERMS:
        raise ValueError(f"term count {len(out_e)} exceeds cap {MAX_TERMS}")
    return _frozen(out_e), _frozen(out_c)


# ---------------------------------------------------------------------------
# The field type
# ---------------------------------------------------------------------------

class Field:
    """sum_j P_j(M_j X) exp(k_j . X), with paravector-valued polynomials P_j.

    ``Field(exps, coeffs)`` is the polynomial sum_i coeffs[i] X^exps[i] and
    ``Field.plane_wave(k, amplitude)`` a plane wave; the closure operations
    build the rest.  The frame M_j is the identity until a pullback composes
    it with a map.
    A scalar field rho is [rho; 0]: its vector coefficients are all zero, and
    div4 of it is (d rho) = [drho/dt; grad rho].  ``exps``, ``coeffs`` and
    ``phases`` read back the canonical rows: grouped by frame and phase in
    order of first appearance, each group's exponents distinct, sorted and
    nonzero.
    """

    __slots__ = ("_groups", "_pcache")

    def __init__(self, exps, coeffs):
        self._groups = _merged([(None, _ZERO_PHASE, exps, coeffs)])
        self._pcache = {}

    @classmethod
    def _of(cls, groups) -> "Field":
        f = object.__new__(cls)
        f._groups = groups
        f._pcache = {}
        return f

    @classmethod
    def zero(cls) -> "Field":
        return cls._of(())

    @classmethod
    def constant(cls, p: Paravector) -> "Field":
        return cls(np.zeros((1, 4), np.int64), p.data.reshape(1, 4))

    @classmethod
    def monomial(cls, exps, coeff: Paravector) -> "Field":
        """coeff * t^et x^ex y^ey z^ez for exps = (et, ex, ey, ez)."""
        return cls(np.array([exps]), coeff.data.reshape(1, 4))

    @classmethod
    def plane_wave(cls, k, amplitude: Paravector) -> "Field":
        """amplitude * exp(k0 t + k1 x + k2 y + k3 z) for a complex phase k."""
        k = np.array(k, dtype=np.complex128)
        if k.shape != (4,):
            raise ValueError("the phase must have 4 components")
        return cls._of(_merged([(None, k, np.zeros((1, 4), np.int64),
                                 amplitude.data.reshape(1, 4))]))

    def _rows(self, parts, dtype) -> np.ndarray:
        if len(parts) == 1:
            return _frozen(parts[0])
        return _frozen(np.concatenate(parts) if parts else np.zeros((0, 4), dtype))

    exps = property(lambda self: self._rows([g[2] for g in self._groups], np.int64))
    coeffs = property(lambda self: self._rows([g[3] for g in self._groups], np.complex128))
    phases = property(lambda self: self._rows(
        [np.repeat(g[1][None, :], len(g[2]), axis=0) for g in self._groups], np.complex128))

    def at(self, X: Event) -> Paravector:
        return Paravector.from_data(self._value(X.data))

    def _value(self, x: np.ndarray) -> np.ndarray:
        """The value at one point x (4,), or at each row of a stack x (n, 4).

        A stack takes the kernels' ``_rows`` twins, so each of its rows
        equals the value at that one point bit for bit.
        """
        if x.ndim == 1:
            poly, wave, xr = kernels.poly_eval, kernels.plane_wave_eval, x
        else:
            poly, wave, xr = kernels.poly_eval_rows, kernels.plane_wave_eval_rows, x[:, None, :]
        out = None
        for m, k, exps, coeffs in self._groups:
            y = x if m is None else (m * xr).sum(axis=-1)  # M X, xr broadcast along M's rows
            if k is _ZERO_PHASE:
                v = poly(exps, coeffs, y)
            elif exps is _CONSTANT:  # a plane wave
                v = wave(k, coeffs[0], x)
            else:
                v = wave(k, poly(exps, coeffs, y), x)
            out = v if out is None else out + v
        return np.zeros(x.shape, np.complex128) if out is None else out

    def partial(self, coord) -> "Field":
        c = coord_index(coord)
        try:
            return self._pcache[c]
        except KeyError:
            f = self._partial(c)
            self._pcache[c] = f
            return f

    def _partial(self, c: int) -> "Field":
        groups = ()
        for m, k, exps, coeffs in self._groups:
            # d_c [P(M X) e^{k.X}] = [sum_j M[j, c] (d_j P)(M X) + k_c P(M X)] e^{k.X}
            if m is None:
                de, dc = _lowered(exps, coeffs, c)
            else:  # every d_j P at once; equal rows add up in the merge below
                i, j = np.nonzero(exps)
                de, dc = exps[i] - _UNITS[j], (m[j, c] * exps[i, j])[:, None] * coeffs[i]
            if k[c] != 0:
                de, dc = np.concatenate([de, exps]), np.concatenate([dc, k[c] * coeffs])
            if m is None and (k[c] == 0 or exps is _CONSTANT):
                groups += _nonzero(m, k, de, dc)  # distinct sorted rows: no merge needed
            else:
                groups += _merged([(m, k, de, dc)])
        return Field._of(groups)

    # -- closure operations ------------------------------------------------

    def pullback(self, m) -> "Field":
        """X -> f(M X) for a 4x4 matrix M, such as left_matrix(g) for X -> f(g X).

        P_j(M_j X) e^{k_j.X} becomes P_j(M_j M X) e^{(M^T k_j).X}.
        """
        mat = np.asarray(m, dtype=np.complex128)
        if mat.shape != (4, 4):
            raise ValueError(f"expected a 4x4 matrix, got shape {mat.shape}")
        if not np.isfinite(mat).all():
            raise ValueError("matrix entries must be finite")
        return Field._of(_merged([
            (mat if frame is None else frame @ mat,
             k if k is _ZERO_PHASE else k @ mat, exps, coeffs)
            for frame, k, exps, coeffs in self._groups
        ]))

    def left_mul(self, g: Paravector) -> "Field":
        """X -> g f(X) for a constant paravector g."""
        return self._times(left_matrix(g))

    def right_mul(self, g: Paravector) -> "Field":
        """X -> f(X) g for a constant paravector g."""
        return self._times(right_matrix(g))

    def _times(self, matrix: np.ndarray) -> "Field":
        # a constant factor multiplies every coefficient row by its matrix
        groups = ()
        for m, k, exps, coeffs in self._groups:
            groups += _nonzero(m, k, exps, (coeffs[:, None, :] * matrix).sum(axis=2))
        return Field._of(groups)

    def scalar_mul(self, rho: "Field") -> "Field":
        """X -> rho(X) f(X) for a scalar field rho (zero vector part).

        Polynomials multiply and phases add, group by group, so each pair of
        groups must share a frame (a pulled-back rho scales fields pulled back
        along the same map).
        """
        if any(c[:, 1:].any() for _, _, _, c in rho._groups):
            raise ValueError("rho must be a scalar field: its vector coefficients must be zero")
        products = []
        for mr, kr, er, cr in rho._groups:
            for mf, kf, ef, cf in self._groups:
                if _frame_key(mr) != _frame_key(mf):
                    raise ValueError("rho and the field have different frames")
                products.append((mf, kr + kf, (er[:, None, :] + ef[None, :, :]).reshape(-1, 4),
                                 (cr[:, None, :1] * cf[None, :, :]).reshape(-1, 4)))
        return Field._of(_merged(products))

    @staticmethod
    def sum(*fields: "Field") -> "Field":
        """The sum of the fields: their rows concatenated and merged once."""
        return Field._of(_merged([grp for f in fields for grp in f._groups]))


_ZERO_PHASE = _frozen(np.zeros(4, np.complex128))
_CONSTANT = _frozen(np.zeros((1, 4), np.int64))
_UNITS = _frozen(np.eye(4, dtype=np.int64))


def _lowered(exps, coeffs, j: int):
    """Rows of d_j P.  Lowering one exponent of every kept row keeps the rows
    distinct and in order, and scaling by a positive integer keeps them
    nonzero, so canonical rows stay canonical."""
    keep = exps[:, j] > 0
    de = exps[keep]
    dc = coeffs[keep] * de[:, j][:, None]
    de[:, j] -= 1
    return _frozen(de), _frozen(dc)


def _nonzero(m, k, exps, coeffs):
    """The group of these distinct sorted rows without its zero rows, as a
    0- or 1-tuple.  A constant polynomial needs no frame, and its exponent
    row is _CONSTANT, which marks a plane wave for _value."""
    keep = (coeffs != 0).any(axis=1)
    if not keep.all():
        exps, coeffs = exps[keep], coeffs[keep]
    if not len(exps):
        return ()
    if len(exps) == 1 and not exps.any():
        m, exps = None, _CONSTANT
    return ((m, k, _frozen(exps), _frozen(coeffs)),)


def _frame_key(m) -> bytes:
    return b"" if m is None else m.tobytes()


def _merged(groups):
    """Canonical groups from (frame, phase, exps, coeffs) tuples.

    Tuples with equal frames and phases join in order of first appearance,
    their rows merge as in _canonical_terms, and groups left without rows are
    dropped.  A constant polynomial needs no frame, and the identity frame is
    None.
    """
    joined = {}
    for m, k, exps, coeffs in groups:
        exps = np.asarray(exps, dtype=np.int64).reshape(-1, 4)
        if k is not _ZERO_PHASE:
            if not np.isfinite(k).all():
                raise ValueError("phase coefficients must be finite")
            k = _frozen(k + 0.0) if k.any() else _ZERO_PHASE  # -0.0 joins 0.0
        if m is not None and not np.isfinite(m).all():
            raise ValueError("frame entries must be finite")
        m = None if m is None or not exps.any() else _frozen(m + 0.0)
        _, _, es, cs = joined.setdefault((_frame_key(m), k.tobytes()), (m, k, [], []))
        es.append(exps)
        cs.append(coeffs)
    out = ()
    for m, k, es, cs in joined.values():
        if len(es) > 1:
            es, cs = [np.concatenate(es)], [np.concatenate(cs)]
        out += _nonzero(m, k, *_canonical_terms(es[0], cs[0]))
    return out


def PolynomialField(exps, coeffs) -> Field:
    """The polynomial field sum_i coeffs[i] X^exps[i]; the same as Field(exps, coeffs)."""
    return Field(exps, coeffs)


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


def random_paravectors(seed, n: int, scale: float = 2.0, min_det: float = 0.1) -> np.ndarray:
    """n paravectors as the rows of an (n, 4) array, drawn as n random_paravector calls.

    Drawing one paravector after another keeps each draw whose |det| clears
    min_det, so the rows are the first n kept draws of the stream.  Each round
    here draws exactly the rows still missing, so it takes the same doubles,
    redraws included, and ends at the same place in the stream.
    """
    rng = as_rng(seed)
    rows = np.empty((n, 4), np.complex128)
    done = 0
    while done < n:
        draws = _random_complexes(rng, scale, 4 * (n - done)).reshape(-1, 4)
        d = det_rows(draws)
        kept = draws[np.hypot(d.real, d.imag) >= min_det]  # hypot is abs() of a complex
        rows[done:done + len(kept)] = kept
        done += len(kept)
    return rows


def random_paravector(seed, scale: float = 2.0, min_det: float = 0.1) -> Paravector:
    """Components uniform on the radius-`scale` disc; redrawn until |det| >= min_det."""
    return Paravector.from_data(random_paravectors(seed, 1, scale, min_det)[0])


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


def _random_polynomial(seed, degree: int, scale: float, width: int) -> Field:
    # term by term, the first `width` components; the rest stay zero
    if degree > DEGREE_CAP:
        raise ValueError(f"degree must be <= {DEGREE_CAP}")
    exps = _degree_exponents(degree)
    n = len(exps)
    coeffs = np.zeros((n, 4), np.complex128)
    coeffs[:, :width] = _random_complexes(as_rng(seed), scale, n * width).reshape(n, width)
    return Field(exps, coeffs)


def random_field(seed, degree: int = 3, scale: float = 1.0) -> Field:
    """Dense random polynomial of total degree <= degree, |coefficients| <= scale."""
    return _random_polynomial(seed, degree, scale, 4)


def random_scalar_field(seed, degree: int = 3, scale: float = 1.0) -> Field:
    """As random_field, for a scalar polynomial: the vector coefficients are zero."""
    return _random_polynomial(seed, degree, scale, 1)


def random_plane_wave(seed, scale: float = 1.0) -> Field:
    # amplitude (scalar, vector), then the phase (kappa0, kappa)
    z = _random_complexes(as_rng(seed), scale, 8)
    return Field.plane_wave(z[4:], Paravector.from_data(z[:4]))


def null_plane_wave(seed, scale: float = 1.0) -> Field:
    """Plane wave whose phase satisfies kappa0^2 = kappa . kappa."""
    z = _random_complexes(as_rng(seed), scale, 7)
    kappa = z[4:]
    kappa0 = np.sqrt(np.complex128(kappa @ kappa))
    return Field.plane_wave(np.concatenate([[kappa0], kappa]), Paravector.from_data(z[:4]))
