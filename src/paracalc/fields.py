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
``Field._values`` is the one evaluator of field values, for several fields
at once (``_value`` is its one-field call), on a stack of points or one
point as a stack of one.  diffops' exact operators evaluate the partial
fields with it; their independent oracle is ``diffops.central_differences``,
which evaluates its whole stencil as one stack through ``_value``.
"""

from __future__ import annotations

import operator

import numpy as np

from . import kernels
from .kernels import DRAW_SCALE, _disc
from .algebra import Event, Paravector, left_matrix, right_matrix

__all__ = [
    "DEGREE_CAP",
    "MAX_TERMS",
    "coord_index",
    "Field",
    "PolynomialField",
    "random_event",
    "random_field",
    "random_plane_wave",
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
    keys = kernels.exponent_keys(exps, DEGREE_CAP + 1)
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

    __slots__ = ("_groups",)

    def __init__(self, exps, coeffs):
        self._groups = _merged([(None, _ZERO_PHASE, exps, coeffs)])

    @classmethod
    def _of(cls, groups) -> "Field":
        f = object.__new__(cls)
        f._groups = groups
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
        """The value at each of the points x (..., 4), in x's shape: the
        one-field call of ``_values``."""
        return Field._values((self,), x)[0]

    @staticmethod
    def _values(fields, x: np.ndarray) -> list:
        """Each field's values at the points x (..., 4), in x's shape.  Each
        point is evaluated on its own, as one row of the kernels' ``_rows``
        forms, so it does not depend on the other points.
        Unframed, phase-free polynomial groups on equal exponent rows share
        one evaluation of their monomials; each field adds up its groups in
        its own order."""
        xs = x.reshape(-1, 4)
        shared = {}  # exponent rows -> (exps, the coefficients of each such group)
        for f in fields:
            for m, k, exps, coeffs in f._groups:
                if m is None and k is _ZERO_PHASE:
                    shared.setdefault(exps.tobytes(), (exps, []))[1].append(coeffs)
        polys = {key: iter(kernels.poly_eval_rows(exps, np.stack(sets), xs))
                 for key, (exps, sets) in shared.items()}  # taken in the same order
        out = []
        for f in fields:
            total = None
            for m, k, exps, coeffs in f._groups:
                y = xs if m is None else (m * xs[:, None, :]).sum(axis=-1)  # M X per row
                if m is None and k is _ZERO_PHASE:
                    v = next(polys[exps.tobytes()])
                elif k is _ZERO_PHASE:
                    v = kernels.poly_eval_rows(exps, coeffs, y)
                elif exps is _CONSTANT:  # a plane wave
                    v = kernels.plane_wave_eval_rows(k, coeffs[0], xs)
                else:
                    v = kernels.plane_wave_eval_rows(k, kernels.poly_eval_rows(exps, coeffs, y), xs)
                total = v if total is None else total + v
            out.append((np.zeros(xs.shape, np.complex128) if total is None else total).reshape(x.shape))
        return out

    def partial(self, coord) -> "Field":
        return self._partial(coord_index(coord))

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
            (mat if frame is None else kernels.cdot("...ij,...jk->...ik", frame, mat),
             k if k is _ZERO_PHASE else kernels.cdot("...i,...ij->...j", k, mat), exps, coeffs)
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
        products = []  # every product row of every pair of groups
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
    """Rows of d_j P: each row with e_j > 0, times e_j, with e_j lowered by one."""
    keep = exps[:, j] > 0
    de = exps[keep]
    dc = coeffs[keep] * de[:, j][:, None]
    de[:, j] -= 1
    return de, dc


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


def _group_key(m, k, has_exponents: bool):
    """The frame and phase a group joins under, and their key.

    A constant polynomial needs no frame, and the identity frame is None.
    """
    if k is not _ZERO_PHASE:
        if not np.isfinite(k).all():
            raise ValueError("phase coefficients must be finite")
        k = _frozen(k + 0.0) if k.any() else _ZERO_PHASE  # -0.0 joins 0.0
    if m is not None and not np.isfinite(m).all():
        raise ValueError("frame entries must be finite")
    m = None if m is None or not has_exponents else _frozen(m + 0.0)
    return m, k, (_frame_key(m), k.tobytes())


def _merged(groups):
    """Canonical groups from (frame, phase, exps, coeffs) tuples.

    Tuples with equal frames and phases join in order of first appearance,
    their rows merge as in _canonical_terms, and groups left without rows are
    dropped.
    """
    joined = {}
    for m, k, exps, coeffs in groups:
        exps = np.asarray(exps, dtype=np.int64).reshape(-1, 4)
        m, k, key = _group_key(m, k, exps.any())
        _, _, es, cs = joined.setdefault(key, (m, k, [], []))
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
# Seeded random families
# ---------------------------------------------------------------------------

def as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _random_complexes(rng, scale: float, n: int) -> np.ndarray:
    """n values uniform on the closed disc of radius `scale`, from 2n doubles."""
    return _disc(rng.random(2 * n), scale)


def random_event(seed, scale: float = DRAW_SCALE) -> Event:
    return Event.from_data(_random_complexes(as_rng(seed), scale, 4))


def _random_polynomial(seed, degree: int, scale: float, width: int) -> Field:
    # term by term, the first `width` components; the rest stay zero
    if degree > DEGREE_CAP:
        raise ValueError(f"degree must be <= {DEGREE_CAP}")
    exps = kernels._degree_exponents(degree)
    n = len(exps)
    coeffs = np.zeros((n, 4), np.complex128)
    coeffs[:, :width] = _random_complexes(as_rng(seed), scale, n * width).reshape(n, width)
    return Field(exps, coeffs)


def random_field(seed, degree: int = 3, scale: float = 1.0) -> Field:
    """Dense random polynomial of total degree <= degree, |coefficients| <= scale."""
    return _random_polynomial(seed, degree, scale, 4)


def random_plane_wave(seed, scale: float = 1.0) -> Field:
    # amplitude (scalar, vector), then the phase (kappa0, kappa)
    z = _random_complexes(as_rng(seed), scale, 8)
    return Field.plane_wave(z[4:], Paravector.from_data(z[:4]))

