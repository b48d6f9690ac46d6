"""Shared helpers for the test suite, and the references the package's
stack and block forms are held to: per-value operations, Field-level draws,
operator fields and electromagnetics, and per-sample draws."""

import cmath
import itertools

import numpy as np

from paracalc import tape
from paracalc.algebra import (
    BASIS,
    IDENTITY,
    Event,
    Paravector,
    SingularParavector,
    act_left,
    act_right,
    det_rows,
    mul,
    normalize_rows,
    reverse,
)
from paracalc.diffops import EXACT, DiffMode, box4, div4, grad4
from paracalc.electromag import (
    PhysConstants,
    _tau_event,
    _time_scaled,
    plane_wave_rows,
)
from paracalc.kernels import _degree_exponents
from paracalc.fields import (
    _CONSTANT,
    _ZERO_PHASE,
    Field,
    _random_complexes,
    _random_polynomial,
    as_rng,
    random_field,
    random_plane_wave,
)
from paracalc.tape import DRAW_SCALE, MIN_DET

#: the four transport identities, as transforms.transport_sides's (op, right)
TRANSPORTS = {
    "div_left": (div4, False),
    "grad_left": (grad4, False),
    "div_right": (div4, True),
    "grad_right": (grad4, True),
}


def max_abs(x) -> float:
    arr = np.atleast_1d(np.asarray(x))
    if arr.size == 0:
        return 0.0
    return float(np.max(np.abs(arr)))


def rel_err(a, b) -> float:
    """Scale-guarded relative difference: |a-b|_inf / max(1, |a|_inf, |b|_inf)."""
    a = np.atleast_1d(np.asarray(a, dtype=np.complex128))
    b = np.atleast_1d(np.asarray(b, dtype=np.complex128))
    return max_abs(a - b) / max(1.0, max_abs(a), max_abs(b))


# -- per-value references ---------------------------------------------------------
#
# Each operation has one implementation in the package, on stacks of rows;
# its per-value name is a one-row call.  These compute one value in
# numpy-scalar and CPython arithmetic: the references that the stack forms
# and their one-row calls must match bit for bit.

def pv_mul(a, b):
    """The paravector product of two (4,) arrays in numpy-scalar arithmetic:
    scalar a0 b0 + a.v . b.v (bilinear), vector a0 b.v + b0 a.v + i (a.v x b.v)."""
    out = np.empty(4, np.complex128)
    out[0] = a[0] * b[0] + a[1] * b[1] + a[2] * b[2] + a[3] * b[3]
    out[1] = a[0] * b[1] + b[0] * a[1] + 1j * (a[2] * b[3] - a[3] * b[2])
    out[2] = a[0] * b[2] + b[0] * a[2] + 1j * (a[3] * b[1] - a[1] * b[3])
    out[3] = a[0] * b[3] + b[0] * a[3] + 1j * (a[1] * b[2] - a[2] * b[1])
    return out


def scale(c, a: Paravector) -> Paravector:
    """Componentwise scaling by a complex scalar; det scales by c^2."""
    return Paravector.from_data(np.complex128(c) * a.data)


def normalize_orthogonal(a: Paravector) -> Paravector:
    """Rescale so det becomes 1: normalize_rows of one row."""
    return Paravector.from_data(normalize_rows(a.data[None])[0])


def conjugate_rotate(lam: Paravector, x: Event) -> Event:
    """X' = lam X lam~, the observer-rotation map."""
    return act_right(act_left(lam, x), reverse(lam))


def norm_sq(a) -> float:
    """Sum of squared component magnitudes (works on Paravector or Event)."""
    d = a.data
    return float(np.sum(d.real * d.real + d.imag * d.imag))


def singular_eps(a: Paravector) -> float:
    """Scale-relative singularity threshold: 1e-12 * max(1, |a|^2), with
    |a|^2 summed on a scaled by 2^-64 so that it cannot overflow; a power of
    two scales exactly, and a part it underflows is too small to reach the
    sum's last place where that sum is at least 1."""
    re, im = a.data.real * 2.0 ** -64, a.data.imag * 2.0 ** -64
    return max(1e-12, 1e-12 * 2.0 ** 128 * float(np.sum(re * re + im * im)))


def reverse_value(a: Paravector) -> Paravector:
    """reverse on one value: the vector part negated."""
    data = a.data.copy()
    data[1:] = -data[1:]
    return Paravector.from_data(data)


def det_value(a: Paravector) -> complex:
    """det on one value: s^2 - v.v."""
    d = a.data
    return complex(d[0] * d[0] - (d[1] * d[1] + d[2] * d[2] + d[3] * d[3]))


def checked_det(a: Paravector) -> complex:
    """det_value(a), refused with OverflowError when it is not finite and with
    SingularParavector when |det| is within singular_eps."""
    d = det_value(a)
    if not cmath.isfinite(d):
        raise OverflowError(f"determinant {d!r} overflows")
    if abs(d) <= singular_eps(a):
        raise SingularParavector(f"determinant {d!r} is numerically zero")
    return d


def inverse_value(a: Paravector) -> Paravector:
    """inverse on one value: reverse(a)/det(a), with det(a) checked."""
    return scale(1.0 / checked_det(a), reverse_value(a))


def normalize_value(a: Paravector) -> Paravector:
    """normalize_orthogonal on one value."""
    return scale(1.0 / np.sqrt(np.complex128(checked_det(a))), a)


def poly_eval(exps, coeffs, x):
    """Sum over terms of coeffs[i] * prod_c x[c]**exps[i, c] at one point x;
    coeffs is (n, 4).  Component i's real part is the dot product of the
    monomials' real and imaginary parts with [c.re; -c.im] of column i, and
    its imaginary part with [c.im; c.re], each as one contiguous einsum."""
    if exps.shape[0] == 0:
        return np.zeros(4, np.complex128)
    monos = np.prod(x[np.newaxis, :] ** exps, axis=1)
    parts = np.concatenate([monos.real, monos.imag])
    c = coeffs.T
    out = np.empty(len(c), np.complex128)
    for i in range(len(c)):
        out.real[i] = np.einsum("s,s->", parts, np.concatenate([c[i].real, -c[i].imag]))
        out.imag[i] = np.einsum("s,s->", parts, np.concatenate([c[i].imag, c[i].real]))
    return out


def dot3(a, b):
    """The bilinear dot product of two 3-vectors, summed left to right."""
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def plane_wave_eval(k4, amp, x):
    """amp * exp(k4 . x) at one point x."""
    s = k4[0] * x[0] + k4[1] * x[1] + k4[2] * x[2] + k4[3] * x[3]
    return amp * np.exp(s)


def field_value(f: Field, x):
    """Field._value at one point x (4,), from poly_eval and plane_wave_eval."""
    out = None
    for m, k, exps, coeffs in f._groups:
        y = x if m is None else (m * x).sum(axis=-1)  # M X, x broadcast along M's rows
        if k is _ZERO_PHASE:
            v = poly_eval(exps, coeffs, y)
        elif exps is _CONSTANT:  # a plane wave
            v = plane_wave_eval(k, coeffs[0], x)
        else:
            v = plane_wave_eval(k, poly_eval(exps, coeffs, y), x)
        out = v if out is None else out + v
    return np.zeros(x.shape, np.complex128) if out is None else out


# -- Field-level draws, operator fields and electromagnetics ---------------------
#
# The one-value draws and the Field constructions that the tape's block
# draws, the lowered rows (diffops.block_*) and electromag's block chain are
# held to.

def random_paravector(seed, scale: float = DRAW_SCALE, min_det: float = MIN_DET) -> Paravector:
    """Components uniform on the radius-`scale` disc; redrawn until |det| >= min_det."""
    rng = as_rng(seed)
    while True:
        p = _random_complexes(rng, scale, 4)
        d = det_rows(p[None])[0]
        if np.hypot(d.real, d.imag) >= min_det:  # hypot is abs() of a complex
            return Paravector.from_data(p)


def random_orthogonal(seed, scale: float = DRAW_SCALE) -> Paravector:
    """normalize_orthogonal over a rejection-sampled paravector (det ~ 1)."""
    return normalize_orthogonal(random_paravector(seed, scale))


def random_scalar_field(seed, degree: int = 3, scale: float = 1.0) -> Field:
    """As random_field, for a scalar polynomial: the vector coefficients are zero."""
    return _random_polynomial(seed, degree, scale, 1)


def null_plane_wave(seed, scale: float = 1.0) -> Field:
    """Plane wave whose phase satisfies kappa0^2 = kappa . kappa."""
    z = _random_complexes(as_rng(seed), scale, 7)
    kappa = z[4:]
    kappa0 = np.sqrt(np.complex128(dot3(kappa, kappa)))
    return Field.plane_wave(np.concatenate([[kappa0], kappa]), Paravector.from_data(z[:4]))


# Summing E_k * (d_k A) over the unit paravectors E_k reproduces the operator
# value at every point, and the sum is again a Field.

_NEG_SPATIAL = (
    Paravector(0.0, (-1.0, 0.0, 0.0)),
    Paravector(0.0, (0.0, -1.0, 0.0)),
    Paravector(0.0, (0.0, 0.0, -1.0)),
)


def div4_field(f: Field) -> Field:
    return Field.sum(*(f.partial(c).left_mul(BASIS[c]) for c in range(4)))


def grad4_field(f: Field) -> Field:
    factors = (BASIS[0],) + _NEG_SPATIAL
    return Field.sum(*(f.partial(c).left_mul(factors[c]) for c in range(4)))


class NonTransverse(ValueError):
    """Plane-wave polarization is not orthogonal to the wave vector."""


class ZeroWaveVector(ValueError):
    """Plane waves need a nonzero wave vector."""


def plane_wave_potential(
    kvec, pol, amp=1.0, k: PhysConstants = PhysConstants()
) -> Field:
    """Vacuum plane-wave potential: phi = 0, A = amp * pol * exp(i(w t - kvec.r)).

    w = c sqrt(kvec.kvec) (principal branch), so the rescaled phase is null and
    the Lorenz gauge holds by transversality.  Raises NonTransverse when
    |pol . kvec| (bilinear dot) exceeds 1e-12 |kvec| |pol|, which bounds it,
    and ZeroWaveVector when kvec vanishes.
    """
    kv = np.asarray(kvec, dtype=np.complex128)
    pv = np.asarray(pol, dtype=np.complex128)
    if kv.shape != (3,) or pv.shape != (3,):
        raise ValueError("kvec and pol must have 3 components")
    if np.all(kv == 0):
        raise ZeroWaveVector("wave vector must be nonzero")
    if abs(kv @ pv) > 1e-12 * np.linalg.norm(kv) * np.linalg.norm(pv):
        raise NonTransverse(f"pol . kvec = {kv @ pv!r} is not zero")
    amplitude, phase = plane_wave_rows(kv[None], pv[None], np.complex128(amp)[None], k)
    return Field.plane_wave(phase[0], Paravector.from_data(amplitude[0]))


def lorenz_gauge_potential(
    seed, degree: int = 3, scale: float = 1.0, k: PhysConstants = PhysConstants()
) -> Field:
    """Random polynomial potential constructed to satisfy the Lorenz gauge.

    The vector part W = -cA is drawn at random and the scalar part is the
    t-antiderivative phi = c * int (div W) dt, which zeroes the gauge scalar
    of the c-scaled 4-gradient identically.
    """
    rng = as_rng(seed)
    # scalar polynomials: each keeps its coefficients in column 0
    w = [random_scalar_field(rng, degree=degree, scale=scale) for _ in range(3)]
    parts = [w[i].partial(i + 1) for i in range(3)]
    div_w = Field(np.concatenate([p.exps for p in parts]),
                  np.concatenate([p.coeffs for p in parts]))
    exps = div_w.exps.copy()
    exps[:, 0] += 1  # t-antiderivative with zero integration constant
    phi = Field(exps, k.c * div_w.coeffs / exps[:, :1])
    comps = [phi, *w]  # column 0 of the i-th goes to column i of the potential
    return Field(
        np.concatenate([p.exps for p in comps]),
        np.concatenate([np.roll(p.coeffs, i, axis=1) for i, p in enumerate(comps)]),
    )


def em_field_from_potential(pot: Field, k: PhysConstants = PhysConstants()) -> Field:
    """The electromagnetic field as a field on the rescaled (tau, r) domain."""
    return grad4_field(_time_scaled(pot, k.c))


def sources_from_em(
    emf: Field, X: Event, k: PhysConstants = PhysConstants(), mode: DiffMode = EXACT
) -> Paravector:
    """Sources (rho/eps0; -j/(c eps0)): c-scaled div4 of a (0; E+icB) field at X."""
    return div4(emf, _tau_event(X, k.c), mode)


def source_field_from_em(emf: Field) -> Field:
    """Source paravector (rho/eps0; -j/(c eps0)) as a (tau, r)-domain field."""
    return div4_field(emf)


# -- per-value identity sides: the references for the block_* sides ------------

def additivity_sides(f: Field, g: Field, X: Event, mode=EXACT):
    """div4(f + g) and div4(f) + div4(g), equal for analytic additive fields."""
    both = div4(Field.sum(f, g), X, mode)
    return both, Paravector.from_data(div4(f, X, mode).data + div4(g, X, mode).data)


def leibniz_sides(rho: Field, f: Field, X: Event, mode=EXACT):
    """div4[rho f] and (d rho) f + rho div4(f), equal by the scalar product rule.

    rho is a scalar polynomial (zero vector part), so (d rho) = [drho/dt; grad
    rho] is div4(rho).  The (d rho) factor multiplies on the left, which is
    the only order for which the rule is valid; see scalar_order_gap.
    """
    lhs = div4(f.scalar_mul(rho), X, mode)
    drho = div4(rho, X, mode)
    fv = f._value(X.data)
    rv = rho._value(X.data)[0]
    rhs = pv_mul(drho.data, fv) + rv * div4(f, X, mode).data
    return lhs, Paravector.from_data(rhs)


def plane_wave_value(kvec, pol, amp, k=PhysConstants()):
    """plane_wave_rows' amplitude (0; -c amp pol) and phase (i omega, -i kvec)
    for one wave, in numpy-scalar arithmetic, unchecked."""
    kv = np.asarray(kvec, dtype=np.complex128)
    pv = np.asarray(pol, dtype=np.complex128)
    omega = k.c * np.sqrt(np.complex128(dot3(kv, kv)))
    return (np.concatenate([[0.0], -k.c * np.complex128(amp) * pv]),
            np.concatenate([[1j * omega], -1j * kv]))


def wave_sides(pot: Field, src: Field, X: Event,
               k: PhysConstants = PhysConstants(), mode=EXACT):
    """(d^2/c^2 dt^2 - laplacian)(phi; -cA) and the source value, both at X.

    ``src`` is a (tau, r)-domain field, e.g. the output of
    source_field_from_em, or the zero field for vacuum configurations.
    """
    tau = _tau_event(X, k.c)
    b = box4(_time_scaled(pot, k.c), tau, mode)
    return b, Paravector.from_data(src._value(tau.data))


def random_rows(rng, n):
    """(2n, 4) complex rows: n spread over six decades, then n built from
    exact zeros, signed zeros and small integers, where signed zeros show."""
    spread = (rng.normal(size=(n, 4)) + 1j * rng.normal(size=(n, 4))) \
        * 10.0 ** rng.integers(-3, 4, size=(n, 4))
    pool = np.array([0.0, -0.0, 1.0, -1.0, 2.0, -0.5])
    exact = rng.choice(pool, size=(n, 4)) + 1j * rng.choice(pool, size=(n, 4))
    exact.imag[rng.random((n, 4)) < 0.3] = -0.0
    return np.concatenate([spread, exact])


def central_difference(value_fn, x, c, h):
    """(value(x + h e_c) - value(x - h e_c)) / 2h at one point: the per-point
    reference for diffops.central_differences, which must match it bit for bit."""
    xp = x.copy()
    xp[c] += h
    xm = x.copy()
    xm[c] -= h
    if xp[c] == x[c] or xm[c] == x[c]:
        raise ValueError(f"step {h!r} does not move coordinate {c} from {complex(x[c])!r}")
    return (value_fn(xp) - value_fn(xm)) / (2.0 * h)


# -- per-sample draws: the references for the tape's block draws ----------------
#
# Each draws one sample from the stream, one call after another; a block
# drawn from a tape (paracalc.tape) must equal these samples stacked, and
# its cursor must end where these calls leave the stream.

def stack_samples(samples):
    """Per-sample tuples of arrays, stacked entry by entry into (n, ...) arrays."""
    return [np.array(column) for column in zip(*samples)]


def field_row(rng, plane_wave: bool = False):
    """random_field(rng), or random_plane_wave(rng), as a block row: its
    coefficients on the degree-3 table and its phase, from the same doubles."""
    if not plane_wave:
        coeffs = _random_complexes(rng, 1.0, 4 * len(_degree_exponents(3))).reshape(-1, 4)
        return coeffs, np.zeros(4, np.complex128)
    z = _random_complexes(rng, 1.0, 8)  # amplitude, then phase
    coeffs = np.zeros((len(_degree_exponents(3)), 4), np.complex128)
    coeffs[0] = z[:4]
    return coeffs, z[4:]


def null_wave_row(rng):
    """null_plane_wave(rng) as a block row (its coefficients and phase)."""
    z = _random_complexes(rng, 1.0, 7)  # amplitude, then kappa
    coeffs = np.zeros((len(_degree_exponents(3)), 4), np.complex128)
    coeffs[0] = z[:4]
    return coeffs, np.concatenate([[np.sqrt(np.complex128(dot3(z[4:], z[4:])))], z[4:]])


def scalar_row(rng) -> np.ndarray:
    """random_scalar_field(rng)'s scalar coefficients on the degree-3 table (35,)."""
    return _random_complexes(rng, 1.0, len(_degree_exponents(3)))


def wave_draw(rng, attempts=None):
    """A vacuum plane wave's draws: the wave vector and the polarization by
    rejection (norms >= tape.WAVE_NORM and >= tape.POLARIZATION_NORM, read at
    each call), then the complex amplitude.  ``attempts`` collects how many
    candidates each loop took."""
    kvec, tries = rng.uniform(-1.0, 1.0, size=3), [1, 1]
    while np.sqrt(dot3(kvec, kvec)) < tape.WAVE_NORM:
        kvec = rng.uniform(-1.0, 1.0, size=3)
        tries[0] += 1
    raw = rng.uniform(-1.0, 1.0, size=3)
    pol = raw - dot3(raw, kvec) / dot3(kvec, kvec) * kvec
    while np.sqrt(dot3(pol, pol)) < tape.POLARIZATION_NORM:
        raw = rng.uniform(-1.0, 1.0, size=3)
        pol = raw - dot3(raw, kvec) / dot3(kvec, kvec) * kvec
        tries[1] += 1
    if attempts is not None:
        attempts.append(tries)
    return kvec, pol, complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))


def random_wave_row(rng, k=PhysConstants(), attempts=None):
    """A random vacuum plane-wave potential as a block row: its coefficients
    on the degree-3 table and its phase."""
    kvec, pol, amp = wave_draw(rng, attempts)
    amplitude, phase = plane_wave_rows(np.asarray(kvec, np.complex128)[None],
                                       np.asarray(pol, np.complex128)[None],
                                       np.complex128(amp)[None], k)
    coeffs = np.zeros((len(_degree_exponents(3)), 4), np.complex128)
    coeffs[0] = amplitude[0]  # a plane wave is the constant row
    return coeffs, phase[0]


def random_wave_potential(rng, k):
    """random_wave_row's potential as a Field."""
    return plane_wave_potential(*wave_draw(rng), k)


def sample_field(rng, index: int):
    """Sample ``index``'s field: a dense degree-3 polynomial for an even index,
    a plane wave for an odd one."""
    if index % 2 == 0:
        return random_field(rng, degree=3, scale=1.0)
    return random_plane_wave(rng, scale=1.0)


def each_row(point_fn):
    """A value function for central_differences from one that takes one point:
    it takes one point's stencil copies (8, 4)."""
    return lambda xs: np.array([point_fn(x) for x in xs])


def maxwell_event(rng) -> Event:
    r = rng.uniform(-2.0, 2.0, size=3)
    t = complex(rng.uniform(-2.0, 2.0), rng.uniform(-0.1, 0.1))
    return Event(t, r)


def gauss_slice_draw(rng):
    """maxwell/gauss-law-slice's potential, a static scalar one (the real
    parts of a scalar draw's spatial terms), and its point on t = 0."""
    phi = random_scalar_field(rng, degree=3, scale=1.0)
    spatial = phi.exps[:, 0] == 0  # drop time dependence
    pot = Field(phi.exps[spatial], phi.coeffs[spatial].real)
    return pot, Event(0.0, rng.uniform(-2.0, 2.0, size=3))


def gap(sides):
    """lhs - rhs of a (lhs, rhs) pair of paravectors or of (n, 4) rows, as an array."""
    lhs, rhs = sides
    return np.asarray(getattr(lhs, "data", lhs)) - np.asarray(getattr(rhs, "data", rhs))


def rows(*values):
    """Paravectors or events as the (n, 4) rows the block evaluators take."""
    return np.array([v.data for v in values])


_TABLE = {tuple(e): t for t, e in enumerate(_degree_exponents(3).tolist())}


def block_of(*fields):
    """Fields as one block (diffops): polynomials of degree <= 3 times one
    phase (plane waves among them), each in the identity frame."""
    c = np.zeros((len(fields), len(_TABLE), 4), np.complex128)
    k = np.zeros((len(fields), 4), np.complex128)
    for p, f in enumerate(fields):
        assert len({g[1].tobytes() for g in f._groups}) <= 1, "a block field has one phase"
        for m, phase, exps, coeffs in f._groups:
            assert m is None, "a block field has the identity frame"
            k[p] = phase
            for e, coeff in zip(exps.tolist(), coeffs):
                c[p, _TABLE[tuple(e)]] += coeff
    return None, k, c


# -- Gaussian-integer lattice draws ---------------------------------------------
#
# Polynomial identities hold exactly in Gaussian-integer arithmetic, and
# binary floats compute sums and products of integers exactly while every
# value stays below 2^53.  These draws keep every input on that lattice.

LATTICE = 5  # real and imaginary parts are drawn from -5..5


def lattice_complex(rng, shape):
    """Gaussian integers with parts in -LATTICE..LATTICE."""
    re = rng.integers(-LATTICE, LATTICE + 1, size=shape)
    im = rng.integers(-LATTICE, LATTICE + 1, size=shape)
    return re + 1j * im


_LATTICE_EXPS = np.array([e for e in itertools.product(range(4), repeat=4) if sum(e) <= 3])


def lattice_field(rng, width=4):
    """Degree-3 polynomial field with Gaussian-integer coefficients in the
    first `width` components (width 1 gives a scalar field [rho; 0])."""
    coeffs = np.zeros((len(_LATTICE_EXPS), 4), np.complex128)
    coeffs[:, :width] = lattice_complex(rng, (len(_LATTICE_EXPS), width))
    return Field(_LATTICE_EXPS, coeffs)


def lattice_event(rng):
    return Event.from_data(lattice_complex(rng, 4))


def lattice_paravector(rng):
    return Paravector.from_data(lattice_complex(rng, 4))


def unimodular_paravector(rng):
    """Product of 1-3 factors [1; a(e_j + s i e_k)] with a in {+-1, +-2}, s = +-1.

    Each factor's vector part is null, so its det is exactly 1, and so is the
    product's: inverse() is exactly the reversion and normalize_orthogonal()
    scales by exactly 1.
    """
    g = IDENTITY
    for _ in range(rng.integers(1, 4)):
        j, k = rng.choice(3, size=2, replace=False)
        v = np.zeros(3, np.complex128)
        v[j] = rng.choice([-2, -1, 1, 2])
        v[k] = v[j] * rng.choice([-1j, 1j])
        g = mul(g, Paravector(1.0, v))
    return g


def assert_exact(lhs, rhs):
    """Both sides are Gaussian integers below 2^53 in every part, and equal."""
    for side in (lhs, rhs):
        parts = np.concatenate([np.real(side).ravel(), np.imag(side).ravel()])
        assert np.all(np.abs(parts) < 2.0 ** 53), "a value left the exact range"
        assert np.array_equal(parts, np.round(parts)), "a value is not a lattice point"
    assert np.array_equal(lhs, rhs)


def substitute(f, m):
    """The polynomial field f(m X) for a 4x4 matrix m, expanded into monomials of X.

    An oracle for pullbacks of polynomial fields: each degree-d part of f is
    a (4,)*d tensor T (the coefficient at the sorted index tuple of each
    monomial), each index axis is contracted with m, since
    (m X)_i = sum_j m[i, j] X_j, and the entries of each monomial's index
    tuples add up to its coefficient.  It needs no derivative, so it checks
    Field.partial's treatment of frames from outside.
    """
    exps, coeffs, mat = f.exps, f.coeffs, m
    out_e, out_c = [], []
    for d in range(int(exps.sum(axis=1).max()) + 1 if len(exps) else 0):
        t = np.zeros((4,) + (4,) * d, np.complex128)
        for e, c in zip(exps, coeffs):
            if e.sum() == d:
                t[(slice(None),) + tuple(j for j in range(4) for _ in range(e[j]))] = c
        for _ in range(d):  # contract the leading index axis, append the new one
            t = np.tensordot(t, mat, axes=([1], [0]))
        for tup in itertools.product(range(4), repeat=d):  # Field adds up duplicates
            out_e.append([tup.count(j) for j in range(4)])
            out_c.append(t[(slice(None),) + tup])
    return Field(np.array(out_e).reshape(-1, 4), np.array(out_c).reshape(-1, 4))
