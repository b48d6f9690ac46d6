"""Independent oracles for paracalc's algebra and exact differential operators.

Nothing here imports paracalc.  Values travel as plain ``(4,)`` complex
arrays ``[s, vx, vy, vz]``, and polynomials as ``(exps, coeffs)`` arrays, so
the program's outputs can be judged by code that shares none of its formulas.

* Pauli oracle: the paravector ``[s; v]`` is the 2x2 matrix ``s I + v . sigma``.
  The product becomes the matrix product, the determinant the matrix
  determinant, reversion the adjugate and the inverse the matrix inverse.
* Monomial-rule oracle: ``d/dx_k`` of ``c x^e`` is ``e_k c x^(e - 1_k)``,
  from which ``div4 = sum_k E_k d_k A`` (with ``E_0 = I`` and ``E_k =
  sigma_k`` multiplied as matrices), ``grad4`` (spatial terms negated) and
  ``box4 = d_t^2 A - laplacian A`` are assembled.
"""

from __future__ import annotations

import numpy as np

IDENTITY2 = np.eye(2, dtype=np.complex128)
SIGMA = (
    np.array([[0, 1], [1, 0]], dtype=np.complex128),
    np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    np.array([[1, 0], [0, -1]], dtype=np.complex128),
)
#: E_0..E_3 as matrices: the unit paravectors [1; 0], [0; e_x], [0; e_y], [0; e_z].
UNITS = (IDENTITY2,) + SIGMA


# -- Pauli oracle ---------------------------------------------------------------

def to_matrix(p) -> np.ndarray:
    """[s; v] -> s I + vx sigma_x + vy sigma_y + vz sigma_z."""
    p = np.asarray(p, dtype=np.complex128)
    return p[0] * IDENTITY2 + p[1] * SIGMA[0] + p[2] * SIGMA[1] + p[3] * SIGMA[2]


def from_matrix(m) -> np.ndarray:
    """Inverse of to_matrix: s = tr(M)/2, v_k = tr(sigma_k M)/2."""
    m = np.asarray(m, dtype=np.complex128)
    return np.array(
        [np.trace(m) / 2] + [np.trace(s @ m) / 2 for s in SIGMA], dtype=np.complex128
    )


def pauli_mul(a, b) -> np.ndarray:
    return from_matrix(to_matrix(a) @ to_matrix(b))


def pauli_det(a) -> complex:
    return complex(np.linalg.det(to_matrix(a)))


def pauli_reverse(a) -> np.ndarray:
    """The adjugate [[d, -b], [-c, a]] of the 2x2 matrix."""
    m = to_matrix(a)
    return from_matrix(np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]]))


def pauli_inverse(a) -> np.ndarray:
    return from_matrix(np.linalg.inv(to_matrix(a)))


# -- monomial-rule oracle ---------------------------------------------------------

def poly_value(exps, coeffs, x) -> np.ndarray:
    """sum_i coeffs[i] * prod_k x_k^exps[i, k], term by term in Python complex."""
    out = np.zeros(np.asarray(coeffs).shape[1:], dtype=np.complex128)
    for e, c in zip(np.asarray(exps), np.asarray(coeffs, dtype=np.complex128)):
        mono = complex(1.0)
        for k in range(4):
            mono *= complex(x[k]) ** int(e[k])
        out = out + c * mono
    return out


def poly_partial(exps, coeffs, k: int):
    """Monomial rule along coordinate k; terms without x_k vanish."""
    exps = np.asarray(exps, dtype=np.int64)
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    keep = exps[:, k] > 0
    power = exps[keep, k]
    out_e = exps[keep].copy()
    out_e[:, k] -= 1
    scale = power.reshape((-1,) + (1,) * (coeffs.ndim - 1))
    return out_e, coeffs[keep] * scale


def _first_partials(exps, coeffs, x):
    return [poly_value(*poly_partial(exps, coeffs, k), x) for k in range(4)]


def poly_div4(exps, coeffs, x) -> np.ndarray:
    """sum_k E_k (d_k A), with the products taken as Pauli matrix products."""
    d = _first_partials(exps, coeffs, x)
    return from_matrix(sum(UNITS[k] @ to_matrix(d[k]) for k in range(4)))


def poly_grad4(exps, coeffs, x) -> np.ndarray:
    """E_0 (d_t A) - sum_{k>0} E_k (d_k A)."""
    d = _first_partials(exps, coeffs, x)
    m = UNITS[0] @ to_matrix(d[0])
    for k in range(1, 4):
        m = m - UNITS[k] @ to_matrix(d[k])
    return from_matrix(m)


def poly_box4(exps, coeffs, x) -> np.ndarray:
    """d_t^2 A - (d_x^2 + d_y^2 + d_z^2) A, componentwise."""
    second = []
    for k in range(4):
        e1, c1 = poly_partial(exps, coeffs, k)
        second.append(poly_value(*poly_partial(e1, c1, k), x))
    return second[0] - second[1] - second[2] - second[3]


def relative_gap(got, want) -> float:
    """max|got - want| / max(1, max|got|, max|want|)."""
    got = np.atleast_1d(np.asarray(got, dtype=np.complex128))
    want = np.atleast_1d(np.asarray(want, dtype=np.complex128))
    scale = max(1.0, float(np.max(np.abs(got))), float(np.max(np.abs(want))))
    return float(np.max(np.abs(got - want))) / scale
