"""Reference values computed independently of the code under test.

Only numpy is used here, through functions captured at import time, so
the references neither call robustlab nor show up in traced runs.
Tolerances are those of the repository's tier-1 tests.
"""

from __future__ import annotations

import math

import numpy as np

_eigvalsh = np.linalg.eigvalsh
_svd = np.linalg.svd

# tier-1 tolerances (tests/test_acceptance.py and the library defaults)
AXIS_OPT_TOL = 1e-6  # criterion 1: |axis-opt - closed form|
RAY_TOL = 2 * 1e-6  # twice the default bisection bracket
PLANAR_TOL = 1e-3  # criteria 3 and 4
BOUNDS_TOL = 1e-9  # criterion 11
SINGLET_TOL = 1e-3  # criterion 9
EXACT_TOL = 1e-12  # closed forms the CLI prints next to numeric values
DISCORD_MEMBERSHIP = 1e-9  # zero-discord oracle threshold
UNFAITHFUL_MARGIN = 1e-8
PPT_LIPSCHITZ = math.sqrt(27.0 / 4.0)  # (1 - 1/4) / kappa, kappa = 1/sqrt(12)

_PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
_I2 = np.eye(2, dtype=complex)
# Bell-diagonal sign pattern: columns are the correlation triples of
# phi+, phi-, psi+, psi-
_BELL_SIGNS = np.array(
    [[1.0, -1.0, 1.0, -1.0], [-1.0, 1.0, 1.0, -1.0], [1.0, 1.0, -1.0, -1.0]]
)
_S = 1.0 / math.sqrt(2.0)
# magic basis: maximally entangled states are its real unit combinations
_MAGIC = np.array(
    [[_S, 0, 0, _S], [1j * _S, 0, 0, -1j * _S], [0, 1j * _S, 1j * _S, 0], [0, _S, -_S, 0]],
    dtype=complex,
).T


# --- state generation ---------------------------------------------------------


def bell_diagonal_triple(rng: np.random.Generator) -> tuple[float, float, float]:
    """Uniform Bell weights mapped to (c1, c2, c3)."""
    c = _BELL_SIGNS @ rng.dirichlet((1.0, 1.0, 1.0, 1.0))
    return (float(c[0]), float(c[1]), float(c[2]))


def bell_diagonal_matrix(c) -> np.ndarray:
    m = np.eye(4, dtype=complex)
    for ci, p in zip(c, _PAULI):
        m = m + ci * np.kron(p, p)
    return m / 4.0


def random_state(rng: np.random.Generator, rank: int = 4) -> np.ndarray:
    """Exactly Hermitian unit-trace two-qubit state of the given rank."""
    g = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
    m = g @ g.conj().T
    m = (m + m.conj().T) / 2.0
    return m / m.trace().real


# --- references ---------------------------------------------------------------


def middle_abs(c) -> float:
    """Discord robustness of a Bell-diagonal state: the middle |c_i|."""
    return sorted(abs(float(v)) for v in c)[1]


def partial_transpose_b(mat: np.ndarray) -> np.ndarray:
    return np.asarray(mat).reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)


def ppt_ray_value(mat: np.ndarray) -> float:
    """Random robustness max(0, -4 lambda_min(rho^Gamma)) (Vidal & Tarrach)."""
    return max(0.0, -4.0 * float(_eigvalsh(partial_transpose_b(mat))[0]))


def bloch(mat: np.ndarray):
    """Local Bloch vectors x, y and correlation matrix T of a two-qubit state."""
    m = np.asarray(mat)
    x = np.array([np.trace(np.kron(p, _I2) @ m).real for p in _PAULI])
    y = np.array([np.trace(np.kron(_I2, p) @ m).real for p in _PAULI])
    t = np.array([[np.trace(np.kron(p, q) @ m).real for q in _PAULI] for p in _PAULI])
    return x, y, t


def zero_discord_ray_value(mat: np.ndarray, s_max: float = 8.0) -> float:
    """Least s at which (rho + s/4)/(1+s) passes the zero-discord test.

    The defect |y|^2 + |T|^2 - lambda_max(y y^T + T^T T) of the mixture is
    the defect of rho divided by (1+s)^2, so the ray value has a closed form.
    """
    _, y, t = bloch(mat)
    defect = float(y @ y + np.sum(t * t) - _eigvalsh(np.outer(y, y) + t.T @ t)[-1])
    if defect <= DISCORD_MEMBERSHIP:
        return 0.0
    s = math.sqrt(defect / DISCORD_MEMBERSHIP) - 1.0
    return s if s <= s_max else math.inf


def discord_bounds(mat: np.ndarray) -> tuple[float, float]:
    x, y, t = bloch(mat)
    middle = float(np.sort(_svd(t, compute_uv=False))[1])
    m = max(float(np.linalg.norm(x)), float(np.linalg.norm(y)))
    return max(0.0, middle - 4.0 * m), middle + 4.0 * m


def singlet_fraction(mat: np.ndarray) -> float:
    """Fully entangled fraction lambda_max(Re rho_M) in the magic basis."""
    rho_m = _MAGIC.conj().T @ np.asarray(mat) @ _MAGIC
    return float(_eigvalsh(rho_m.real)[-1])


def counterexample1(t: float, delta: float = 0.2) -> float:
    """Absolute robustness of (t, 1) in scene 1."""
    return (1.0 - delta) / delta if t < 0.0 else float(t)


def counterexample2(which: str, t: float) -> float:
    """Global robustness along the families of scene 2 (a = b = 1)."""
    if which == "a":
        return 2.0 * t
    return 1.0 if t == 2.0 / 3.0 else 3.0 * t


def sweep(start: float, stop: float, step: float) -> list[float]:
    """Points of a CLI ``--sweep start:stop:step``: stop excluded."""
    out = []
    k = 0
    while start + k * step < stop - 1e-12:
        out.append(start + k * step)
        k += 1
    return out


def levelset_rows(r: float, grid: int) -> list[tuple]:
    """Grid points of the Bell-diagonal tetrahedron with their discord
    robustness and whether it is at most r."""
    axis = np.linspace(-1.0, 1.0, grid)
    rows = []
    for c1 in axis:
        for c2 in axis:
            for c3 in axis:
                weights = (1 + c1 - c2 + c3, 1 - c1 + c2 + c3,
                           1 + c1 + c2 - c3, 1 - c1 - c2 - c3)
                if min(weights) / 4.0 < -1e-12:
                    continue
                v = middle_abs((c1, c2, c3))
                rows.append((float(c1), float(c2), float(c3), v, int(v <= r + 1e-12)))
    return rows


def close(value: float, expected: float, tol: float) -> bool:
    """Both infinite, or both finite and within tol."""
    if math.isinf(expected) or math.isinf(value):
        return value == expected
    return abs(value - expected) <= tol
