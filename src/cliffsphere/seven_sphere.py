"""The 7-sphere construction: Fano trivector, embedding, and Cl(7,0) scores.

The trivector J is the 7-term grade-3 element of Cl(7,0) whose index triples
are the lines of the Fano plane:

    J = e1 e2 e4 + e2 e3 e5 + e3 e4 e6 + e4 e5 e7
        + e5 e6 e1 + e6 e7 e2 + e7 e1 e3.

Directions in R^3 enter through a unit 7-vector N(a); by default a is padded
with zeros, and any 7 x 3 isometry can be supplied instead.  The raw-score
expression (-J.N)(lam J.N) = -lam (J.N)^2 is evaluated as it stands in the
Clifford contraction reading and returned in full: (J.N)^2 is generally not
a scalar (disjoint grade-2 blades commute, so their cross terms survive at
grade 4), and the grade decomposition makes that structure inspectable
rather than coercing the output to +-1.

J is built once per process, by one batched chain of kernel products over
its Fano lines, and validated as it is built; every later `build_J` returns
the same read-only value.  The scores run on coefficient arrays, and a
`Multivector` is built only for a value that a function returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .frames import check_orientation
from .multivector import Multivector, _product, _tables, _vector_coeffs, unit_vector

#: Fano-plane index triples of J, 1-based generator indices in paper order.
J_TRIPLES = ((1, 2, 4), (2, 3, 5), (3, 4, 6), (4, 5, 7), (5, 6, 1), (6, 7, 2), (7, 1, 3))


@dataclass(frozen=True)
class SevenTrivector:
    """The Fano trivector as a validated pure grade-3 element of Cl(7,0)."""

    value: Multivector

    def __post_init__(self):
        v = self.value
        if v.dim != 7:
            raise ValueError("the trivector lives in Cl(7,0)")
        if np.linalg.norm(np.where(_tables(7)[2] == 3, 0.0, v.coeffs)) != 0.0:
            raise ValueError("the trivector must be pure grade 3")
        nonzero = np.nonzero(v.coeffs)[0]
        if len(nonzero) != 7 or not np.all(v.coeffs[nonzero] == 1.0):
            raise ValueError("expected exactly 7 unit coefficients")


def build_J() -> SevenTrivector:
    """The 7-term trivector, built by `_build_J` on the first call in a
    process and shared after it (its coefficients are read-only).  A plain
    function over the cache, so that a wrapper of module functions, such as
    a call tracer, still sees every call."""
    return _build_J()


@lru_cache(maxsize=1)
def _build_J() -> SevenTrivector:
    """J built blade by blade from generator products: one batched product
    chain (e_i e_j) e_k over the rows of `J_TRIPLES`, the blades then added
    in triple order from zero."""
    i, j, k = (_vector_coeffs(np.eye(7)[[t - 1 for t in col]], 7) for col in zip(*J_TRIPLES))
    blades = _product("geometric", _product("geometric", i, j), k)
    return SevenTrivector(Multivector(7, sum(blades, np.zeros(1 << 7))))


@dataclass(frozen=True)
class Embedding:
    """Linear isometry R^3 -> R^7: a 7 x 3 matrix with orthonormal columns.
    The default embedding, padding with zeros, is `embed(a, None)`."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.float64)
        if m.shape != (7, 3):
            raise ValueError(f"embedding matrix must be 7x3, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("embedding matrix entries must be finite")
        if np.max(np.abs(m.T @ m - np.eye(3))) > 1e-9:
            raise ValueError("embedding matrix columns must be orthonormal")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)


def embed(a, e: Embedding | None = None) -> np.ndarray:
    """Unit 7-vector N(a) = e.matrix @ a; with e None, the default
    (a1,a2,a3) -> (a1,a2,a3,0,0,0,0)."""
    a = unit_vector(a)
    if e is None:
        return np.concatenate([a, np.zeros(4)])
    return e.matrix @ a


def _contract_J(a, e: Embedding | None) -> np.ndarray:
    """Coefficients of J . N(a), J from `build_J`."""
    return _product("contract", build_J().value.coeffs, _vector_coeffs(embed(a, e), 7))


def standard_score_7(a, lam: int, e: Embedding | None = None) -> Multivector:
    """Grade-2 standardized variable lam * (J . N(a)) in Cl(7,0)."""
    lam = check_orientation(lam)
    return Multivector(7, float(lam) * _contract_J(a, e))


def raw_score_7(a, lam: int, e: Embedding | None = None) -> Multivector:
    """The raw-score product (-J.N)(lam J.N) = -lam (J.N)^2, in full.

    No sign is extracted: the output is the whole multivector, as computed;
    `scalar_part` and `grade_norms` read its structure.
    """
    lam = check_orientation(lam)
    jn = _contract_J(a, e)
    return Multivector(7, _product("geometric", -1.0 * jn, float(lam) * jn))
