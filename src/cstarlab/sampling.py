"""Seeded random instances for the verification suite and tests.

Everything takes an explicit numpy Generator so runs are reproducible from
a single seed.  ``verify`` hands each law its own generator, so the draw
order is fixed per law, not across laws: a new kind of sample gets a new
function, not an option on an old one.
"""

from __future__ import annotations

import numpy as np

from .algebra import (
    AlgebraElement,
    CommutativeAlgebra,
    FunctionAlgebra,
    NormalGeneratorAlgebra,
    StarHomomorphism,
)
from .spaces import ContinuousMap, FiniteSpace


def random_complex(rng: np.random.Generator, n: int, magnitude: float = 1.0) -> np.ndarray:
    """Uniform complex samples in the square of the given half-width."""
    return magnitude * (
        rng.uniform(-1.0, 1.0, n) + 1j * rng.uniform(-1.0, 1.0, n)
    )


def random_space(
    rng: np.random.Generator, size: int | None = None, max_size: int = 6, prefix: str = "x"
) -> FiniteSpace:
    if size is None:
        size = int(rng.integers(1, max_size + 1))
    return FiniteSpace(tuple(f"{prefix}{i}" for i in range(size)))


def random_element(
    rng: np.random.Generator, algebra: CommutativeAlgebra, magnitude: float = 1.0
) -> AlgebraElement:
    return algebra._fresh(random_complex(rng, algebra.dim, magnitude))


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-ish unitary via QR of a complex Gaussian with phase fixing."""
    G = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    Q, R = np.linalg.qr(G)
    d = np.diag(R).copy()
    d[d == 0] = 1.0
    return Q * (d / np.abs(d))


def random_normal_matrix(
    rng: np.random.Generator, n: int, magnitude: float = 1.0, repeats: bool = False
) -> np.ndarray:
    """A random normal matrix; with ``repeats`` some eigenvalues coincide."""
    if repeats and n > 1:
        distinct = random_complex(rng, int(rng.integers(1, n)), magnitude)
        eigenvalues = distinct[rng.integers(0, len(distinct), n)]
    else:
        eigenvalues = random_complex(rng, n, magnitude)
    U = random_unitary(rng, n)
    return (U * eigenvalues) @ U.conj().T


def random_normal_generator_algebra(
    rng: np.random.Generator,
    max_n: int = 6,
    magnitude: float = 1.0,
    repeats: bool = False,
) -> NormalGeneratorAlgebra:
    n = int(rng.integers(1, max_n + 1))
    return NormalGeneratorAlgebra(
        random_normal_matrix(rng, n, magnitude=magnitude, repeats=repeats)
    )


def random_algebra(
    rng: np.random.Generator, max_size: int = 6
) -> CommutativeAlgebra:
    if rng.integers(0, 2) == 0:
        return FunctionAlgebra(random_space(rng, max_size=max_size))
    return random_normal_generator_algebra(rng, max_n=max_size)


def random_continuous_map(
    rng: np.random.Generator, source: FiniteSpace, target: FiniteSpace
) -> ContinuousMap:
    picks = rng.integers(0, target.size, source.size)
    return ContinuousMap(
        source, target, tuple(target.points[int(i)] for i in picks)
    )


def random_pullback_hom(
    rng: np.random.Generator,
    source: CommutativeAlgebra,
    target: CommutativeAlgebra,
) -> StarHomomorphism:
    images = tuple(int(i) for i in rng.integers(0, source.dim, target.dim))
    return StarHomomorphism(source, target, images)


def random_invertible_element(
    rng: np.random.Generator, algebra: CommutativeAlgebra
) -> AlgebraElement:
    """Random element whose character values have moduli in [0.3, 2.0)."""
    radii = rng.uniform(0.3, 2.0, algebra.dim)
    angles = rng.uniform(0.0, 2.0 * np.pi, algebra.dim)
    return algebra._fresh(radii * np.exp(1j * angles))
