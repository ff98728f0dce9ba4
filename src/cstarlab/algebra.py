"""Two concrete models of a finite commutative unital C*-algebra.

Both models keep elements in character coordinates: one complex number per
character of the algebra.  For functions on a finite space the characters
are point evaluations, so the coordinates are simply the function values.
For the algebra generated by a single normal matrix the characters are
evaluations at the distinct eigenvalues, so an element is a function on the
spectrum and its dense n-by-n form is materialized only on demand.

With that representation addition, multiplication, and the involution act
coordinatewise and the norm is the largest coordinate modulus.  All the
analytic content of the matrix model sits in the eigendecomposition done
once at construction time.

Coordinates are validated once, where they enter.  ``element`` is the entry
for coordinates from outside the package, and no package module calls it:
it converts, checks the length, copies and checks finiteness.  Every array
the package builds itself has the right length by construction, so
``_fresh`` wraps it and only checks finiteness (an overflow or a NaN still
raises :class:`NonFinite`); ``interchange`` checks a document's values
itself and hands the new array to ``_fresh`` too.  A raw matrix enters at
``_matrix_entry``, for construction, ``project_matrix`` and
``operator_norm``.  Every element's array is read-only, which lets the
Gelfand transform share it instead of copying it.  Five kinds of array are
finite by construction and skip ``_fresh``: the indicators, the duality
verifier's blocks of stars and of each member's products of its family
(every family value has modulus at most 1), the probe of ``duality.mu``
(the values 1, ..., n), and the coordinates that the Gelfand transform and
its inverse share with their argument.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    AlgebraMismatch,
    DecompositionFailure,
    InvalidPointMap,
    InvalidSubset,
    NonFinite,
    NotNormal,
    _unscale,
)
from .spaces import FiniteSpace
from .spectra import CLUSTER_GAP_TOL, EIGENVALUE_MERGE_TOL, NORMALITY_TOL, SpectrumSet
from .spectra import RECONSTRUCTION_TOL, UNITARITY_TOL, dedup_points

__all__ = [
    "CommutativeAlgebra",
    "FunctionAlgebra",
    "NormalGeneratorAlgebra",
    "AlgebraElement",
    "StarHomomorphism",
    "make_function_algebra",
    "make_normal_generator_algebra",
    "make_star_homomorphism",
    "restriction_homomorphism",
]


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _same_algebra(x, y, message: str, error: type[Exception] = AlgebraMismatch) -> None:
    """Raise ``error(message)`` unless x and y are one algebra, as element arithmetic tests it."""
    if x is not y and x != y:
        raise error(message)


def _character_index(i, dim: int, error: type[Exception]) -> int:
    """``i`` as an int in ``range(dim)``; a ``bool``, a value ``operator.index``
    refuses (such as 1.7) or an index out of range raises ``error``."""
    try:
        j = None if isinstance(i, bool) else operator.index(i)
    except TypeError:
        j = None
    if j is None:
        raise error(f"character index {i!r} is not an integer")
    if not 0 <= j < dim:
        raise error(f"character index {j} out of range")
    return j


class CommutativeAlgebra:
    """Shared surface of both algebra models; each defines character_label and describe."""

    dim: int

    def element(self, coords) -> "AlgebraElement":
        """The element with the given coordinates, checked and copied.

        This is the entry point for coordinates from outside the package.
        """
        arr = np.asarray(coords, dtype=complex).reshape(-1)
        if arr.shape[0] != self.dim:
            raise ValueError(
                f"expected {self.dim} coordinates, got {arr.shape[0]}"
            )
        return self._fresh(arr.copy())

    def _fresh(self, arr: np.ndarray) -> "AlgebraElement":
        """Wrap a new complex array of length ``dim`` that nothing else holds.

        Only finiteness is checked, so an overflow or a NaN in arithmetic
        still raises :class:`NonFinite`; the array is frozen, not copied.
        """
        # the ufunc's own reduce: ndarray.all goes through a Python-level shim
        if not np.logical_and.reduce(np.isfinite(arr)):
            raise NonFinite("coordinates must be finite")
        arr.flags.writeable = False
        return AlgebraElement(self, arr)

    def unit(self) -> "AlgebraElement":
        return self._fresh(np.ones(self.dim, dtype=complex))

    def _indicator(self, i: int) -> "AlgebraElement":
        """The element that is 1 at character ``i`` and 0 at every other."""
        coords = np.zeros(self.dim, dtype=complex)
        coords[i] = 1.0
        return AlgebraElement(self, _readonly(coords))

    def character_mask(self, keys) -> int:
        """The bit mask of the characters that ``keys`` name.

        A key is a character label, or else a character index under
        ``_character_index``; the first key that is neither raises
        :class:`InvalidSubset`.
        """
        dim, mask = self.dim, 0
        for key in keys:
            # the common keys first: an exact int, then a label
            if type(key) is int and 0 <= key < dim:
                mask |= 1 << key
            elif isinstance(key, str):
                i = self._label_index.get(key)
                if i is None:
                    raise InvalidSubset(f"{key!r} does not name a character of {self!r}")
                mask |= 1 << i
            else:
                mask |= 1 << _character_index(key, dim, InvalidSubset)
        return mask

    @cached_property
    def _label_index(self) -> dict[str, int]:
        """Character label to index, built on the first lookup by label."""
        return {self.character_label(i): i for i in range(self.dim)}

    def __repr__(self) -> str:
        return self.describe()


class FunctionAlgebra(CommutativeAlgebra):
    """C(X): all complex functions on a finite space with the sup norm."""

    def __init__(self, space: FiniteSpace):
        if not isinstance(space, FiniteSpace):
            space = FiniteSpace(tuple(space))
        self.space = space
        self.dim = space.size

    def character_label(self, i: int) -> str:
        return self.space.points[i]

    def describe(self) -> str:
        return f"C({{{','.join(self.space.points)}}})"

    def __eq__(self, other) -> bool:
        return isinstance(other, FunctionAlgebra) and self.space == other.space

    def __hash__(self) -> int:
        return hash(("FunctionAlgebra", self.space.points))


class NormalGeneratorAlgebra(CommutativeAlgebra):
    """The unital algebra generated by one normal matrix inside M_n(C).

    Construction checks normality, jointly diagonalizes the Hermitian and
    anti-Hermitian parts (they commute exactly when the generator is
    normal), deduplicates the eigenvalues, and stores the unitary change of
    basis.  Elements are functions on the distinct spectrum; ``materialize``
    turns coordinates back into a dense matrix.  ``distinct_spectrum.merge_tol``
    is the absolute eigenvalue merge cutoff applied.
    """

    def __init__(self, matrix):
        # Everything below works on Ms = M 2^-k (see _matrix_entry), in
        # units of 2^k; scaling by a power of two is exact, so each verdict
        # is the unscaled one wherever the unscaled arithmetic stayed in range,
        # and the cluster gap and the merge cutoff scale with M.
        M, k, Ms = _matrix_entry(matrix, "generator")
        n = M.shape[0]
        # Ms = H + iK with H, K Hermitian: Ms Ms* - Ms* Ms = 2i (X* - X), X = HK
        H = (Ms + Ms.conj().T) / 2
        X = H @ ((Ms - Ms.conj().T) / 2j)
        defect_s = 2 * float(np.linalg.norm(X - X.conj().T))
        fro_s = float(np.linalg.norm(Ms))
        del X, Ms  # only H goes into eigh; Ms is rebuilt after it
        bound_s = NORMALITY_TOL * fro_s * fro_s
        if not defect_s <= bound_s:
            raise NotNormal(defect_s, bound_s, 2 * k)

        w, U = np.linalg.eigh(H)
        del H
        U, eigs_s, W = _joint_diagonalize(M * 2.0**-k, w, U)
        gram = U.conj().T @ U
        gram.reshape(-1)[:: n + 1] -= 1.0  # U* U - I, without building I
        unitary_defect = float(np.linalg.norm(gram))
        if unitary_defect > UNITARITY_TOL * n:
            raise DecompositionFailure(
                f"change of basis is not unitary: defect {unitary_defect:.3e}"
            )
        del gram
        # |conj(U) D - W^T|_F = |D U* - W|_F, which is |U D U* - Ms|_F for a unitary U
        recon_s = float(np.linalg.norm(U.conj() * eigs_s - W.T))
        recon_bound_s = RECONSTRUCTION_TOL * n * fro_s + (defect_s / fro_s if fro_s else 0.0)
        if not recon_s <= recon_bound_s:
            raise DecompositionFailure(
                f"diagonalization does not reproduce the generator: "
                f"defect {_unscale(recon_s, k)[1]} "
                f"exceeds {_unscale(recon_bound_s, k)[1]}"
            )
        top_s = float(np.abs(eigs_s.view(np.float64)).max())  # largest |Re|, |Im|
        if _unscale(top_s, k)[0] == math.inf:
            raise NonFinite("an eigenvalue of the generator overflows a float")
        # two exact factors, because 2.0**k overflows at k = 1024
        eigs = eigs_s * 2.0 ** (k // 2) * 2.0 ** (k - k // 2)

        merge_tol = _unscale(EIGENVALUE_MERGE_TOL, k)[0]
        reps, assign = dedup_points(eigs, merge_tol)
        self.dimension_n = n
        # adding 0.0 turns -0.0 into 0.0, so equal generators have equal bytes
        self.generator = _readonly(np.add(M, 0.0, order="C"))
        self.eigenvalues = tuple(complex(v) for v in eigs)
        self.eigenvectors = _readonly(U)
        self.distinct_spectrum = SpectrumSet(reps, merge_tol)
        self.multiplicity_map = assign
        self.dim = len(reps)

    def character_label(self, i: int) -> str:
        return str(i)

    def describe(self) -> str:
        return f"Alg(N) with n={self.dimension_n}, {self.dim} spectrum points"

    def generator_element(self) -> "AlgebraElement":
        """The generator itself, i.e. the identity function on the spectrum."""
        return self._fresh(np.asarray(self.distinct_spectrum.points, dtype=complex))

    def materialize(self, a: "AlgebraElement") -> np.ndarray:
        """Dense n-by-n form U diag(f(lambda)) U* of an element; NonFinite if it overflows."""
        _same_algebra(a.algebra, self, "element belongs to a different algebra")
        diag = a.coords[np.asarray(self.multiplicity_map, dtype=int)]
        U = self.eigenvectors
        with np.errstate(over="ignore", invalid="ignore"):
            dense = (U * diag) @ U.conj().T
        if not np.isfinite(dense).all():
            raise NonFinite("the dense form of the element overflows a float")
        return dense

    def project_matrix(self, matrix) -> tuple["AlgebraElement", float]:
        """Nearest element of the algebra to a raw matrix.

        Returns the element together with the Frobenius residual; a residual
        at machine scale certifies membership.
        """
        A, _, _ = _matrix_entry(matrix, "matrix")
        if A.shape != (self.dimension_n, self.dimension_n):
            raise ValueError("matrix has the wrong shape for this algebra")
        U = self.eigenvectors
        diag = np.diag(U.conj().T @ A @ U)
        mult = np.asarray(self.multiplicity_map, dtype=int)
        coords = np.zeros(self.dim, dtype=complex)
        for k in range(self.dim):
            coords[k] = diag[mult == k].mean()
        element = self._fresh(coords)
        residual = float(np.linalg.norm(self.materialize(element) - A))
        return element, residual

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, NormalGeneratorAlgebra)
            and np.array_equal(self.generator, other.generator)
        )

    def __hash__(self) -> int:
        return hash(("NormalGeneratorAlgebra", self.generator.tobytes()))


def _matrix_entry(matrix, noun: str) -> tuple[np.ndarray, int, np.ndarray]:
    """The one entry for a raw matrix: M, k and Ms = M 2^-k.

    M is ``matrix`` as a complex array, checked square with n >= 1 and finite
    (``noun`` names it in the message); 2^k is above every |Re| and |Im| of M.
    The largest entry of Ms is near 1, so no product of two matrices like Ms
    overflows and none underflows unless it is negligible next to |Ms|^2.
    k >= -1022 keeps 2^-k finite.
    """
    M = np.asarray(matrix, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] < 1:
        raise ValueError(f"{noun} must be a square matrix with n >= 1")
    if not np.all(np.isfinite(M)):
        raise NonFinite(f"{noun} entries must be finite")
    top = np.abs(M.ravel(order="K").view(np.float64)).max()  # largest |Re|, |Im|
    k = max(-1022, math.frexp(top)[1])
    return M, k, M * 2.0**-k


def _joint_diagonalize(M: np.ndarray, w: np.ndarray, U: np.ndarray) -> tuple[np.ndarray, ...]:
    """Unitary U, eigenvalues (the diagonal of W U) and W = U* M of a normal M.

    Starts from ``w, U = eigh(H)``, H the Hermitian part of M that the caller's
    normality check shares, and fixes the basis inside clusters of nearly
    equal eigenvalues by diagonalizing the anti-Hermitian part there.  Clusters
    are needed because eigenvectors of nearly degenerate Hermitian eigenvalues
    are individually ill-conditioned even though their span is stable.
    Hermitian eigenvalues closer than ``CLUSTER_GAP_TOL`` max(1, max |w|) form
    a cluster; M is the generator scaled so its largest entry is near 1.
    W is formed once: a cluster's block of the anti-Hermitian part is
    (B - B*)/2i for B = W[s:e] U[:, s:e], each rotation of U's columns rotates
    W's rows with it (n k^2 work for a cluster of k), and the eigenvalues are
    the diagonal of W U, n^2 work.
    """
    n = M.shape[0]
    W = U.conj().T @ M
    gap_tol = CLUSTER_GAP_TOL * max(1.0, float(np.abs(w).max()))
    wl = w.tolist()
    start = 0
    for stop in range(1, n + 1):
        if stop < n and wl[stop] - wl[stop - 1] <= gap_tol:
            continue
        if stop - start > 1:
            Mb = W[start:stop] @ U[:, start:stop]
            _, Q = np.linalg.eigh((Mb - Mb.conj().T) / 2j)
            U[:, start:stop] = U[:, start:stop] @ Q
            W[start:stop] = Q.conj().T @ W[start:stop]
        start = stop
    eigs = np.vecdot(W.conj(), U.T)
    return U, eigs, W


class AlgebraElement:
    """An element in character coordinates; one value per character.

    Supports ``+``, ``-``, ``*`` (both scalar and element), ``star`` and
    ``norm``.  Mixing elements of different algebras raises
    :class:`AlgebraMismatch`.
    """

    __slots__ = ("algebra", "coords")

    def __init__(self, algebra: CommutativeAlgebra, coords: np.ndarray):
        self.algebra = algebra
        self.coords = coords

    def _check_same(self, other: "AlgebraElement") -> None:
        if not isinstance(other, AlgebraElement):
            raise TypeError(f"expected an algebra element, got {other!r}")
        if other.algebra is not self.algebra and other.algebra != self.algebra:
            raise AlgebraMismatch(
                f"operands live in different algebras: "
                f"{self.algebra.describe()} vs {other.algebra.describe()}"
            )

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check_same(other)
        return self.algebra._fresh(self.coords + other.coords)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check_same(other)
        return self.algebra._fresh(self.coords - other.coords)

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            self._check_same(other)
            return self.algebra._fresh(self.coords * other.coords)
        if isinstance(other, (int, float, complex, np.number)):
            return self.algebra._fresh(self.coords * complex(other))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex, np.number)):
            return self.algebra._fresh(complex(other) * self.coords)
        return NotImplemented

    def star(self) -> "AlgebraElement":
        """The involution: coordinatewise complex conjugation."""
        return self.algebra._fresh(np.conj(self.coords))

    def norm(self) -> float:
        """Sup norm: the largest coordinate modulus."""
        return float(np.maximum.reduce(np.abs(self.coords)))

    def __repr__(self) -> str:
        vals = ", ".join(f"{v:.6g}" for v in self.coords[:6])
        tail = ", ..." if self.coords.shape[0] > 6 else ""
        return f"<element [{vals}{tail}] of {self.algebra.describe()}>"


@dataclass(frozen=True)
class StarHomomorphism:
    """A unital *-homomorphism between the two models, as a pullback.

    ``character_images[j]`` is the index of the source character obtained by
    composing the j-th target character with the map.  Applying the map to
    an element reindexes its coordinates, so units go to units and all the
    algebraic laws hold by construction.
    """

    source: CommutativeAlgebra
    target: CommutativeAlgebra
    character_images: tuple[int, ...]

    def __post_init__(self):
        dim = self.source.dim
        images = tuple(
            _character_index(i, dim, InvalidPointMap) for i in self.character_images
        )
        object.__setattr__(self, "character_images", images)
        if len(images) != self.target.dim:
            raise InvalidPointMap(
                f"need {self.target.dim} character images, got {len(images)}"
            )

    @classmethod
    def identity(cls, algebra: CommutativeAlgebra) -> "StarHomomorphism":
        return cls(algebra, algebra, tuple(range(algebra.dim)))

    def __call__(self, a: AlgebraElement) -> AlgebraElement:
        _same_algebra(a.algebra, self.source, "element does not belong to the source algebra")
        return self.target._fresh(a.coords[list(self.character_images)])

    def then(self, other: "StarHomomorphism") -> "StarHomomorphism":
        """Composite ``other . self`` (apply self first)."""
        _same_algebra(other.source, self.target, "composition needs matching middle algebra")
        images = tuple(
            self.character_images[j] for j in other.character_images
        )
        return StarHomomorphism(self.source, other.target, images)

    def __repr__(self) -> str:
        return (
            f"StarHomomorphism({self.source.describe()} -> "
            f"{self.target.describe()}, images={self.character_images})"
        )


make_function_algebra = FunctionAlgebra
make_normal_generator_algebra = NormalGeneratorAlgebra


def make_star_homomorphism(
    point_map, source: CommutativeAlgebra, target: CommutativeAlgebra
) -> StarHomomorphism:
    """Build the pullback homomorphism from a map of character indices.

    ``point_map[j]`` is the source character index that the j-th target
    character evaluates through.
    """
    return StarHomomorphism(source, target, tuple(point_map))


def restriction_homomorphism(source: FunctionAlgebra, labels) -> StarHomomorphism:
    """Restriction C(X) -> C(Y) for a subset Y of the points of X."""
    labels = tuple(labels)
    if len(set(labels)) != len(labels):
        raise InvalidPointMap(f"restriction labels must be distinct: {labels!r}")
    images = tuple(source.space.index(lab) for lab in labels)
    return StarHomomorphism(source, FunctionAlgebra(FiniteSpace(labels)), images)
