"""Algebraic-topology invariants of a datum.

The chain complex of a datum with no 3-handles is
``0 -> Z^{#2-handles} --(exponent-sum matrix)--> Z^{#1-handles} -> 0``;
H1 is the cokernel, H2 the kernel.  Boundary homology comes from the full
symmetric linking matrix with dotted circles converted to 0-framed
components.  The intersection form is the restriction of the 2-handle
linking matrix to the kernel lattice.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from . import linalg
from .datum import KirbyDatum, exponent_matrix, full_linking_matrix
from .errors import UnsupportedThreeHandlesError
from .linalg import IntMatrix


@dataclass(frozen=True)
class HomologyProfile:
    h1_invariants: tuple[int, ...]
    b2: int
    is_contractible_homology: bool


def homology(d: KirbyDatum) -> HomologyProfile:
    """Homology profile of the 4-manifold the datum describes.

    H1 and b2 = rank H2 both come from the diagonal of one SNF of the
    exponent-sum matrix: b2 counts its columns without a nonzero pivot.
    """
    if d.three_handles != 0:
        raise UnsupportedThreeHandlesError(
            "homology of data with explicit 3-handles is not supported")
    mat, _, _ = exponent_matrix(d)
    res = linalg.snf(mat)
    h1 = tuple(res.coker_invariants())
    b2 = mat.cols - sum(1 for x in res.S.diagonal() if x)
    contractible = (not h1) and b2 == 0
    return HomologyProfile(h1, b2, contractible)


@dataclass(frozen=True)
class BoundaryHomology:
    invariant_factors: tuple[int, ...]
    is_homology_sphere: bool
    determinant: int


def boundary_h1(d: KirbyDatum) -> BoundaryHomology:
    """First homology of the boundary 3-manifold.

    Presented by the full linking matrix after dot-to-zero conversion;
    the boundary is a homology sphere exactly when |det| = 1.  One SNF gives
    both: the invariant factors, and the determinant as the product of the
    SNF diagonal times the unit sign ``snf`` tracks through its swaps and
    negations.
    """
    if d.three_handles != 0:
        raise UnsupportedThreeHandlesError(
            "boundary homology of data with explicit 3-handles is not supported")
    mat, _ = full_linking_matrix(d)
    res = linalg.snf(mat)
    factors = tuple(res.coker_invariants())
    determinant = res.det()
    return BoundaryHomology(factors, abs(determinant) == 1, determinant)


def intersection_form(d: KirbyDatum) -> IntMatrix:
    form, _ = intersection_form_with_basis(d)
    return form


def intersection_form_with_basis(d: KirbyDatum):
    """Intersection form on H2 plus the kernel basis realizing it.

    Returns (form, basis) where basis[i] is an integer combination of the
    2-handles (sorted by id) with zero exponent sums; the form is the
    congruence B^T L B of the 2-handle linking block L, B's columns the basis.
    """
    if d.three_handles != 0:
        raise UnsupportedThreeHandlesError(
            "intersection form of data with explicit 3-handles is not supported")
    mat, _, _ = exponent_matrix(d)
    basis = linalg.kernel_basis(mat)
    full, _ = full_linking_matrix(d)
    g, h = len(d.one_handles), mat.cols  # the 2-handle block follows the dotted circles
    link = IntMatrix(h, h, tuple(chain.from_iterable(full.row(i)[g:] for i in range(g, g + h))))
    vectors = IntMatrix(len(basis), h, tuple(chain.from_iterable(basis)))
    return linalg.congruence(link, vectors), basis


# --- characteristic numbers -----------------------------------------------

@dataclass(frozen=True)
class CharNumbers:
    """(b2+, b2-) bookkeeping for closed-manifold connected sums."""
    b2_plus: int
    b2_minus: int

    def __post_init__(self):
        if self.b2_plus < 0 or self.b2_minus < 0:
            raise ValueError("b2 components must be non-negative")

    @property
    def b2(self) -> int:
        return self.b2_plus + self.b2_minus

    @property
    def signature(self) -> int:
        return self.b2_plus - self.b2_minus

    def __add__(self, other: "CharNumbers") -> "CharNumbers":
        return CharNumbers(self.b2_plus + other.b2_plus, self.b2_minus + other.b2_minus)


def char_zero() -> CharNumbers:
    return CharNumbers(0, 0)


def cp2(k: int = 1) -> CharNumbers:
    return CharNumbers(k, 0)


def cp2_bar(k: int = 1) -> CharNumbers:
    return CharNumbers(0, k)


def connected_sum(*parts: CharNumbers) -> CharNumbers:
    total = char_zero()
    for p in parts:
        total = total + p
    return total


def char_numbers_from_form(q: IntMatrix) -> CharNumbers:
    """Characteristic numbers carried by a nondegenerate intersection form."""
    pos, neg, zero = linalg.signature(q)
    if zero:
        raise ValueError("form is degenerate; characteristic numbers undefined")
    return CharNumbers(pos, neg)


def char_numbers_from_datum(d: KirbyDatum) -> CharNumbers:
    return char_numbers_from_form(intersection_form(d))
