"""Exact integer matrix algebra: Smith normal form, determinants, kernels,
cokernel invariants, signatures, and negative-definite form recognition.

Everything runs on Python integers (arbitrary precision); no floating point
enters any result.  Pivot choices are deterministic: smallest nonzero
absolute value, ties broken by position.

One ``snf`` yields a matrix's cokernel invariants, kernel basis and (for a
square matrix) determinant.  It builds the transform V only for
``kernel_basis``, and U only on request: nothing in the package reads U.
Every product goes through ``IntMatrix.mul``, which skips the zero
coefficients of its left factor, and every congruence c q c^T through
``congruence``.  ``is_diag_minus_one`` splits a diagonal -1 off with a
closed-form complement, exactly the one-row SNF kernel, so no SNF runs on
that path; ``det`` runs only before a lattice search.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress
from math import gcd, isqrt, prod

from .errors import NotSquareError


@dataclass(frozen=True)
class IntMatrix:
    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count must equal rows * cols")

    @staticmethod
    def from_rows(rows: list[list[int]]) -> "IntMatrix":
        r = len(rows)
        c = len(rows[0]) if rows else 0
        for row in rows:
            if len(row) != c:
                raise ValueError("ragged rows")
        return IntMatrix(r, c, tuple(int(v) for row in rows for v in row))

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @staticmethod
    def zero(rows: int, cols: int) -> "IntMatrix":
        return IntMatrix(rows, cols, (0,) * (rows * cols))

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols: (i + 1) * self.cols]

    def col(self, j: int) -> tuple[int, ...]:
        return self.entries[j::self.cols]

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "IntMatrix":
        return IntMatrix(self.cols, self.rows,
                         tuple(chain.from_iterable(map(self.col, range(self.cols)))))

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        """Row i of the product is the sum of a * other.row(k) over the nonzero
        entries a = self[i][k]: the cost follows the nonzeros of self."""
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        rows = [other.row(k) for k in range(other.rows)]
        zero = (0,) * other.cols
        out = []
        for i in range(self.rows):
            r = self.row(i)
            acc = None
            for a, row in compress(zip(r, rows), r):
                acc = ([a * x for x in row] if acc is None
                       else [s + a * x for s, x in zip(acc, row)])
            out.extend(zero if acc is None else acc)
        return IntMatrix(self.rows, other.cols, tuple(out))

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and all(
            self.at(i, j) == self.at(j, i) for i in range(self.rows) for j in range(i))

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.at(i, i) for i in range(min(self.rows, self.cols)))

    def __str__(self):
        return "\n".join(" ".join(f"{v:4d}" for v in self.row(i)) for i in range(self.rows))


@dataclass(frozen=True)
class SNFResult:
    """U @ m @ V == S, with ``sign`` = det(U) * det(V), which is +1 or -1.
    U and V are None unless ``snf`` was asked to build them."""
    U: IntMatrix | None
    S: IntMatrix
    V: IntMatrix | None
    sign: int

    def kernel_basis(self) -> list[tuple[int, ...]]:
        """Columns of V at the zero diagonal slots of S: a basis of ker(m)."""
        if self.V is None:
            raise ValueError("kernel_basis needs the transform V: call snf(m, v=True)")
        diag = self.S.diagonal()
        return [self.V.col(j) for j in range(self.S.cols)
                if j >= len(diag) or diag[j] == 0]

    def coker_invariants(self) -> list[int]:
        """Nontrivial invariant factors of coker(m); each free summand is a 0."""
        nonzero = [d for d in self.S.diagonal() if d != 0]
        factors = [d for d in nonzero if d != 1]
        factors.extend([0] * (self.S.rows - len(nonzero)))
        return factors

    def det(self) -> int:
        """det(m) of a square m: the product of S's diagonal times ``sign``."""
        if self.S.rows != self.S.cols:
            raise NotSquareError(
                f"determinant needs a square matrix, got {self.S.rows}x{self.S.cols}")
        return self.sign * prod(self.S.diagonal())


def det(m: IntMatrix) -> int:
    """Exact determinant via fraction-free Bareiss elimination."""
    if m.rows != m.cols:
        raise NotSquareError(f"determinant needs a square matrix, got {m.rows}x{m.cols}")
    n = m.rows
    if n == 0:
        return 1
    a = m.to_rows()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot_row = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if pivot_row is None:
                return 0
            a[k], a[pivot_row] = a[pivot_row], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def congruence(q: IntMatrix, c: IntMatrix) -> IntMatrix:
    """c @ q @ c^T for a symmetric q.  Both products keep c on the left, so
    they cost what the nonzeros of c's rows cost."""
    return c.mul(c.mul(q).transpose())


def snf(m: IntMatrix, *, u: bool = False, v: bool = False) -> SNFResult:
    """Smith normal form U @ m @ V == S, with U and V built only on request.

    The diagonal of S is non-negative and satisfies d_i | d_{i+1}.  Every
    row or column swap and every row negation flips the tracked unit
    ``sign`` = det(U) * det(V); row and column additions leave it alone.
    So det(m) = sign * prod(diag S) for square m, with no second pass.
    The pivot sequence, hence S and ``sign``, does not depend on ``u``/``v``.
    """
    a = m.to_rows()
    R, C = m.rows, m.cols
    # the matrices each row (column) operation applies to: S, and U (V) when asked for
    by_rows = [a, IntMatrix.identity(R).to_rows()] if u else [a]
    by_cols = [a, IntMatrix.identity(C).to_rows()] if v else [a]
    sign = 1

    def swap_rows(i, j):
        nonlocal sign
        if i != j:
            for x in by_rows:
                x[i], x[j] = x[j], x[i]
            sign = -sign

    def swap_cols(i, j):
        nonlocal sign
        if i != j:
            for x in by_cols:
                for row in x:
                    row[i], row[j] = row[j], row[i]
            sign = -sign

    def add_row(dst, src, q):
        # row dst += q * row src
        if q:
            for x in by_rows:
                x[dst] = [p + q * s for p, s in zip(x[dst], x[src])]

    def add_col(dst, src, q):
        if q:
            for x in by_cols:
                for row in x:
                    row[dst] += q * row[src]

    def negate_row(i):
        nonlocal sign
        for x in by_rows:
            x[i] = [-y for y in x[i]]
        sign = -sign

    def find_pivot(t):
        # the first entry of least absolute value, row by row; a unit is least
        best, least = None, 0
        for i in range(t, R):
            row = a[i]
            for j in range(t, C):
                val = row[j]
                if val and (best is None or abs(val) < least):
                    best, least = (i, j), abs(val)
                    if least == 1:
                        return best
        return best

    t = 0
    while t < min(R, C):
        piv = find_pivot(t)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        while True:
            # Clear column t, re-pivoting on any nonzero remainder.
            restart = False
            for i in range(t + 1, R):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    add_row(i, t, -q)
                    if a[i][t]:
                        swap_rows(t, i)
                        restart = True
                        break
            if restart:
                continue
            for j in range(t + 1, C):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    add_col(j, t, -q)
                    if a[t][j]:
                        swap_cols(t, j)
                        restart = True
                        break
            if restart:
                continue
            # Enforce the divisibility chain before moving on; a unit divides all.
            d = a[t][t]
            bad = None if d in (1, -1) else next(
                (i for i in range(t + 1, R) if any(x % d for x in a[i][t + 1:])), None)
            if bad is None:
                break
            add_row(t, bad, 1)
        if a[t][t] < 0:
            negate_row(t)
        t += 1

    return SNFResult(IntMatrix.from_rows(by_rows[1]) if u else None,
                     IntMatrix(R, C, tuple(chain.from_iterable(a))),
                     IntMatrix.from_rows(by_cols[1]) if v else None, sign)


def kernel_basis(m: IntMatrix) -> list[tuple[int, ...]]:
    """Basis of the integer kernel lattice {v : m @ v = 0}.

    Vectors are columns of the SNF transform V for the zero diagonal slots,
    hence primitive and linearly independent.
    """
    return snf(m, v=True).kernel_basis()


def coker_invariants(m: IntMatrix) -> list[int]:
    """Nontrivial invariant factors of Z^rows / column-span(m).

    Finite factors appear in divisibility order; each free summand is a 0.
    An empty list means the cokernel is trivial.
    """
    return snf(m).coker_invariants()


def signature(q: IntMatrix) -> tuple[int, int, int]:
    """(positive, negative, zero) inertia of a symmetric integer matrix.

    Exact integer congruence: at a pivot p, each e_j with c = a[j][p] != 0
    becomes (|p| e_j - sgn(p) c e_p) / gcd(p, c), and rows with c == 0 stay
    untouched, so a sparse form stays sparse.  What is left is the Schur
    complement scaled by squares: same inertia.  The gcd keeps a chain of
    -2 framings polynomial in size; without it the entries square at every
    pivot.  When every diagonal entry left is 0, e_i += e_j on the first
    row i left and the first j it links makes one nonzero, unless row i is 0.
    """
    if not q.is_symmetric():
        raise ValueError("signature needs a symmetric matrix")
    a = q.to_rows()
    remaining = list(range(q.rows))  # the indices not yet split off
    neg = zero = 0
    while remaining:
        i = next((k for k in remaining if a[k][k]), None)
        if i is None:
            i = remaining[0]
            j = next((k for k in remaining if a[i][k]), None)
            if j is None:
                zero += 1
                remaining.pop(0)
                continue
            a[i] = [x + y for x, y in zip(a[i], a[j])]
            for r in remaining:
                a[r][i] += a[r][j]
        remaining.remove(i)
        pivot = a[i]
        p = pivot[i]
        neg += p < 0
        scaled = []
        for j in remaining:
            c = pivot[j]
            if c:
                g = gcd(p, c)
                s, t = abs(p) // g, (c if p > 0 else -c) // g
                a[j] = [s * x - t * y for x, y in zip(a[j], pivot)]
                scaled.append((j, s))
        # the same operations on the columns: a[r][i] is 0 now for every r left
        for r in remaining:
            row = a[r]
            for j, s in scaled:
                row[j] *= s
    return q.rows - neg - zero, neg, zero


@dataclass(frozen=True)
class DiagMinusOneResult:
    """Three-valued verdict: verdict True/False, or None for inconclusive."""
    verdict: bool | None
    witness: IntMatrix | None
    reason: str

    def __bool__(self):
        return self.verdict is True


def _cholesky(p: list[list[Fraction]]):
    """Decompose positive definite p as sum d_k (x_k + sum_{j>k} l_kj x_j)^2."""
    n = len(p)
    a = [row[:] for row in p]
    d = []
    l = [[Fraction(0)] * n for _ in range(n)]
    for k in range(n):
        d.append(a[k][k])
        for j in range(k + 1, n):
            l[k][j] = a[k][j] / a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] -= a[i][k] * a[k][j] / a[k][k]
    return d, l


def _isqrt_frac(x: Fraction) -> int:
    # floor(sqrt(p/q)) = floor(sqrt(p*q)/q)
    return isqrt(x.numerator * x.denominator) // x.denominator


def _norm_one_vectors(p_rows: list[list[Fraction]], height: int):
    """Yield integer vectors v with v^T P v == 1 (P positive definite),
    coordinates bounded by ``height``, in deterministic order."""
    n = len(p_rows)
    d, l = _cholesky(p_rows)
    v = [0] * n

    def rec(k, remaining):
        if k < 0:
            if remaining == 0:
                yield tuple(v)
            return
        center = -sum(l[k][j] * v[j] for j in range(k + 1, n))
        if d[k] <= 0:
            return
        bound = remaining / d[k]
        r = _isqrt_frac(bound) + 1
        lo = max(-height, _frac_ceil(center - r))
        hi = min(height, _frac_floor(center + r))
        for x in range(lo, hi + 1):
            term = d[k] * (Fraction(x) - center) ** 2
            if term <= remaining:
                v[k] = x
                yield from rec(k - 1, remaining - term)
                v[k] = 0

    yield from rec(n - 1, Fraction(1))


def _frac_ceil(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


def _frac_floor(x: Fraction) -> int:
    return x.numerator // x.denominator


def _unit_complement(r: tuple[int, ...]) -> IntMatrix:
    """Rows spanning the kernel of the row r, which has a unit entry: exactly
    the vectors ``kernel_basis`` returns for r, in closed form.  The one-row
    SNF pivots on the first unit r_p (swapping slots 0 and p), so its kernel
    vectors are e_s - r_s r_p e_p for s = 1..m-1, with s = p read as 0."""
    m = len(r)
    p = next(k for k, x in enumerate(r) if x in (1, -1))
    entries = []
    for s in range(1, m):
        s = 0 if s == p else s
        row = [0] * m
        row[s] = 1
        row[p] = -r[s] * r[p]
        entries.extend(row)
    return IntMatrix(m - 1, m, tuple(entries))


SEARCH_HEIGHT = 4  # coefficient bound of the norm -1 vector search


def is_diag_minus_one(q: IntMatrix) -> DiagMinusOneResult:
    """Decide whether symmetric q is unimodularly congruent to -Identity.

    Greedy: peel off norm -1 vectors and recurse on the orthogonal complement
    lattice.  While the current form has a -1 on its diagonal, the first such
    slot is split off with ``_unit_complement``, the one-row SNF kernel in
    closed form, so verdicts and witnesses are those of the general step.
    Only when no diagonal entry is -1 does the lattice search run, for a norm
    -1 vector with coefficients bounded by ``SEARCH_HEIGHT``, followed by an
    SNF kernel.  Both steps update the form through ``congruence``.  Each
    splits off a norm -1 vector, so |det| of the current form stays |det q|:
    ``det`` runs only before a search, and a peel that needs none proves
    |det q| = 1.  Returns a definite False on any definiteness or determinant
    obstruction; an exhausted search without obstruction is inconclusive,
    never False.  A True verdict carries a witness W with W^T q W == -I,
    checked here.
    """
    if not q.is_symmetric():
        raise ValueError("is_diag_minus_one needs a symmetric matrix")
    n = q.rows
    if n == 0:
        return DiagMinusOneResult(True, IntMatrix.identity(0), "empty form")
    pos, neg, zero = signature(q)
    if pos or zero:
        return DiagMinusOneResult(False, None, f"not negative definite (inertia {(pos, neg, zero)})")

    columns: list[tuple[int, ...]] = []
    # row k: the k-th basis vector of the current lattice, in the original coordinates
    basis = IntMatrix.identity(n)
    current = q
    while current.rows:
        m = current.rows
        i = next((k for k in range(m) if current.at(k, k) == -1), None)
        if i is not None:
            vec = tuple(int(k == i) for k in range(m))
            complement = _unit_complement(current.row(i))
        else:
            if abs(det(current)) != 1:
                return DiagMinusOneResult(False, None, "determinant is not a unit")
            p_rows = [[Fraction(-x) for x in current.row(k)] for k in range(m)]
            vec = next(_norm_one_vectors(p_rows, SEARCH_HEIGHT), None)
            if vec is None:
                return DiagMinusOneResult(None, None, "search budget exhausted")
            kernel = kernel_basis(IntMatrix(1, m, vec).mul(current))
            complement = IntMatrix(len(kernel), m, tuple(chain.from_iterable(kernel)))
        columns.append(IntMatrix(1, m, vec).mul(basis).entries)
        basis = complement.mul(basis)
        current = congruence(current, complement)

    witness_t = IntMatrix(n, n, tuple(chain.from_iterable(columns)))
    neg_identity = IntMatrix(n, n, tuple(-int(i == j) for i in range(n) for j in range(n)))
    if congruence(q, witness_t) != neg_identity:
        raise AssertionError("internal error: witness does not verify")
    return DiagMinusOneResult(True, witness_t.transpose(), "witness verified")
