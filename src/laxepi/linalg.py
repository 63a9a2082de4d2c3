"""Exact linear algebra over the rationals.

Everything downstream (hom spaces, torsion tests, epimorphism verdicts) is a
yes/no rank or solvability question, so all arithmetic is exact: scalars are
`fractions.Fraction`, and subspaces carry a canonical reduced row-echelon
basis so that equality of subspaces is plain equality of entries.

Storage is dense: a `RationalMatrix` is an immutable tuple of row tuples and a
`Subspace` keeps its canonical basis as one.  The work is sparse, because the
systems the module and functor layers build are mostly zeros: products,
eliminations, reductions and quotient maps visit only nonzero entries.  Inside
an elimination, in `EchelonBasis` and in a `Subspace`'s cached pivot rows, a
row is a `{column: value}` dict of its nonzero entries.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from typing import Iterable, Mapping, Sequence

QQ = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)

_FRACTION_ONLY = frozenset({Fraction})

SparseRow = dict[int, Fraction]


def frac(x) -> Fraction:
    """Coerce ints, strings like '3/4', and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as a rational number")


def vec(entries: Iterable) -> tuple[Fraction, ...]:
    t = tuple(entries)
    # rows that already hold only Fractions (the common case) are kept as they are
    return t if set(map(type, t)) <= _FRACTION_ONLY else tuple(map(frac, t))


def zero_vec(n: int) -> tuple[Fraction, ...]:
    return (ZERO,) * n


def unit_vec(n: int, i: int) -> tuple[Fraction, ...]:
    return tuple(ONE if j == i else ZERO for j in range(n))


def vec_add(a: Sequence[Fraction], b: Sequence[Fraction]) -> tuple[Fraction, ...]:
    return tuple((x + y if y else x) if x else y for x, y in zip(a, b))


def vec_sub(a: Sequence[Fraction], b: Sequence[Fraction]) -> tuple[Fraction, ...]:
    return tuple((x - y if y else x) if x else (-y if y else ZERO) for x, y in zip(a, b))


def vec_scale(c: Fraction, a: Sequence[Fraction]) -> tuple[Fraction, ...]:
    return tuple(c * x if x else ZERO for x in a)


def nonzeros(v: Iterable[Fraction]) -> list[tuple[int, Fraction]]:
    """(index, value) of each nonzero entry of v."""
    # `x is not ZERO` settles most zeros without calling Fraction.__bool__:
    # the zeros this module and its callers create are the shared ZERO
    return [(j, x) for j, x in enumerate(v) if x is not ZERO and x]


def _sparse(row: Iterable) -> SparseRow:
    return dict(nonzeros(row))


def _dense(row: Mapping[int, Fraction], n: int) -> list[Fraction]:
    out = [ZERO] * n
    for j, x in row.items():
        out[j] = x
    return out


def _normalize(row: SparseRow, p: int) -> SparseRow:
    """row scaled so that its entry at p is ONE."""
    pv = row[p]
    if pv == ONE:
        return row
    inv = ONE / pv
    out = {j: x * inv for j, x in row.items()}
    out[p] = ONE
    return out


def _eliminate(w: SparseRow, p: int, row: Mapping[int, Fraction]) -> None:
    """w -= w[p] * row in place, for a row whose entry at p is ONE."""
    f = w.pop(p)
    for j, b in row.items():
        if j == p:
            continue
        x = w.get(j)
        if x is None:
            w[j] = -(f * b)
        else:
            x -= f * b
            if x:
                w[j] = x
            else:
                del w[j]


class DimensionMismatch(ValueError):
    """Operands have incompatible shapes or ambient dimensions."""


class RationalMatrix:
    """Immutable dense matrix of Fractions; supports zero rows/columns."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: Sequence[Sequence], rows: int | None = None, cols: int | None = None):
        rows_t = tuple(map(tuple, data))
        if not set(map(type, chain.from_iterable(rows_t))) <= _FRACTION_ONLY:
            rows_t = tuple(tuple(map(frac, r)) for r in rows_t)
        if rows is None:
            rows = len(rows_t)
        if cols is None:
            cols = len(rows_t[0]) if rows_t else 0
        if len(rows_t) != rows or any(map(cols.__ne__, map(len, rows_t))):
            raise DimensionMismatch("ragged or mis-sized matrix data")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "data", rows_t)

    def __setattr__(self, name, value):
        raise AttributeError("RationalMatrix is immutable")

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RationalMatrix":
        return cls([zero_vec(cols)] * rows, rows, cols)

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls([unit_vec(n, i) for i in range(n)], n, n)

    @classmethod
    def column(cls, entries: Sequence) -> "RationalMatrix":
        return cls([[e] for e in entries], len(entries), 1)

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        return self.data[i][j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.data[i]

    def col(self, j: int) -> tuple[Fraction, ...]:
        return tuple(r[j] for r in self.data)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RationalMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def __repr__(self):
        return f"RationalMatrix({self.rows}x{self.cols}, {[[str(e) for e in r] for r in self.data]})"

    def is_zero(self) -> bool:
        return all(not e for r in self.data for e in r)

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatch("matrix addition shape mismatch")
        return RationalMatrix(
            [vec_add(a, b) for a, b in zip(self.data, other.data)], self.rows, self.cols
        )

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatch("matrix subtraction shape mismatch")
        return RationalMatrix(
            [vec_sub(a, b) for a, b in zip(self.data, other.data)], self.rows, self.cols
        )

    def __neg__(self) -> "RationalMatrix":
        return RationalMatrix([vec_scale(-ONE, r) for r in self.data], self.rows, self.cols)

    def scale(self, c) -> "RationalMatrix":
        c = frac(c)
        return RationalMatrix([vec_scale(c, r) for r in self.data], self.rows, self.cols)

    def __mul__(self, other):
        """Matrix product, or scalar multiple when `other` is a scalar.

        Row i of the product is the sum of x * (row k of other) over the
        nonzero x = self[i, k], and each such row contributes only its
        nonzero entries.
        """
        if isinstance(other, RationalMatrix):
            if self.cols != other.rows:
                raise DimensionMismatch(
                    f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
                )
            n = other.cols
            b_rows = [(k, br) for k, br in enumerate(map(nonzeros, other.data)) if br]
            out = []
            for r in self.data:
                acc: SparseRow = {}
                for k, br in b_rows:
                    x = r[k]
                    if x is not ZERO and x:
                        for j, y in br:
                            s = acc.get(j)
                            acc[j] = x * y if s is None else s + x * y
                out.append(_dense(acc, n))
            return RationalMatrix(out, self.rows, n)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def apply(self, v: Sequence[Fraction]) -> tuple[Fraction, ...]:
        """Apply to a column vector."""
        if len(v) != self.cols:
            raise DimensionMismatch("vector length mismatch")
        nz = nonzeros(v)
        return tuple(sum((r[k] * y for k, y in nz if r[k]), ZERO) for r in self.data)

    def transpose(self) -> "RationalMatrix":
        data = list(zip(*self.data)) if self.rows else [()] * self.cols
        return RationalMatrix(data, self.cols, self.rows)

    def hstack(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.rows != other.rows:
            raise DimensionMismatch("hstack row mismatch")
        return RationalMatrix(
            [a + b for a, b in zip(self.data, other.data)], self.rows, self.cols + other.cols
        )

    def vstack(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.cols:
            raise DimensionMismatch("vstack column mismatch")
        return RationalMatrix(self.data + other.data, self.rows + other.rows, self.cols)

    def kronecker(self, other: "RationalMatrix") -> "RationalMatrix":
        out = []
        for r1 in self.data:
            for r2 in other.data:
                out.append(tuple(a * b for a in r1 for b in r2))
        return RationalMatrix(out, self.rows * other.rows, self.cols * other.cols)


def block_diag(blocks: Sequence[RationalMatrix]) -> RationalMatrix:
    rows = sum(b.rows for b in blocks)
    cols = sum(b.cols for b in blocks)
    out = [[ZERO] * cols for _ in range(rows)]
    ro = co = 0
    for b in blocks:
        for i in range(b.rows):
            out[ro + i][co : co + b.cols] = list(b.data[i])
        ro += b.rows
        co += b.cols
    return RationalMatrix(out, rows, cols)


def _rref_rows(
    rows: Sequence[Sequence[Fraction]], cols: int
) -> tuple[list[list[Fraction]], list[int]]:
    """Gauss-Jordan on the nonzero entries; returns (nonzero reduced rows, pivot columns).

    `rows` is left unchanged.  Each pivot row's nonzero entries are listed
    once, and only those columns of the rows holding the pivot column are
    updated.  The reduced form does not depend on which of those rows
    becomes the pivot row, so the shortest is taken to keep fill-in low.
    """
    active = [r for r in map(_sparse, rows) if r]
    done: list[tuple[int, SparseRow]] = []
    for c in range(cols):
        if not active:
            break
        hits = [r for r in active if c in r]
        if not hits:
            continue
        src = min(hits, key=len)
        pivot = _normalize(src, c)
        for r in hits:
            if r is not src:
                _eliminate(r, c, pivot)
        for _, r in done:
            if c in r:
                _eliminate(r, c, pivot)
        active = [r for r in active if r and c not in r]
        done.append((c, pivot))
    return [_dense(r, cols) for _, r in done], [c for c, _ in done]


def rref(m: RationalMatrix) -> tuple[RationalMatrix, tuple[int, ...]]:
    """Reduced row-echelon form of m (same shape, zero rows kept) and pivot columns."""
    reduced, pivots = _rref_rows(m.data, m.cols)
    full = reduced + [zero_vec(m.cols)] * (m.rows - len(reduced))
    return RationalMatrix(full, m.rows, m.cols), tuple(pivots)


def rank(m: RationalMatrix) -> int:
    return len(_rref_rows(m.data, m.cols)[1])


def is_iso(m: RationalMatrix) -> bool:
    """Square and full rank."""
    return m.rows == m.cols and rank(m) == m.rows


def solve(a: RationalMatrix, b: Sequence[Fraction]) -> tuple[Fraction, ...] | None:
    """One exact solution of a x = b (free variables zeroed), or None if inconsistent."""
    b = vec(b)
    if len(b) != a.rows:
        raise DimensionMismatch(f"rhs length {len(b)} != row count {a.rows}")
    x = solve_matrix(a, RationalMatrix([(e,) for e in b], a.rows, 1))
    return None if x is None else x.col(0)


def solve_matrix(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix | None:
    """Solve a X = b (free variables zeroed); None if any column is inconsistent.

    One elimination of [a | b] serves every column: a column of b is
    inconsistent exactly when [a | b] has a pivot right of a.
    """
    if b.rows != a.rows:
        raise DimensionMismatch("solve_matrix shape mismatch")
    n = a.cols
    if b.cols == 0:
        return RationalMatrix.zeros(n, 0)
    reduced, pivots = _rref_rows([ra + rb for ra, rb in zip(a.data, b.data)], n + b.cols)
    if pivots and pivots[-1] >= n:
        return None
    out = [zero_vec(b.cols)] * n
    for row, c in zip(reduced, pivots):
        out[c] = row[n:]
    return RationalMatrix(out, n, b.cols)


def _quotient_maps(
    n: int, pivot_rows: Mapping[int, Mapping[int, Fraction]]
) -> tuple[RationalMatrix, RationalMatrix]:
    """(P, S) for QQ^n modulo the span of canonical rows keyed by their pivots.

    The quotient coordinates are the free (non-pivot) columns.  Column p of
    the projection P is minus the row with pivot p, read on the free columns;
    the other columns of P, and the columns of the section S, are the unit
    vectors at the free columns.
    """
    free = [j for j in range(n) if j not in pivot_rows]
    where = {j: k for k, j in enumerate(free)}
    proj = [[ZERO] * n for _ in free]
    for k, j in enumerate(free):
        proj[k][j] = ONE
    for p, row in pivot_rows.items():
        for j, x in row.items():
            if j != p:
                proj[where[j]][p] = -x
    sec = [zero_vec(len(free))] * n
    for k, j in enumerate(free):
        sec[j] = unit_vec(len(free), k)
    return RationalMatrix(proj, len(free), n), RationalMatrix(sec, n, len(free))


class Subspace:
    """A subspace of QQ^n with canonical RREF row basis; equality is entry equality."""

    __slots__ = ("ambient_dim", "basis", "_by_pivot")

    def __init__(self, ambient_dim: int, basis: RationalMatrix):
        if basis.cols != ambient_dim:
            raise DimensionMismatch("basis width differs from ambient dimension")
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", basis)

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def from_vectors(cls, vectors: Sequence[Sequence], ambient_dim: int) -> "Subspace":
        rows = [vec(v) for v in vectors]
        for r in rows:
            if len(r) != ambient_dim:
                raise DimensionMismatch("vector length differs from ambient dimension")
        reduced, _ = _rref_rows(rows, ambient_dim)
        return cls(ambient_dim, RationalMatrix(reduced, len(reduced), ambient_dim))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, RationalMatrix.zeros(0, ambient_dim))

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, RationalMatrix.identity(ambient_dim))

    @property
    def dim(self) -> int:
        return self.basis.rows

    def basis_vectors(self) -> list[tuple[Fraction, ...]]:
        return list(self.basis.data)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of QQ^{self.ambient_dim})"

    def is_zero(self) -> bool:
        return self.dim == 0

    def is_full(self) -> bool:
        return self.dim == self.ambient_dim

    def _rows_by_pivot(self) -> dict[int, SparseRow]:
        """The basis rows as {pivot column: {column: value}}, computed once."""
        try:
            return self._by_pivot
        except AttributeError:
            rows = {}
            for r in self.basis.data:
                s = _sparse(r)
                if s:
                    rows[next(iter(s))] = s
            object.__setattr__(self, "_by_pivot", rows)
            return rows

    def reduce(self, v: Sequence[Fraction]) -> tuple[Fraction, ...]:
        """Residue of v after eliminating the pivot coordinates of the basis."""
        w = list(vec(v))
        for p, row in self._rows_by_pivot().items():
            f = w[p]
            if f:
                for j, b in row.items():
                    w[j] = ZERO if j == p else w[j] - f * b
        return tuple(w)

    def contains(self, v: Sequence[Fraction]) -> bool:
        return not any(self.reduce(v))

    def contains_subspace(self, other: "Subspace") -> bool:
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch("ambient dimensions differ")
        return all(self.contains(r) for r in other.basis.data)

    def coordinates_of(self, v: Sequence[Fraction]) -> tuple[Fraction, ...] | None:
        """Coefficients of v in the canonical basis rows, or None if v is outside."""
        return solve(self.basis.transpose(), v)

    def sum(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch("ambient dimensions differ")
        return Subspace.from_vectors(
            list(self.basis.data) + list(other.basis.data), self.ambient_dim
        )

    def intersect(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch("ambient dimensions differ")
        # x = B1^T u = B2^T w; kernel of [B1^T | -B2^T] yields the intersection.
        d1, d2 = self.dim, other.dim
        if d1 == 0 or d2 == 0:
            return Subspace.zero(self.ambient_dim)
        stacked = self.basis.transpose().hstack(other.basis.transpose().scale(-ONE))
        ker = kernel_basis(stacked)
        vecs = []
        for kv in ker.basis.data:
            u = kv[:d1]
            vecs.append(self.basis.transpose().apply(u))
        return Subspace.from_vectors(vecs, self.ambient_dim)

    def quotient_maps(self) -> tuple[RationalMatrix, RationalMatrix]:
        """(projection P, section S) for QQ^n / self; P S = identity.

        Quotient coordinates are the non-pivot coordinates of the reduced
        representative, so the construction is canonical.
        """
        return _quotient_maps(self.ambient_dim, self._rows_by_pivot())


def kernel_basis(a: RationalMatrix) -> Subspace:
    """Null space {v : a v = 0} as a canonical Subspace of QQ^cols."""
    reduced, pivots = _rref_rows(a.data, a.cols)
    # row k of the projection modulo the row space of a is the null vector
    # with unit entry at the k-th free column
    proj, _ = _quotient_maps(a.cols, {p: _sparse(r) for r, p in zip(reduced, pivots)})
    return Subspace.from_vectors(proj.data, a.cols)


def image_basis(a: RationalMatrix) -> Subspace:
    """Column space of a as a canonical Subspace of QQ^rows."""
    return Subspace.from_vectors(a.transpose().data, a.rows)


def row_space(a: RationalMatrix) -> Subspace:
    return Subspace.from_vectors(a.data, a.cols)


class EchelonBasis:
    """Incremental reduced row-echelon basis for streaming span computations.

    `rows` maps each pivot column to its row, kept as {column: value} with
    value ONE at the pivot and zero (absent) at every other pivot.  Vectors
    are given as dense sequences or as {column: value} dicts.
    """

    def __init__(self, width: int):
        self.width = width
        self.rows: dict[int, SparseRow] = {}

    @property
    def dim(self) -> int:
        return len(self.rows)

    def _reduce(self, v: Sequence[Fraction] | Mapping[int, Fraction]) -> SparseRow:
        w = {j: x for j, x in v.items() if x} if isinstance(v, dict) else _sparse(v)
        # rows vanish at each other's pivots, so the pivots met are fixed up front
        for p in [j for j in w if j in self.rows]:
            _eliminate(w, p, self.rows[p])
        return w

    def insert(self, v: Sequence[Fraction] | Mapping[int, Fraction]) -> bool:
        """Add v to the span; returns True when the dimension grew."""
        w = self._reduce(v)
        if not w:
            return False
        p = min(w)
        w = _normalize(w, p)
        for row in self.rows.values():
            if p in row:
                _eliminate(row, p, w)
        self.rows[p] = w
        return True

    def contains(self, v: Sequence[Fraction] | Mapping[int, Fraction]) -> bool:
        return not self._reduce(v)

    def free_columns(self) -> list[int]:
        """The non-pivot columns: the coordinates of the quotient by the span."""
        return [j for j in range(self.width) if j not in self.rows]

    def quotient_maps(self) -> tuple[RationalMatrix, RationalMatrix]:
        """The (projection, section) pair of `to_subspace().quotient_maps()`."""
        return _quotient_maps(self.width, self.rows)

    def to_subspace(self) -> Subspace:
        rows = [_dense(self.rows[p], self.width) for p in sorted(self.rows)]
        return Subspace(self.width, RationalMatrix(rows, len(rows), self.width))
