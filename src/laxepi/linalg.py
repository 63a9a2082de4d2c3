"""Exact linear algebra over the rationals.

Everything downstream (hom spaces, torsion tests, epimorphism verdicts) is a
yes/no rank or solvability question, so all arithmetic is exact, and
subspaces carry a canonical reduced row-echelon basis so that equality of
subspaces is plain equality of entries.  A scalar is a Python `int` while it
is integral and a `fractions.Fraction` otherwise: inputs are converted on the
way in, pivot rows are scaled by exact inverses that give ints back, and
products demote integral entries.  A sum of non-integral Fractions may still
leave an integral Fraction; it compares and hashes equal to the int.

Storage is sparse, because the systems the module and functor layers build
are mostly zeros.  A `RationalMatrix` keeps each row as a `{column: value}`
dict of its nonzero entries (`.sp`) and never stores a zero, so equal
matrices have equal rows and hashing the sorted items is canonical.  Rows are
shared between matrices built from one another and are never mutated.
Products, eliminations, reductions and quotient maps visit only nonzero
entries and build their results in this form; a `Subspace` keeps its
canonical basis as such a matrix with the rows keyed by pivot, as
`EchelonBasis` does while it grows.  The dense view `.data` is built on
demand for printing and serialization, and not cached.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from typing import Iterable, Mapping, Sequence

QQ = Fraction

ZERO = 0
ONE = 1

_INT_ONLY = frozenset({int})

Scalar = int | Fraction
SparseRow = dict[int, Scalar]


def frac(x) -> Scalar:
    """Coerce ints, bools, strings like '3/4' and Fractions to a scalar: an int
    when the value is integral, a Fraction otherwise."""
    if isinstance(x, int):
        return int(x)
    if isinstance(x, str):
        x = Fraction(x)
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    raise TypeError(f"cannot interpret {x!r} as a rational number")


def vec(entries: Iterable) -> tuple[Scalar, ...]:
    t = tuple(entries)
    # rows that hold only ints (the common case) are kept as they are
    return t if set(map(type, t)) <= _INT_ONLY else tuple(map(frac, t))


def zero_vec(n: int) -> tuple[Scalar, ...]:
    return (ZERO,) * n


def nonzeros(v: Iterable[Scalar]) -> list[tuple[int, Scalar]]:
    """(index, value) of each nonzero entry of v."""
    return [(j, x) for j, x in enumerate(v) if x]


def _sparse(row: Iterable) -> SparseRow:
    return dict(nonzeros(row))


def _dense(row: Mapping[int, Scalar], n: int) -> list[Scalar]:
    out = [ZERO] * n
    for j, x in row.items():
        out[j] = x
    return out


def _normalize(row: SparseRow, p: int) -> SparseRow:
    """row scaled so that its entry at p is the int ONE; a scaled entry that is
    integral comes out as an int."""
    pv = row[p]
    if pv is ONE:
        return row
    if pv == -1:
        out = {j: -x for j, x in row.items()}
    else:
        inv = Fraction(1, pv)  # exact: never an int division
        out = {}
        for j, x in row.items():
            x *= inv
            out[j] = x.numerator if x.denominator == 1 else x
    out[p] = ONE
    return out


def _eliminate(w: SparseRow, p: int, row: Mapping[int, Scalar]) -> None:
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


def _add_rows(a: SparseRow, b: SparseRow) -> SparseRow:
    """a + b, dropping entries that cancel; returns a itself when b is empty."""
    if not b:
        return a
    out = dict(a)
    for j, y in b.items():
        x = out.get(j)
        if x is None:
            out[j] = y
        else:
            x += y
            if x:
                out[j] = x
            else:
                del out[j]
    return out


def _ints(row: SparseRow) -> SparseRow:
    """row with its integral values as ints; row itself when it holds only ints."""
    return row if _INT_ONLY.issuperset(map(type, row.values())) else {
        j: frac(x) for j, x in row.items()}


def _shift(row: Mapping[int, Scalar], by: int) -> SparseRow:
    return {j + by: x for j, x in row.items()}


def _reduce_by(
    w: SparseRow, pivot_rows: Mapping[int, Mapping[int, Scalar]]
) -> SparseRow:
    """w reduced in place by canonical rows keyed by their pivots."""
    # rows vanish at each other's pivots, so the pivots met are fixed up front
    for p in [j for j in w if j in pivot_rows]:
        _eliminate(w, p, pivot_rows[p])
    return w


class DimensionMismatch(ValueError):
    """Operands have incompatible shapes or ambient dimensions."""


class RationalMatrix:
    """Immutable matrix of exact scalars kept as sparse rows; supports zero rows/columns.

    `sp` holds one `{column: value}` dict per row, without zero values; a
    value is an int or, when not integral, a Fraction.
    """

    __slots__ = ("rows", "cols", "sp")

    def __init__(self, data: Sequence[Sequence], rows: int | None = None, cols: int | None = None):
        rows_t = tuple(map(tuple, data))
        if not set(map(type, chain.from_iterable(rows_t))) <= _INT_ONLY:
            rows_t = tuple(tuple(map(frac, r)) for r in rows_t)
        if rows is None:
            rows = len(rows_t)
        if cols is None:
            cols = len(rows_t[0]) if rows_t else 0
        if len(rows_t) != rows or any(map(cols.__ne__, map(len, rows_t))):
            raise DimensionMismatch("ragged or mis-sized matrix data")
        _set_rows(self, rows)
        _set_cols(self, cols)
        _set_sp(self, tuple(map(_sparse, rows_t)))

    def __setattr__(self, name, value):
        raise AttributeError("RationalMatrix is immutable")

    @classmethod
    def from_sparse_rows(cls, sp: Sequence[SparseRow], cols: int) -> "RationalMatrix":
        """The matrix with the given `{column: value}` rows, kept as they are.

        The rows must hold no zero value and no column outside range(cols),
        and must not be mutated afterwards; nothing is checked or copied.
        """
        m = object.__new__(cls)
        _set_rows(m, len(sp))
        _set_cols(m, cols)
        _set_sp(m, tuple(sp))
        return m

    @classmethod
    def from_columns(
        cls, columns: Sequence[Sequence[Scalar] | SparseRow], rows: int
    ) -> "RationalMatrix":
        """The rows x len(columns) matrix of these columns, dense or `{row: value}`."""
        sp: list[SparseRow] = [{} for _ in range(rows)]
        for j, col in enumerate(columns):
            if not isinstance(col, dict) and len(col) != rows:
                raise DimensionMismatch(f"column of length {len(col)} in a matrix of {rows} rows")
            for i, x in (col.items() if isinstance(col, dict) else enumerate(col)):
                if x:
                    sp[i][j] = x
        return cls.from_sparse_rows(sp, len(columns))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RationalMatrix":
        return cls.from_sparse_rows([{} for _ in range(rows)], cols)

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return _IDENTITIES.get(n) or _IDENTITIES.setdefault(
            n, cls.from_sparse_rows([{i: ONE} for i in range(n)], n))

    def __getitem__(self, ij: tuple[int, int]) -> Scalar:
        i, j = ij
        if not 0 <= j < self.cols:
            raise IndexError("column index out of range")
        return self.sp[i].get(j, ZERO)

    @property
    def data(self) -> tuple[tuple[Scalar, ...], ...]:
        """The dense rows, built on each access."""
        return tuple(tuple(_dense(r, self.cols)) for r in self.sp)

    def col(self, j: int) -> tuple[Scalar, ...]:
        return tuple(r.get(j, ZERO) for r in self.sp)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RationalMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.sp == other.sp
        )

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(tuple(sorted(r.items())) for r in self.sp)))

    def __repr__(self):
        entries = [[str(e) for e in r] for r in self.data]
        return f"RationalMatrix({self.rows}x{self.cols}, {entries})"

    def is_zero(self) -> bool:
        return not any(self.sp)

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatch("matrix addition shape mismatch")
        return RationalMatrix.from_sparse_rows(list(map(_add_rows, self.sp, other.sp)), self.cols)

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatch("matrix subtraction shape mismatch")
        return self + (-other)

    def __neg__(self) -> "RationalMatrix":
        return RationalMatrix.from_sparse_rows(
            [{j: -x for j, x in r.items()} for r in self.sp], self.cols
        )

    def scale(self, c) -> "RationalMatrix":
        """c times the matrix; an integral product comes out as an int."""
        c = frac(c)
        if not c:
            return RationalMatrix.zeros(self.rows, self.cols)
        rows = []
        for r in self.sp:
            if type(c) is int and _INT_ONLY.issuperset(map(type, r.values())):
                rows.append({j: c * x for j, x in r.items()})  # int × int: ints already
            else:
                rows.append({j: frac(c * x) for j, x in r.items()})
        return RationalMatrix.from_sparse_rows(rows, self.cols)

    def __mul__(self, other):
        """Matrix product, or scalar multiple when `other` is a scalar.

        Row i of the product is the sum of x * (row k of other) over the
        entries x = self[i, k] of row i; entries that cancel are dropped, and
        integral ones are ints.
        """
        if isinstance(other, RationalMatrix):
            if self.cols != other.rows:
                raise DimensionMismatch(
                    f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
                )
            b_rows = other.sp
            out = []
            for r in self.sp:
                if len(r) == 1:
                    # one term: no sums, so no cancellation
                    ((k, x),) = r.items()
                    br = b_rows[k]
                    out.append(br if x is ONE else _ints({j: x * y for j, y in br.items()}))
                    continue
                acc: SparseRow = {}
                summed = False
                for k, x in r.items():
                    for j, y in b_rows[k].items():
                        s = acc.get(j)
                        if s is None:
                            acc[j] = x * y
                        else:
                            acc[j] = s + x * y
                            summed = True
                out.append(_ints({j: v for j, v in acc.items() if v} if summed else acc))
            return RationalMatrix.from_sparse_rows(out, other.cols)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def apply(self, v: Sequence[Scalar]) -> tuple[Scalar, ...]:
        """Apply to a column vector."""
        if len(v) != self.cols:
            raise DimensionMismatch("vector length mismatch")
        nz = _sparse(v)
        return tuple(
            sum((x * nz[k] for k, x in r.items() if k in nz), ZERO) for r in self.sp
        )

    def transpose(self) -> "RationalMatrix":
        out: list[SparseRow] = [{} for _ in range(self.cols)]
        for i, r in enumerate(self.sp):
            for j, x in r.items():
                out[j][i] = x
        return RationalMatrix.from_sparse_rows(out, self.rows)

    def hstack(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.rows != other.rows:
            raise DimensionMismatch("hstack row mismatch")
        n = self.cols
        return RationalMatrix.from_sparse_rows(
            [{**a, **_shift(b, n)} if b else a for a, b in zip(self.sp, other.sp)],
            n + other.cols,
        )


# the slots' own setters, which the raising __setattr__ does not reach
_set_rows, _set_cols, _set_sp = (
    RationalMatrix.__dict__[a].__set__ for a in RationalMatrix.__slots__
)
_IDENTITIES: dict[int, RationalMatrix] = {}  # one identity per size: matrices are immutable


def block_diag(blocks: Sequence[RationalMatrix]) -> RationalMatrix:
    out: list[SparseRow] = []
    co = 0
    for b in blocks:
        out.extend(_shift(r, co) for r in b.sp)
        co += b.cols
    return RationalMatrix.from_sparse_rows(out, co)


def _rref_rows(
    rows: Sequence[Mapping[int, Scalar] | Sequence[Scalar]], cols: int
) -> tuple[list[SparseRow], list[int]]:
    """Gauss-Jordan on the nonzero entries; returns (nonzero reduced rows, pivot columns).

    `rows` are `{column: value}` dicts without zero values, or dense
    sequences, and are left unchanged.  Each pivot row's nonzero entries are
    listed once, and only those columns of the rows holding the pivot column
    are updated.  The reduced form does not depend on which of those rows
    becomes the pivot row, so the shortest is taken to keep fill-in low.
    """
    active = [
        s for s in (dict(r) if isinstance(r, dict) else _sparse(r) for r in rows) if s
    ]
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
    return [r for _, r in done], [c for c, _ in done]


def rref(m: RationalMatrix) -> tuple[RationalMatrix, tuple[int, ...]]:
    """Reduced row-echelon form of m (same shape, zero rows kept) and pivot columns."""
    reduced, pivots = _rref_rows(m.sp, m.cols)
    full = reduced + [{} for _ in range(m.rows - len(reduced))]
    return RationalMatrix.from_sparse_rows(full, m.cols), tuple(pivots)


def rank(m: RationalMatrix) -> int:
    return len(_rref_rows(m.sp, m.cols)[1])


def is_iso(m: RationalMatrix) -> bool:
    """Square and full rank."""
    return m.rows == m.cols and rank(m) == m.rows


def solve(a: RationalMatrix, b: Sequence[Scalar]) -> tuple[Scalar, ...] | None:
    """One exact solution of a x = b (free variables zeroed), or None if inconsistent."""
    b = vec(b)
    if len(b) != a.rows:
        raise DimensionMismatch(f"rhs length {len(b)} != row count {a.rows}")
    x = solve_matrix(a, RationalMatrix.from_sparse_rows([{0: e} if e else {} for e in b], 1))
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
    reduced, pivots = _rref_rows(a.hstack(b).sp, n + b.cols)
    if pivots and pivots[-1] >= n:
        return None
    out: list[SparseRow] = [{} for _ in range(n)]
    for row, c in zip(reduced, pivots):
        out[c] = {j - n: x for j, x in row.items() if j >= n}
    return RationalMatrix.from_sparse_rows(out, b.cols)


def _quotient_maps(
    n: int, pivot_rows: Mapping[int, Mapping[int, Scalar]]
) -> tuple[RationalMatrix, RationalMatrix]:
    """(P, S) for QQ^n modulo the span of canonical rows keyed by their pivots.

    The quotient coordinates are the free (non-pivot) columns.  Column p of
    the projection P is minus the row with pivot p, read on the free columns;
    the other columns of P, and the columns of the section S, are the unit
    vectors at the free columns.
    """
    free = [j for j in range(n) if j not in pivot_rows]
    where = {j: k for k, j in enumerate(free)}
    proj: list[SparseRow] = [{j: ONE} for j in free]
    for p, row in pivot_rows.items():
        for j, x in row.items():
            if j != p:
                proj[where[j]][p] = -x
    sec: list[SparseRow] = [{} for _ in range(n)]
    for k, j in enumerate(free):
        sec[j] = {k: ONE}
    return (
        RationalMatrix.from_sparse_rows(proj, n),
        RationalMatrix.from_sparse_rows(sec, len(free)),
    )


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
    def _from_rref(cls, n: int, pivots: Sequence[int], rows: Sequence[SparseRow]) -> "Subspace":
        """The subspace with these canonical rows, given in pivot order."""
        s = cls(n, RationalMatrix.from_sparse_rows(rows, n))
        object.__setattr__(s, "_by_pivot", dict(zip(pivots, rows)))
        return s

    @classmethod
    def _spanned_by(
        cls, rows: Sequence[Mapping[int, Scalar] | Sequence[Scalar]], n: int
    ) -> "Subspace":
        reduced, pivots = _rref_rows(rows, n)
        return cls._from_rref(n, pivots, reduced)

    @classmethod
    def from_vectors(cls, vectors: Sequence[Sequence], ambient_dim: int) -> "Subspace":
        rows = [vec(v) for v in vectors]
        for r in rows:
            if len(r) != ambient_dim:
                raise DimensionMismatch("vector length differs from ambient dimension")
        return cls._spanned_by(rows, ambient_dim)

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls._from_rref(ambient_dim, (), ())

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls._from_rref(
            ambient_dim, range(ambient_dim), [{i: ONE} for i in range(ambient_dim)]
        )

    @property
    def dim(self) -> int:
        return self.basis.rows

    def basis_vectors(self) -> list[tuple[Scalar, ...]]:
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
        """The basis rows as {pivot column: row}, in basis order, computed once."""
        try:
            return self._by_pivot
        except AttributeError:
            rows = {min(r): r for r in self.basis.sp if r}
            object.__setattr__(self, "_by_pivot", rows)
            return rows

    def _residue(self, v: Sequence[Scalar] | Mapping[int, Scalar]) -> SparseRow:
        """The nonzero entries of v after eliminating the pivot coordinates of the basis."""
        if isinstance(v, dict):
            w = {j: x for j, x in v.items() if x}
        else:
            w = _sparse(vec(v))
        return _reduce_by(w, self._rows_by_pivot())

    def contains(self, v: Sequence[Scalar] | Mapping[int, Scalar]) -> bool:
        return not self._residue(v)

    def coordinates_of(
        self, v: Sequence[Scalar] | Mapping[int, Scalar]
    ) -> tuple[Scalar, ...] | None:
        """Coefficients of v in the canonical basis rows, or None if v is outside.

        v is given dense or as a `{column: value}` dict.  Each basis row is the
        only one that is nonzero at its pivot, where it is ONE, so the
        coefficients are v's entries at the pivots, and v lies in the span
        exactly when eliminating the pivots leaves nothing.
        """
        if not isinstance(v, dict) and len(v) != self.ambient_dim:
            raise DimensionMismatch(f"vector length {len(v)} != ambient {self.ambient_dim}")
        rows = self._rows_by_pivot()
        w = {j: x for j, x in v.items() if x} if isinstance(v, dict) else _sparse(vec(v))
        coords = tuple(w.get(p, ZERO) for p in rows)
        return None if _reduce_by(w, rows) else coords

    def sum(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch("ambient dimensions differ")
        return Subspace._spanned_by(self.basis.sp + other.basis.sp, self.ambient_dim)

    def quotient_maps(self) -> tuple[RationalMatrix, RationalMatrix]:
        """(projection P, section S) for QQ^n / self; P S = identity.

        Quotient coordinates are the non-pivot coordinates of the reduced
        representative, so the construction is canonical.
        """
        return _quotient_maps(self.ambient_dim, self._rows_by_pivot())


def null_vectors(
    reduced: Sequence[Mapping[int, Scalar]], pivots: Sequence[int], width: int
) -> list[SparseRow]:
    """A basis of the null space of reduced rows with these pivots, read on the
    columns below width: one vector per free column q, with -row[q] at each
    row's pivot."""
    pivot_set = set(pivots)
    out = {q: {q: ONE} for q in range(width) if q not in pivot_set}
    for row, p in zip(reduced, pivots):
        for q, x in row.items():
            if q in out:
                out[q][p] = -x
    return list(out.values())


def kernel_basis(a: RationalMatrix) -> Subspace:
    """Null space {v : a v = 0} as a canonical Subspace of QQ^cols."""
    reduced, pivots = _rref_rows(a.sp, a.cols)
    return Subspace._spanned_by(null_vectors(reduced, pivots, a.cols), a.cols)


def image_basis(a: RationalMatrix) -> Subspace:
    """Column space of a as a canonical Subspace of QQ^rows."""
    return Subspace._spanned_by(a.transpose().sp, a.rows)


def row_space(a: RationalMatrix) -> Subspace:
    return Subspace._spanned_by(a.sp, a.cols)


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

    def _reduce(self, v: Sequence[Scalar] | Mapping[int, Scalar]) -> SparseRow:
        w = {j: x for j, x in v.items() if x} if isinstance(v, dict) else _sparse(vec(v))
        return _reduce_by(w, self.rows)

    def insert(self, v: Sequence[Scalar] | Mapping[int, Scalar]) -> bool:
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

    def contains(self, v: Sequence[Scalar] | Mapping[int, Scalar]) -> bool:
        return not self._reduce(v)

    def free_columns(self) -> list[int]:
        """The non-pivot columns: the coordinates of the quotient by the span."""
        return [j for j in range(self.width) if j not in self.rows]

    def quotient_maps(self) -> tuple[RationalMatrix, RationalMatrix]:
        """The (projection, section) pair of `to_subspace().quotient_maps()`."""
        return _quotient_maps(self.width, self.rows)

    def to_subspace(self) -> Subspace:
        pivots = sorted(self.rows)
        # copies, as later inserts update the rows in place
        return Subspace._from_rref(self.width, pivots, [dict(self.rows[p]) for p in pivots])
