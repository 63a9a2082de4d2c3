from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laxepi.linalg import (
    DimensionMismatch,
    EchelonBasis,
    RationalMatrix,
    Subspace,
    block_diag,
    is_iso,
    kernel_basis,
    rank,
    row_space,
    rref,
    solve,
    solve_matrix,
)

Q = Fraction


def M(rows):
    return RationalMatrix(rows)


entries = st.fractions(
    min_value=-4, max_value=4, max_denominator=3
)
dims = st.integers(min_value=1, max_value=6)


@st.composite
def matrices(draw, max_dim=6):
    r = draw(st.integers(min_value=1, max_value=max_dim))
    c = draw(st.integers(min_value=1, max_value=max_dim))
    data = draw(
        st.lists(
            st.lists(entries, min_size=c, max_size=c), min_size=r, max_size=r
        )
    )
    return RationalMatrix(data)


def test_rref_dependent_rows():
    red, pivots = rref(M([[1, 2], [2, 4]]))
    assert pivots == (0,)
    assert red == M([[1, 2], [0, 0]])


def test_rref_identity_fixed():
    i3 = RationalMatrix.identity(3)
    red, pivots = rref(i3)
    assert red == i3 and pivots == (0, 1, 2)


def test_rref_permutation():
    red, pivots = rref(M([[0, 1], [1, 0]]))
    assert red == RationalMatrix.identity(2)
    assert pivots == (0, 1)


def test_solve_identity():
    assert solve(RationalMatrix.identity(2), [3, 5]) == (Q(3), Q(5))


def test_solve_free_variable_zeroed():
    assert solve(M([[1, 1]]), [2]) == (Q(2), Q(0))


def test_solve_inconsistent():
    assert solve(M([[1], [1]]), [0, 1]) is None


def test_solve_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        solve(M([[1, 1]]), [1, 2])


def test_kernel_of_sum_row():
    k = kernel_basis(M([[1, 1]]))
    assert k.dim == 1
    assert k.contains([1, -1])


def test_intersect_complementary_axes():
    s1 = Subspace.from_vectors([[1, 0]], 2)
    s2 = Subspace.from_vectors([[0, 1]], 2)
    assert s1.intersect(s2).is_zero()


def test_kronecker_identity_factor():
    k = RationalMatrix.identity(2).kronecker(M([[2]]))
    assert k == M([[2, 0], [0, 2]])


def test_is_iso():
    assert is_iso(RationalMatrix.identity(3))
    assert not is_iso(M([[1, 2], [2, 4]]))
    assert not is_iso(M([[1, 0]]))


def test_subspace_canonical_equality():
    a = Subspace.from_vectors([[1, 1], [1, -1]], 2)
    b = Subspace.from_vectors([[2, 0], [3, 5]], 2)
    assert a == b == Subspace.full(2)


def test_quotient_maps_roundtrip():
    s = Subspace.from_vectors([[1, 2, 0]], 3)
    proj, sec = s.quotient_maps()
    assert proj * sec == RationalMatrix.identity(2)
    # the subspace itself dies in the quotient
    assert all(not x for x in proj.apply([1, 2, 0]))


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_rank_nullity(m):
    assert kernel_basis(m).dim + row_space(m).dim == m.cols


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_rref_idempotent(m):
    red, _ = rref(m)
    red2, _ = rref(red)
    assert red2 == red


@settings(max_examples=100, deadline=None)
@given(matrices(), st.data())
def test_solve_exact(m, data):
    x = data.draw(st.lists(entries, min_size=m.cols, max_size=m.cols))
    b = m.apply(x)
    got = solve(m, b)
    assert got is not None
    assert m.apply(got) == tuple(b)


@settings(max_examples=100, deadline=None)
@given(matrices(max_dim=4), st.data())
def test_span_canonicity(m, data):
    # shuffling and rescaling spanning vectors leaves the Subspace unchanged
    perm = data.draw(st.permutations(list(range(m.rows))))
    scales = data.draw(
        st.lists(
            st.fractions(min_value=1, max_value=3, max_denominator=2),
            min_size=m.rows,
            max_size=m.rows,
        )
    )
    rows2 = [tuple(s * x for x in m.data[i]) for i, s in zip(perm, scales)]
    assert Subspace.from_vectors(rows2, m.cols) == row_space(m)


@settings(max_examples=80, deadline=None)
@given(matrices(max_dim=4), matrices(max_dim=4))
def test_sum_and_intersection_dims(a, b):
    if a.cols != b.cols:
        a = b
    s1, s2 = row_space(a), row_space(b)
    total = s1.sum(s2)
    inter = s1.intersect(s2)
    assert total.dim + inter.dim == s1.dim + s2.dim
    assert total.contains_subspace(s1) and total.contains_subspace(s2)
    assert s1.contains_subspace(inter) and s2.contains_subspace(inter)


def test_echelon_matches_subspace():
    eb = EchelonBasis(3)
    assert eb.insert([1, 2, 3])
    assert not eb.insert([2, 4, 6])
    assert eb.insert([0, 0, 1])
    assert eb.to_subspace() == Subspace.from_vectors([[1, 2, 3], [0, 0, 1]], 3)


def test_solve_matrix_right_inverse():
    a = M([[1, 1], [0, 1]])
    x = solve_matrix(a, RationalMatrix.identity(2))
    assert a * x == RationalMatrix.identity(2)


# Mostly-zero inputs (at least 70 % zeros, up to 30 wide) reach the branches of
# products and eliminations that skip zero entries; `matrices` draws dense ones.
nonzero_entries = entries.filter(lambda x: x != 0)


@st.composite
def sparse_matrices(draw, rows=None, cols=None, max_dim=30):
    r = rows if rows is not None else draw(st.integers(min_value=1, max_value=max_dim))
    c = cols if cols is not None else draw(st.integers(min_value=1, max_value=max_dim))
    cells = draw(
        st.sets(st.integers(min_value=0, max_value=r * c - 1), max_size=(r * c * 3) // 10)
    )
    data = [[Q(0)] * c for _ in range(r)]
    for cell in sorted(cells):
        data[cell // c][cell % c] = draw(nonzero_entries)
    return RationalMatrix(data)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_sparse_product_matches_definition(data):
    a = data.draw(sparse_matrices())
    b = data.draw(sparse_matrices(rows=a.cols))
    want = [
        [sum((a[i, k] * b[k, j] for k in range(a.cols)), Q(0)) for j in range(b.cols)]
        for i in range(a.rows)
    ]
    assert a * b == RationalMatrix(want, a.rows, b.cols)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_sparse_solve_matrix_matches_columnwise_solve(data):
    a = data.draw(sparse_matrices())
    if data.draw(st.booleans()):
        b = a * data.draw(sparse_matrices(rows=a.cols, max_dim=6))  # consistent
    else:
        b = data.draw(sparse_matrices(rows=a.rows, max_dim=6))
    columns = [solve(a, b.col(j)) for j in range(b.cols)]
    x = solve_matrix(a, b)
    if any(col is None for col in columns):
        assert x is None
    else:
        assert x is not None and a * x == b
        assert [x.col(j) for j in range(b.cols)] == columns


@settings(max_examples=60, deadline=None)
@given(sparse_matrices())
def test_sparse_echelon_matches_subspace(m):
    eb = EchelonBasis(m.cols)
    for r in m.data:
        eb.insert(r)
    sub = Subspace.from_vectors(m.data, m.cols)
    assert eb.to_subspace() == sub
    as_dicts = EchelonBasis(m.cols)
    for r in m.data:
        as_dicts.insert(dict(enumerate(r)))  # zero values included on purpose
    assert as_dicts.to_subspace() == sub
    proj, sec = eb.quotient_maps()
    assert (proj, sec) == sub.quotient_maps()
    assert proj * sec == RationalMatrix.identity(m.cols - sub.dim)
    assert (proj * m.transpose()).is_zero()


@settings(max_examples=60, deadline=None)
@given(sparse_matrices())
def test_sparse_rref_idempotent(m):
    red, pivots = rref(m)
    assert rref(red) == (red, pivots)


def assert_canonical(m):
    """m stores no zero and no column outside its width, and equals, with an
    equal hash, the matrix rebuilt from its dense rows."""
    assert len(m.sp) == m.rows
    assert all(x for row in m.sp for x in row.values())
    assert all(0 <= j < m.cols for row in m.sp for j in row)
    rebuilt = RationalMatrix(m.data, m.rows, m.cols)
    assert m == rebuilt and hash(m) == hash(rebuilt)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_sparse_storage_is_canonical(data):
    a = data.draw(sparse_matrices(max_dim=8))
    b = data.draw(sparse_matrices(rows=a.rows, cols=a.cols))
    c = data.draw(sparse_matrices(rows=a.cols, max_dim=8))
    s = data.draw(entries)
    # every entry of the product is a sum of terms that cancel in pairs
    cancelled = a.hstack(a) * c.vstack(-c)
    assert cancelled.is_zero()
    partly = (a + b) * c - b * c
    assert partly == a * c
    columns = RationalMatrix.from_columns([a.col(j) for j in range(a.cols)], a.rows)
    assert columns == a
    sol = solve_matrix(a, a * c)
    assert sol is not None and a * sol == a * c
    ker = kernel_basis(a).basis
    assert (a * ker.transpose()).is_zero()
    results = [
        a + b, a - b, a - a, -a, a.scale(s), a.scale(0), a * c, cancelled, partly,
        a.transpose(), a.hstack(b), a.vstack(b), a.kronecker(c), block_diag([a, c, b]),
        columns, rref(a)[0], sol, ker, a * ker.transpose(),
    ]
    for m in results:
        assert_canonical(m)
