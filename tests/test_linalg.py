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
    frac,
    is_iso,
    kernel_basis,
    row_space,
    rref,
    solve,
    solve_matrix,
    vec,
)

Q = Fraction


def M(rows):
    return RationalMatrix(rows)


def _vstack(a, b):
    """The rows of a, then those of b."""
    return RationalMatrix.from_sparse_rows(a.sp + b.sp, a.cols)


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
    assert total.dim == row_space(_vstack(a, b)).dim
    assert all(total.contains(v) for v in s1.basis_vectors() + s2.basis_vectors())


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


def _dense_gauss_jordan(rows, cols):
    """Textbook Gauss-Jordan on dense Fraction rows: for each column in turn,
    the first remaining row that is nonzero there is swapped up, divided by
    that entry, and subtracted from every other row to clear the column.
    Returns the reduced rows, zero rows last, and the pivot columns."""
    a = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for c in range(cols):
        r = len(pivots)
        k = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if k is None:
            continue
        a[r], a[k] = a[k], a[r]
        a[r] = [x / a[r][c] for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
    return a, pivots


@settings(max_examples=100, deadline=None)
@given(st.one_of(matrices(), sparse_matrices()), st.data())
def test_rref_matches_dense_reference(m, data):
    """rref, kernel_basis and solve_matrix agree with a dense Gauss-Jordan
    that shares no code with linalg's elimination."""
    reduced, pivots = _dense_gauss_jordan(m.data, m.cols)
    assert rref(m) == (RationalMatrix(reduced, m.rows, m.cols), tuple(pivots))

    # one null vector per free column q: 1 at q, minus the column at each pivot
    null = []
    for q in (j for j in range(m.cols) if j not in pivots):
        v = [Fraction(0)] * m.cols
        v[q] = Fraction(1)
        for row, p in zip(reduced, pivots):
            v[p] = -row[q]
        null.append(v)
    ker, ker_pivots = _dense_gauss_jordan(null, m.cols)
    want = RationalMatrix(ker[: len(ker_pivots)], len(ker_pivots), m.cols)
    assert kernel_basis(m).basis == want

    if data.draw(st.booleans()):
        b = m * data.draw(sparse_matrices(rows=m.cols, max_dim=4))  # consistent
    else:
        b = data.draw(sparse_matrices(rows=m.rows, max_dim=4))
    n = m.cols
    aug, aug_pivots = _dense_gauss_jordan(
        [ra + rb for ra, rb in zip(m.data, b.data)], n + b.cols
    )
    if any(p >= n for p in aug_pivots):
        assert solve_matrix(m, b) is None
    else:
        x = [[Fraction(0)] * b.cols for _ in range(n)]
        for row, p in zip(aug, aug_pivots):
            x[p] = row[n:]
        assert solve_matrix(m, b) == RationalMatrix(x, n, b.cols)


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
    cancelled = a.hstack(a) * _vstack(c, -c)
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
        a.transpose(), a.hstack(b), _vstack(a, b), block_diag([a, c, b]),
        columns, rref(a)[0], sol, ker, a * ker.transpose(),
    ]
    for m in results:
        assert_canonical(m)


def assert_scalar_form(m, pivots=None):
    """Every entry of m is an int or a Fraction, never a float or a bool; the
    rows with the given pivots are exactly the int 1 there; and m equals, with
    an equal hash, both its rebuild from `.data` and the same rows as Fractions."""
    values = [x for row in m.sp for x in row.values()]
    assert all(type(x) in (int, Fraction) for x in values), values
    for row, p in zip(m.sp, pivots or ()):
        assert type(row[p]) is int and row[p] == 1
    as_fractions = RationalMatrix.from_sparse_rows(
        [{j: Fraction(x) for j, x in row.items()} for row in m.sp], m.cols
    )
    rebuilt = RationalMatrix([[Fraction(x) for x in row] for row in m.data], m.rows, m.cols)
    for other in (as_fractions, rebuilt):
        assert m == other and hash(m) == hash(other)


def test_frac_keeps_integral_values_as_ints():
    for x in (2, Fraction(4, 2), "2/1", "2"):
        assert type(frac(x)) is int and frac(x) == 2
    assert type(frac(True)) is int and frac(True) == 1
    assert type(frac("3/4")) is Fraction and frac("3/4") == Fraction(3, 4)
    assert [type(x) for x in vec([Fraction(3), True, "-1/2"])] == [int, int, Fraction]
    m = RationalMatrix([[Fraction(6, 3), Fraction(1, 2)], [False, "4/2"]])
    assert [[type(x) for x in row] for row in m.data] == [[int, Fraction], [int, int]]


def test_pivots_of_negative_rows_are_int_one():
    """Pivots of -1 and of -1 as a Fraction are scaled to the int 1."""
    for m in (
        -RationalMatrix.identity(3),
        M([[-1, 2, 0], [0, Q(-1), Q(1, 2)], [2, 0, -1]]),
        M([[0, -1, 3], [0, 2, -6]]),
        M([[-2, 1, 1], [Q(1, 2), 0, -1]]),
    ):
        red, pivots = rref(m)
        assert_scalar_form(red, pivots)
        ker = kernel_basis(m).basis
        assert_scalar_form(ker, [min(r) for r in ker.sp])
        assert_scalar_form(Subspace.from_vectors(m.data, m.cols).basis, pivots)
        eb = EchelonBasis(m.cols)
        for r in m.sp:
            eb.insert(r)
        assert_scalar_form(RationalMatrix.from_sparse_rows([eb.rows[p] for p in pivots], m.cols), pivots)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_scalar_form_of_results(data):
    a = data.draw(sparse_matrices(max_dim=8))
    b = data.draw(sparse_matrices(rows=a.rows, cols=a.cols))
    c = data.draw(sparse_matrices(rows=a.cols, max_dim=8))
    s = data.draw(entries)
    assert_scalar_form(a)
    red, pivots = rref(a)
    sol = solve_matrix(a, a * c)
    ker = kernel_basis(a)
    span = Subspace.from_vectors(a.data, a.cols)
    eb = EchelonBasis(a.cols)
    for r in a.data:
        eb.insert(r)
    eb_pivots = sorted(eb.rows)
    results = [
        (a + b, None), (a - b, None), (-a, None), (a.scale(s), None), (a * c, None),
        (a.transpose(), None), (red, pivots), (sol, None),
        (ker.basis, [min(r) for r in ker.basis.sp]),
        (span.basis, pivots),
        (RationalMatrix.from_sparse_rows([eb.rows[p] for p in eb_pivots], a.cols), eb_pivots),
    ]
    for m, ps in results:
        assert_scalar_form(m, ps)
    for v in (b.transpose() * a).data[:3] + a.data[:3]:
        coords = span.coordinates_of(v)
        assert coords is not None
        assert all(type(x) in (int, Fraction) for x in coords)
        assert RationalMatrix([coords]) * span.basis == RationalMatrix([v])


def test_scale_keeps_integral_products_ints():
    """A scaled entry that is integral comes out as an int, as everywhere in
    linalg; one that is not stays a Fraction."""
    half = RationalMatrix([[4, 1]]).scale(Fraction(1, 2))
    assert half.sp == ({0: 2, 1: Fraction(1, 2)},)
    assert type(half.sp[0][0]) is int and type(half.sp[0][1]) is Fraction
    two = RationalMatrix([[Fraction(1, 2)]]).scale(2)
    assert two.sp == ({0: 1},) and type(two.sp[0][0]) is int
    ints = RationalMatrix([[3, -1], [0, 2]]).scale(-2)
    assert ints.sp == ({0: -6, 1: 2}, {1: -4})
    assert all(type(x) is int for row in ints.sp for x in row.values())


def test_product_keeps_integral_entries_ints():
    """A product entry that is integral comes out as an int, through the
    one-term path and through sums alike; one that is not stays a Fraction."""
    half, third = Fraction(1, 2), Fraction(1, 3)
    one = RationalMatrix([[half]]) * RationalMatrix([[2]])
    assert one.sp == ({0: 1},) and type(one.sp[0][0]) is int
    summed = RationalMatrix([[half, half, third]]) * RationalMatrix([[1, 1], [1, 0], [0, 3]])
    assert summed.sp == ({0: 1, 1: Fraction(3, 2)},)
    assert type(summed.sp[0][0]) is int and type(summed.sp[0][1]) is Fraction
    ints = RationalMatrix([[2, 0], [1, 3]]) * RationalMatrix([[1, 1], [0, 2]])
    assert ints.sp == ({0: 2, 1: 2}, {0: 1, 1: 7})
    assert all(type(x) is int for row in ints.sp for x in row.values())


def _fraction_integers(m):
    """The entries of m that are integral but stored as a Fraction."""
    return [x for row in m.sp for x in row.values() if type(x) is not int and x.denominator == 1]


def test_eliminations_keep_integral_entries_ints():
    """Clearing a pivot column can make a Fraction entry integral; it comes out
    as an int, in the reduced rows and in everything read off them."""
    red = rref(M([[1, Q(1, 2), Q(3, 2)], [0, 1, 1]]))[0]
    assert red.sp == ({0: 1, 2: 1}, {1: 1, 2: 1})
    assert type(red.sp[0][2]) is int
    eb = EchelonBasis(3)
    eb.insert([1, Q(1, 2), Q(3, 2)])
    eb.insert([0, 1, 1])
    assert type(eb.rows[0][2]) is int


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_elimination_results_hold_no_integral_fraction(data):
    a = data.draw(st.one_of(matrices(), sparse_matrices(max_dim=8)))
    x = data.draw(sparse_matrices(rows=a.cols, max_dim=4))
    eb = EchelonBasis(a.cols)
    for r in a.sp:
        eb.insert(r)
    for m in (
        rref(a)[0], kernel_basis(a).basis, solve_matrix(a, a * x),
        Subspace.from_vectors(a.data, a.cols).basis,
        RationalMatrix.from_sparse_rows(list(eb.rows.values()), a.cols),
    ):
        assert not _fraction_integers(m), m
