from fractions import Fraction
from itertools import product

import pytest

from laxepi.category import (
    LinearCategory,
    Morphism,
    compose,
    contract,
    from_algebra,
    from_quiver,
    full_subcategory,
    opposite,
    postcompose_cells,
    precompose_cells,
    validate_category,
)
from laxepi.corpus import (
    BUILTIN_NAMES,
    a2_category,
    builtin,
    field_category,
    product_field_category,
    summand_pair_category,
    random_instance,
    truncated_polynomial_category,
    upper_triangular_category,
)
from laxepi.fileio import parse_category, serialize_category
from laxepi.linalg import RationalMatrix
from laxepi.modules import fill_action, yoneda

Q = Fraction


def test_field_category_valid():
    assert validate_category(field_category()) == []


def test_identity_law_violation_reported():
    bad = LinearCategory(
        ["*"], {("*", "*"): 1}, {("*", "*", "*"): [[[2]]]}, {"*": [1]}
    )
    report = validate_category(bad)
    assert report and any("id" in line for line in report)


def test_associativity_violation_reported():
    # e is a two-sided unit, but (y·x)·y = 0·y = 0 while y·(x·y) = y·y = y
    mult = [
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],  # e·e, e·x, e·y
        [[0, 1, 0], [0, 1, 0], [0, 0, 1]],  # x·e = x, x·x = x, x·y = y
        [[0, 0, 1], [0, 0, 0], [0, 0, 1]],  # y·e = y, y·x = 0, y·y = y
    ]
    c = from_algebra(mult, [1, 0, 0], labels=["e", "x", "y"])
    assert validate_category(c) == ["associativity fails at (y, x, y)"]


def test_a2_path_category_valid_and_dims():
    c = a2_category()
    assert validate_category(c) == []
    assert c.hom_dim("1", "1") == 1
    assert c.hom_dim("2", "2") == 1
    assert c.hom_dim("1", "2") == 1
    assert c.hom_dim("2", "1") == 0


def test_compose_identity():
    c = upper_triangular_category()
    f = Morphism("*", "*", (2, 3, 5))
    assert compose(c, c.identity("*"), f).coords == f.coords
    assert compose(c, f, c.identity("*")).coords == f.coords


def test_compose_matrix_units():
    c = upper_triangular_category()
    e11 = c.basis_morphism("*", "*", 0)
    e12 = c.basis_morphism("*", "*", 1)
    e22 = c.basis_morphism("*", "*", 2)
    assert compose(c, e11, e12).coords == (Q(0), Q(1), Q(0))  # e11·e12 = e12
    assert compose(c, e12, e22).coords == (Q(0), Q(1), Q(0))
    assert compose(c, e12, e11).is_zero()
    assert compose(c, e22, e12).is_zero()


def test_compose_zero_morphism():
    c = upper_triangular_category()
    z = Morphism("*", "*", (0, 0, 0))
    f = Morphism("*", "*", (1, 1, 1))
    assert compose(c, z, f).is_zero()


def test_opposite_involution():
    for c in (upper_triangular_category(), a2_category(), summand_pair_category()):
        cop = opposite(c)
        assert validate_category(cop) == []
        copop = opposite(cop)
        assert copop.cells == c.cells
        assert copop._hom == c._hom
        assert copop.identities == c.identities


def test_opposite_swaps_quiver():
    c = a2_category()
    cop = opposite(c)
    assert cop.hom_dim("2", "1") == 1
    assert cop.hom_dim("1", "2") == 0


def test_from_algebra_field():
    c = from_algebra([[[1]]], [1])
    assert c.objects == ("*",) and c.hom_dim("*", "*") == 1


def test_from_quiver_loop_truncated():
    c = from_quiver(["1"], [("x", "1", "1")], (), nilpotency=3)
    assert validate_category(c) == []
    assert c.hom_dim("1", "1") == 3
    x = c.quiver_arrows["x"]
    x2 = compose(c, x, x)
    assert not x2.is_zero()
    assert compose(c, x2, x).is_zero()  # x^3 = 0


def test_from_quiver_relation():
    # commuting square: two paths 1->4 identified
    c = from_quiver(
        ["1", "2", "3", "4"],
        [("a", "1", "2"), ("b", "2", "4"), ("c", "1", "3"), ("d", "3", "4")],
        relations=[[(1, ("a", "b")), (-1, ("c", "d"))]],
        nilpotency=3,
    )
    assert validate_category(c) == []
    assert c.hom_dim("1", "4") == 1
    ab = compose(c, c.quiver_arrows["b"], c.quiver_arrows["a"])
    cd = compose(c, c.quiver_arrows["d"], c.quiver_arrows["c"])
    assert ab.coords == cd.coords


def test_from_quiver_nilpotency_one_arrows_are_zero():
    """With nilpotency 1 every path of positive length is zero: the arrows
    are the zero morphisms and only the identities remain."""
    for arrow in (("x", "a", "b"), ("x", "a", "a")):
        c = from_quiver(["a", "b"], [arrow], (), 1)
        assert validate_category(c) == []
        x = c.quiver_arrows["x"]
        assert (x.source, x.target) == arrow[1:] and x.is_zero()
        assert len(x.coords) == c.hom_dim(*arrow[1:])
        assert all(c.hom_dim(v, u) == (v == u) for v in c.objects for u in c.objects)


def test_from_quiver_unknown_arrow_in_first_path_rejected():
    """An unknown arrow at either end of a relation's first path gets the
    ValueError that an unknown arrow in a later path gets."""
    for path in (("x", "y"), ("y", "x")):
        with pytest.raises(ValueError, match="unknown or non-parallel path"):
            from_quiver(["1"], [("x", "1", "1")], [[(1, path)]], 3)


def test_relation_collapsing_identity_rejected():
    with pytest.raises(ValueError):
        from_quiver(["1"], [("x", "1", "1")], relations=[[(1, ())]], nilpotency=2)


def test_total_dims_agree_t2_vs_a2():
    assert upper_triangular_category().total_dim() == a2_category().total_dim() == 3


def test_summand_pair_category_valid():
    c = summand_pair_category()
    assert validate_category(c) == []
    i1 = c.basis_morphism("P", "PP", 0)
    p1 = c.basis_morphism("PP", "P", 0)
    p2 = c.basis_morphism("PP", "P", 1)
    assert compose(c, p1, i1).coords == (Q(1),)
    assert compose(c, p2, i1).is_zero()
    e11 = compose(c, i1, p1)
    assert e11.coords == (Q(1), Q(0), Q(0), Q(0))


def test_constructors_pass_validation():
    for c in (
        field_category(),
        product_field_category(),
        upper_triangular_category(),
        truncated_polynomial_category(),
        a2_category(),
        summand_pair_category(),
    ):
        assert validate_category(c) == []


def _basis(c, v, u):
    """The basis morphisms of Hom(v, u)."""
    return [c.basis_morphism(v, u, i) for i in range(c.hom_dim(v, u))]


def _validate_by_compose(c):
    """The laws checked one `compose` at a time (reference route)."""
    problems = []
    for u in c.objects:
        idu = c.identity(u)
        for v in c.objects:
            for i, f in enumerate(_basis(c, v, u)):
                if compose(c, idu, f).coords != f.coords:
                    problems.append(f"id_{u} ∘ {c.label_of(v, u, i)} != itself")
            for i, g in enumerate(_basis(c, u, v)):
                if compose(c, g, idu).coords != g.coords:
                    problems.append(f"{c.label_of(u, v, i)} ∘ id_{u} != itself")
    for x, w, v, u in product(c.objects, repeat=4):
        for hi, h in enumerate(_basis(c, v, u)):
            for gi, g in enumerate(_basis(c, w, v)):
                for fi, f in enumerate(_basis(c, x, w)):
                    if compose(c, compose(c, h, g), f).coords != compose(c, h, compose(c, g, f)).coords:
                        problems.append(
                            f"associativity fails at ({c.label_of(v, u, hi)}, "
                            f"{c.label_of(w, v, gi)}, {c.label_of(x, w, fi)})"
                        )
    return problems


def test_validate_category_matches_compose_route():
    """Same messages in the same order as composing morphism by morphism,
    on corpus categories with one structure constant or identity changed."""
    import random

    from laxepi.corpus import random_instance

    rng = random.Random(8)
    failing = 0
    for seed in range(12):
        c = random_instance(seed).category
        hom = {pair: c.hom_dim(*pair) for pair in c.hom_pairs()}
        for trial in range(6):
            # every composable triple into a nonzero Hom(w, u), its zero cells
            # and all-zero tables included, so that a zero can be perturbed
            comp = {k: tab for k, tab in _dense_tables(c).items() if c.hom_dim(k[0], k[2])}
            ids = {u: list(v) for u, v in c.identities.items()}
            if trial == 5:  # an identity
                u = rng.choice(c.objects)
                ids[u][rng.randrange(len(ids[u]))] += 1
            elif trial:  # a structure constant
                tab = comp[rng.choice(sorted(k for k, t in comp.items() if t[0][0]))]
                cell = tab[rng.randrange(len(tab))][rng.randrange(len(tab[0]))]
                cell[rng.randrange(len(cell))] += rng.choice([1, -1])
                if trial == 4:  # a missing table composes to zero
                    del comp[rng.choice(sorted(comp))]
            c2 = LinearCategory(c.objects, hom, comp, ids, c.basis_labels)
            want = _validate_by_compose(c2)
            assert validate_category(c2) == want
            assert trial or not want  # the unchanged category is valid
            failing += bool(want)
    assert failing > 40


def _a_n(n):
    vertices = [str(i) for i in range(1, n + 1)]
    arrows = [(f"a{i}", str(i), str(i + 1)) for i in range(1, n)]
    return from_quiver(vertices, arrows, (), nilpotency=n)


def _kernel_categories():
    """Every builtin category, source and target of bundles 0..29, and A_3..A_6."""
    cats = [c for name in BUILTIN_NAMES for c in builtin(name).categories.values()]
    for seed in range(30):
        b = random_instance(seed)
        cats += [b.category, b.target_category]
    return cats + [_a_n(n) for n in range(3, 7)]


def _dense_tables(c):
    """Dense [g][f] -> coordinates tables for every triple with both hom spaces
    nonzero, the ones composing to zero given explicitly as zeros."""
    return {
        (w, v, u): [
            [list(c.comp_coords(w, v, u, gi, fi)) for fi in range(c.hom_dim(w, v))]
            for gi in range(c.hom_dim(v, u))
        ]
        for w, v, u in product(c.objects, repeat=3)
        if c.hom_dim(w, v) and c.hom_dim(v, u)
    }


def _dense_compose(dense, c, g, f):
    """g ∘ f contracted over every basis pair of the dense tables (reference)."""
    w, v, u = f.source, f.target, g.target
    out = [Q(0)] * c.hom_dim(w, u)
    if (w, v, u) in dense:
        for gi, gc in enumerate(g.coords):
            for fi, fc in enumerate(f.coords):
                for k, x in enumerate(dense[(w, v, u)][gi][fi]):
                    out[k] += gc * fc * x
    return tuple(out)


def _sparse(coords):
    return {k: x for k, x in enumerate(coords) if x}


def test_cells_match_dense_tables():
    """Cells built from dense tables with explicit zeros hold exactly their
    nonzero entries: no stored zero, no empty cell, no empty table."""
    for c in _kernel_categories():
        dense = _dense_tables(c)
        hom = {pair: c.hom_dim(*pair) for pair in c.hom_pairs()}
        c2 = LinearCategory(c.objects, hom, dense, c.identities, c.basis_labels)
        assert c2 == c and c2.cells == c.cells
        for key, tab in c2.cells.items():
            assert key in dense and tab
            for (gi, fi), cell in tab.items():
                assert cell and all(cell.values())
                assert all(0 <= k < c.hom_dim(key[0], key[2]) for k in cell)
        for key, tab in dense.items():
            for gi, row in enumerate(tab):
                for fi, coords in enumerate(row):
                    assert c2.table(*key).get((gi, fi), {}) == _sparse(coords)
                    assert c2.comp_coords(*key, gi, fi) == tuple(coords)


def test_equal_cells_are_stored_once_per_category():
    """Random dense tables with many equal cells and equal tables: every cell
    reads back as its input, equal cells and equal tables are one object
    within a category, and two categories built alike share none."""
    import random

    rng = random.Random(12)
    objs = ["x", "y", "z"]
    for _ in range(20):
        hom = {pair: rng.choice([1, 1, 2]) for pair in product(objs, repeat=2)}
        dense = {
            (w, v, u): [
                [[rng.choice([0, 0, 1, -1]) for _ in range(hom[(w, u)])] for _ in range(hom[(w, v)])]
                for _ in range(hom[(v, u)])
            ]
            for w, v, u in product(objs, repeat=3)
        }
        ids = {u: [1] * hom[(u, u)] for u in objs}
        c, c2 = LinearCategory(objs, hom, dense, ids), LinearCategory(objs, hom, dense, ids)
        for key, tab in dense.items():
            for gi, row in enumerate(tab):
                for fi, coords in enumerate(row):
                    assert c.comp_coords(*key, gi, fi) == tuple(Q(x) for x in coords)
        cells = [cell for tab in c.cells.values() for cell in tab.values()]
        assert len({id(x) for x in cells}) == len({tuple(x.items()) for x in cells}) < len(cells)
        tables = list(c.cells.values())
        contents = {tuple((k, tuple(x.items())) for k, x in t.items()) for t in tables}
        assert len({id(t) for t in tables}) == len(contents)
        ids2 = {id(x) for tab in c2.cells.values() for x in (tab, *tab.values())}
        assert ids2.isdisjoint(id(x) for tab in tables for x in (tab, *tab.values()))


def test_contractions_match_dense_definition():
    """compose, contract and the basis composites against the dense bilinear
    definition, on every basis pair and on seeded random morphisms."""
    import random

    rng = random.Random(9)
    for c in _kernel_categories():
        dense = _dense_tables(c)
        for w, v, u in product(c.objects, repeat=3):
            if not (c.hom_dim(w, v) and c.hom_dim(v, u)):
                continue
            for g in _basis(c, v, u):
                for f in _basis(c, w, v):
                    assert compose(c, g, f).coords == _dense_compose(dense, c, g, f)
            for _ in range(3):
                g = Morphism(v, u, tuple(rng.choice([0, 0, 1, -2, Q(1, 3)]) for _ in range(c.hom_dim(v, u))))
                f = Morphism(w, v, tuple(rng.choice([0, 0, 1, 3, Q(-1, 2)]) for _ in range(c.hom_dim(w, v))))
                want = _dense_compose(dense, c, g, f)
                assert compose(c, g, f).coords == want
                tab = c.table(w, v, u)
                assert contract(tab, _sparse(g.coords).items(), _sparse(f.coords).items()) == _sparse(want)
                posts = postcompose_cells(c, w, v, u, _sparse(g.coords))
                assert posts == [_sparse(_dense_compose(dense, c, g, b)) for b in _basis(c, w, v)]
                pres = precompose_cells(c, w, v, u, _sparse(f.coords))
                assert pres == [_sparse(_dense_compose(dense, c, b, f)) for b in _basis(c, v, u)]


def test_zero_table_equals_its_round_trip():
    """An explicit all-zero table is not stored, so the category equals its
    serialization round trip and the category given without that table."""
    objs = ["x", "y", "z"]
    hom = {(v, u): 1 for v, u in product(objs, repeat=2) if objs.index(v) <= objs.index(u)}
    comp = {}
    for v, u in hom:  # identities on both sides
        comp[(v, u, u)] = [[[1]]]
        comp[(v, v, u)] = [[[1]]]
    plain = LinearCategory(objs, hom, comp, {u: [1] for u in objs})
    comp[("x", "y", "z")] = [[[0]]]  # b ∘ a = 0 for a: x -> y, b: y -> z
    c = LinearCategory(objs, hom, comp, {u: [1] for u in objs})
    assert validate_category(c) == []
    assert ("x", "y", "z") not in c.cells
    assert c == plain
    assert parse_category(serialize_category(c), "c") == c


# ---------------------------------------------------------------------------
# the action plan
# ---------------------------------------------------------------------------


def _a_n(n):
    vs = [str(i) for i in range(1, n + 1)]
    return from_quiver(vs, [(f"a{i}", str(i), str(i + 1)) for i in range(1, n)], (), n)


def _plan_categories():
    """The builtins' categories, both categories of bundles 0..49, A_2..A_8 and
    the glax mid categories of bundles 0..29, each once."""
    from laxepi.functors import canonical_factorization_localized

    cats = []
    for name in BUILTIN_NAMES:
        b = builtin(name)
        cats += [c for f in b.functors.values() for c in (f.source, f.target)]
        cats += [m.over for m in b.modules.values()]
    for seed in range(50):
        b = random_instance(seed)
        cats += [b.category, b.target_category]
    cats += [_a_n(n) for n in range(2, 9)]
    for seed in range(30):
        b = random_instance(seed)
        cats.append(canonical_factorization_localized(b.surjective_functor, b.ideals[0]).mid)
    return list({id(c): c for c in cats}.values())


def _is_identity(c, key):
    v, u, k = key
    return v == u and c.basis_morphism(v, u, k).coords == c.identities[u]


def _check_plan(c):
    """Every basis morphism once; "id" exactly at the identities; a composite
    (f, g, x) has the cell {k: x} at g ∘ f and non-identity factors placed earlier."""
    plan = c.action_plan
    keys = [(v, u, k) for v, u in c.hom_pairs() for k in range(c.hom_dim(v, u))]
    assert len(plan) == len(keys) and set(plan) == set(keys)
    placed = []
    for key, how in plan.items():
        assert (how == "id") == _is_identity(c, key)
        if how not in (None, "id"):
            (w, v, fi), (v2, u, gi), x = how
            assert v2 == v and (w, u) == key[:2]
            assert c.table(w, v, u)[(gi, fi)] == {key[2]: x}
            for factor in how[:2]:
                assert factor in placed and not _is_identity(c, factor)
        placed.append(key)
    return plan


def test_action_plan_structure():
    cats = _plan_categories()
    composites = 0
    for c in cats:
        plan = _check_plan(c)
        composites += sum(how not in (None, "id") for how in plan.values())
    assert composites > 100


def _reads_back(x):
    """The module's action, read off its category's plan, is the action."""
    return fill_action(x.over, x.dims, lambda v, u, k: x.action[(v, u, k)]) == x.action


def test_fill_action_reads_back_representables_and_bundle_modules():
    for c in _plan_categories():
        assert all(_reads_back(yoneda(c, u)) for u in c.objects)
    for name in BUILTIN_NAMES:
        assert all(map(_reads_back, builtin(name).modules.values()))
    for seed in range(50):
        assert all(map(_reads_back, random_instance(seed).modules))


def _chain(scalar):
    """Objects 1 -> 2 -> 3 with one morphism a, b, c between each pair, identities
    the units, and b ∘ a = scalar·c."""
    objs = ["1", "2", "3"]
    hom = {(v, u): 1 for v, u in product(objs, repeat=2) if v <= u}
    comp = {}
    for v, u in hom:
        comp[(v, u, u)] = comp[(v, v, u)] = {(0, 0): {0: 1}}
    comp[("1", "2", "3")] = {(0, 0): {0: scalar}}
    return LinearCategory(objs, hom, comp, {u: [1] for u in objs})


def test_action_plan_divides_by_the_cell_scalar():
    c = _chain(2)
    assert validate_category(c) == []
    assert c.action_plan[("1", "3", 0)] == (("1", "2", 0), ("2", "3", 0), 2)
    _check_plan(c)
    for u in c.objects:
        x = yoneda(c, u)
        assert _reads_back(x)
    # X(a) = X(b) = (t) gives X(c) = (t²/2), kept an int when integral
    for t, want in ((1, Q(1, 2)), (2, 2)):
        action = fill_action(c, dict.fromkeys(c.objects, 1), lambda *key: RationalMatrix([[t]]))
        assert action[("1", "3", 0)].sp == ({0: want},)
        assert type(action[("1", "3", 0)].sp[0][0]) is type(want)


def test_action_plan_without_unit_basis_vectors_computes_everything():
    """In Q × Q the unit is e1 + e2, so no basis vector is an identity, and
    e_i = e_i ∘ e_i is a cycle."""
    c = product_field_category()
    assert list(c.action_plan.values()) == [None, None]
    assert all(_reads_back(yoneda(c, u)) for u in c.objects)


def test_action_plan_computes_a_self_referential_composite():
    """b ∘ e = b for a non-unit idempotent e: b would be read off itself."""
    hom = {("x", "x"): 2, ("x", "y"): 1, ("y", "y"): 1}
    comp = {
        ("x", "x", "x"): {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}, (1, 1): {1: 1}},
        ("x", "x", "y"): {(0, 0): {0: 1}, (0, 1): {0: 1}},  # b ∘ 1 = b ∘ e = b
        ("x", "y", "y"): {(0, 0): {0: 1}},
        ("y", "y", "y"): {(0, 0): {0: 1}},
    }
    c = LinearCategory(["x", "y"], hom, comp, {"x": [1, 0], "y": [1]})
    assert validate_category(c) == []
    assert c.action_plan == {
        ("x", "x", 0): "id", ("y", "y", 0): "id", ("x", "x", 1): None, ("x", "y", 0): None
    }
    _check_plan(c)
    assert all(_reads_back(yoneda(c, u)) for u in c.objects)


def test_full_subcategories_and_inclusions_are_lawful():
    """On every (category, E) of bundles 0..199, E running over all object
    subsets, the full subcategory is a valid category on E in c's order with
    c's homs, and its inclusion is a valid functor."""
    from itertools import combinations

    from laxepi.functors import validate_functor

    cases = 0
    for seed in range(200):
        b = random_instance(seed)
        for c in (b.category, b.target_category):
            for k in range(len(c.objects) + 1):
                for objs in combinations(reversed(c.objects), k):
                    inc = full_subcategory(c, objs)
                    sub = inc.source
                    assert sub.objects == tuple(u for u in c.objects if u in objs)
                    assert {p: sub.hom_dim(*p) for p in sub.hom_pairs()} == {
                        (v, u): c.hom_dim(v, u) for v, u in c.hom_pairs() if {v, u} <= set(objs)}
                    assert validate_category(sub) == [] and validate_functor(inc) == []
                    cases += 1
    assert cases == 1904
