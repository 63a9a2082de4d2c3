from fractions import Fraction

import pytest

from laxepi.category import Morphism, postcompose_cells, precompose_cells
from laxepi.corpus import (
    truncated_polynomial_category,
    upper_triangular_category,
)
from laxepi.errors import IdealNotIdempotent, InternalInvariantError
from laxepi.linalg import Subspace, kernel_basis, nonzeros
from laxepi.modules import (
    ModuleMap,
    Submodule,
    cyclic_submodule,
    direct_sum,
    hom_diagram_module,
    hom_matrix,
    hom_modules,
    identity_map,
    kernel,
    map_compose,
    quotient_by,
    sub_to_module,
    yoneda,
    yoneda_components,
    zero_map,
    zero_module,
)
from laxepi.torsion import (
    TorsionData,
    gabriel_localize,
    ideal_closure,
    is_closed,
    is_torsion,
    is_torsion_free,
    localize,
    q_iso,
    quotient_hom,
    torsion_submodule,
    whole_ideal,
    zero_ideal,
)

Q = Fraction


def _j_submodule(t, u):
    """J_U as the submodule of the representable at U: the reference route for
    `TorsionData.j`, which reads J off the ideal's bases."""
    return Submodule(yoneda(t.cat, u), {v: t.ideal[(v, u)] for v in t.cat.objects})


def localize_map(t, f):
    """The induced map localize(f.source) -> localize(f.target), the per-map
    route: Hom(J_-, f0) for the map f0 that f induces on the torsion-free
    quotients, which are recomputed with a section of each projection, and
    the J hom bases of the Gabriel step on them (reference)."""
    def gabriel(x):
        tors = torsion_submodule(t, x)
        y0, proj = quotient_by(tors)
        h, bases = hom_diagram_module(t.j, y0)
        return h, proj, {u: s.quotient_maps()[1] for u, s in tors.spaces.items()}, bases

    h_src, proj_src, sec_src, bases_src = gabriel(f.source)
    h_tgt, proj_tgt, _, bases_tgt = gabriel(f.target)
    objs = t.cat.objects
    f0 = ModuleMap(proj_src.target, proj_tgt.target,
                   {u: proj_tgt.components[u] * f.components[u] * sec_src[u] for u in objs})
    return ModuleMap(h_src, h_tgt, {u: hom_matrix(bases_src[u], bases_tgt[u], post=f0) for u in objs})


def t2_corner_ideal():
    c = upper_triangular_category()
    e11 = c.basis_morphism("*", "*", 0)
    return c, ideal_closure(c, [e11])


def test_ideal_closure_empty_is_degenerate():
    c = upper_triangular_category()
    t = ideal_closure(c, [])
    assert t.is_degenerate


def test_ideal_closure_t2_e11():
    c, t = t2_corner_ideal()
    assert t.ideal[("*", "*")] == Subspace.from_vectors([[1, 0, 0], [0, 1, 0]], 3)


def test_ideal_closure_not_idempotent():
    c = truncated_polynomial_category()
    x = c.basis_morphism("*", "*", 1)
    with pytest.raises(IdealNotIdempotent):
        ideal_closure(c, [x])


def test_torsion_submodule_whole_ideal_kills_nothing():
    c = upper_triangular_category()
    t = whole_ideal(c)
    reg = yoneda(c, "*")
    assert torsion_submodule(t, reg).is_zero()
    assert is_torsion_free(t, reg)


def test_torsion_submodule_zero_ideal_everything():
    c = upper_triangular_category()
    t = zero_ideal(c)
    reg = yoneda(c, "*")
    assert torsion_submodule(t, reg).total_dim() == 3
    assert is_torsion(t, reg)


def test_torsion_submodule_t2():
    c, t = t2_corner_ideal()
    reg = yoneda(c, "*")
    ts = torsion_submodule(t, reg)
    assert ts.spaces["*"] == Subspace.from_vectors([[0, 1, 0], [0, 0, 1]], 3)
    assert not is_torsion(t, reg) and not is_torsion_free(t, reg)
    q, _ = quotient_by(ts)
    assert is_torsion_free(t, q)


def test_torsion_free_cross_oracle_hom_vanishing():
    c, t = t2_corner_ideal()
    reg = yoneda(c, "*")
    ts = torsion_submodule(t, reg)
    torsion_sample, _ = sub_to_module(ts)
    q, _ = quotient_by(ts)
    # q is torsion-free <=> Hom(torsion, q) = 0 on samples
    assert is_torsion_free(t, q)
    assert hom_modules(torsion_sample, q) == []
    # reg itself is not torsion-free, and a hom from a torsion module exists
    assert not is_torsion_free(t, reg)
    assert len(hom_modules(torsion_sample, reg)) > 0


def test_is_closed_whole_ideal():
    c = upper_triangular_category()
    t = whole_ideal(c)
    for x in (yoneda(c, "*"), zero_module(c)):
        assert is_closed(t, x)


def test_is_closed_negative_e11_ideal_module():
    c, t = t2_corner_ideal()
    reg = yoneda(c, "*")
    e11t2, _ = sub_to_module(cyclic_submodule(reg, "*", [1, 0, 0]))
    assert e11t2.total_dim() == 2
    assert not is_closed(t, e11t2)


def test_localize_closed_module_unit_iso():
    c = upper_triangular_category()
    t = whole_ideal(c)
    reg = yoneda(c, "*")
    cm, unit = localize(t, reg)
    assert unit.is_iso()
    assert cm.module.total_dim() == 3


def test_localize_torsion_module_is_zero():
    c, t = t2_corner_ideal()
    reg = yoneda(c, "*")
    tors, _ = sub_to_module(torsion_submodule(t, reg))
    cm, unit = localize(t, tors)
    assert cm.module.is_zero()


def test_localize_t2_regular_corner():
    c, t = t2_corner_ideal()
    reg = yoneda(c, "*")
    cm, unit = localize(t, reg)
    endos = hom_modules(cm.module, cm.module)
    assert len(endos) == 1


def test_localize_idempotent():
    c, t = t2_corner_ideal()
    reg = yoneda(c, "*")
    cm, _ = localize(t, reg)
    cm2, unit2 = localize(t, cm.module)
    assert unit2.is_iso()


def test_localize_degenerate_zero_ideal():
    c = upper_triangular_category()
    t = zero_ideal(c)
    cm, unit = localize(t, yoneda(c, "*"))
    assert cm.module.is_zero()
    ker_mod, _ = kernel(unit)
    assert is_torsion(t, ker_mod)


def test_quotient_hom_torsion_source_zero():
    c, t = t2_corner_ideal()
    reg = yoneda(c, "*")
    tors, _ = sub_to_module(torsion_submodule(t, reg))
    assert quotient_hom(t, tors, reg) == []


def test_quotient_hom_t2_regular_dim_one():
    c, t = t2_corner_ideal()
    reg = yoneda(c, "*")
    assert len(quotient_hom(t, reg, reg)) == 1


def test_quotient_hom_matches_corner_oracle():
    from laxepi.oracles import CornerContext

    c, t = t2_corner_ideal()
    corner = CornerContext(c, c.basis_morphism("*", "*", 0))
    reg = yoneda(c, "*")
    e11t2, _ = sub_to_module(cyclic_submodule(reg, "*", [1, 0, 0]))
    tors, _ = sub_to_module(torsion_submodule(t, reg))
    samples = [reg, e11t2, tors, zero_module(c)]
    for x in samples:
        for y in samples:
            assert len(quotient_hom(t, x, y)) == corner.hom_dim(x, y)


def test_q_iso():
    c, t = t2_corner_ideal()
    reg = yoneda(c, "*")
    assert q_iso(t, identity_map(reg))
    tors, incl = sub_to_module(torsion_submodule(t, reg))
    assert q_iso(t, zero_map(tors, tors))
    assert not q_iso(t, incl)  # cokernel reg/t(reg) is torsion-free nonzero


def test_localization_unit_is_q_iso():
    c, t = t2_corner_ideal()
    reg = yoneda(c, "*")
    _, unit = localize(t, reg)
    assert q_iso(t, unit)


def test_localize_map_of_q_iso_is_iso():
    c, t = t2_corner_ideal()
    reg = yoneda(c, "*")
    cm, unit = localize(t, reg)
    lu = localize_map(t, unit)
    assert lu.source == cm.module and lu.target == localize(t, cm.module)[0].module
    assert lu.is_iso()


def filter_membership(t, sub):
    """Is the submodule dense, i.e. is the quotient torsion?"""
    q, _ = quotient_by(sub)
    return is_torsion(t, q)


def preimage_submodule(c, sub, u_mor):
    """(X : u) for X ≤ yoneda(U) and u: V -> U, as a submodule of yoneda(V)."""
    post = yoneda_components(c, u_mor.source, u_mor.target, dict(nonzeros(u_mor.coords)))
    spaces = {}
    for w in c.objects:
        proj, _ = sub.spaces[w].quotient_maps()
        spaces[w] = kernel_basis(proj * post[w])
    return Submodule(yoneda(c, u_mor.source), spaces)


def test_filter_membership_gf1_and_j():
    c, t = t2_corner_ideal()
    reg = yoneda(c, "*")
    full = Submodule(reg, {"*": Subspace.full(3)})
    assert filter_membership(t, full)  # GF1
    assert filter_membership(t, _j_submodule(t, "*"))
    zero_sub = Submodule(reg, {"*": Subspace.zero(3)})
    assert not filter_membership(t, zero_sub)


def test_filter_gf2_preimage():
    c, t = t2_corner_ideal()
    j = _j_submodule(t, "*")
    for i in range(3):
        u = c.basis_morphism("*", "*", i)
        pre = preimage_submodule(c, j, u)
        assert filter_membership(t, pre)  # GF2


def test_filter_gf3_via_ideal_elements():
    c, t = t2_corner_ideal()
    reg = yoneda(c, "*")
    # X with (X:u) dense for all ideal elements u must itself be dense
    x = Submodule(reg, {"*": Subspace.from_vectors([[1, 0, 0], [0, 1, 0]], 3)})
    premise = True
    for v_coords in t.ideal[("*", "*")].basis_vectors():
        u = Morphism("*", "*", v_coords)
        if not filter_membership(t, preimage_submodule(c, x, u)):
            premise = False
    if premise:
        assert filter_membership(t, x)


def test_extension_closure_of_torsion():
    # idempotency is exactly what makes extensions of torsion by torsion torsion
    c, t = t2_corner_ideal()
    reg = yoneda(c, "*")
    tors, _ = sub_to_module(torsion_submodule(t, reg))
    both, _, _ = direct_sum([tors, tors])
    assert is_torsion(t, both)
    sub = cyclic_submodule(both, "*", [1, 0, 1, 0])
    inner, _ = sub_to_module(sub)
    q, _ = quotient_by(sub)
    assert is_torsion(t, inner) and is_torsion(t, q)


def test_representables_closed_iff_trivial_for_t2():
    c, t = t2_corner_ideal()
    assert not is_closed(t, yoneda(c, "*"))
    assert is_closed(whole_ideal(c), yoneda(c, "*"))


def _module_ideal_pairs():
    from laxepi.corpus import BUILTIN_NAMES, builtin, random_instance

    pairs = []
    for name in BUILTIN_NAMES:
        b = builtin(name)
        for t in b.ideals.values():
            mods = [m for m in b.modules.values() if m.over == t.cat]
            pairs += [(yoneda(t.cat, u), t) for u in t.cat.objects]
            pairs += [(m, t) for m in mods]
    for seed in range(30):
        b = random_instance(seed)
        for m in b.modules:
            pairs += [(m, t) for t in b.ideals if t.cat is m.over]
    return pairs


def test_second_gabriel_step_changes_nothing():
    """A second Gabriel step, the textbook route, finds localize already closed."""
    from laxepi.torsion import _gabriel_step

    pairs = _module_ideal_pairs()
    assert len(pairs) > 90
    for x, t in pairs:
        cm, _ = localize(t, x)
        h, unit = _gabriel_step(t, cm.module)
        assert unit.is_iso()
        assert h.dims == cm.module.dims


def test_j_bimodule_is_the_dense_submodules():
    """TorsionData.j is a valid bimodule whose value at U is J_U as a submodule
    of the representable, and whose left action is postcomposition restricted
    to those submodules, on the builtin ideals, those of bundles 0..149 and the
    vertex ideals of A_2..A_8."""
    from laxepi.category import from_quiver
    from laxepi.corpus import BUILTIN_NAMES, builtin, random_instance
    from laxepi.modules import validate_bimodule

    ideals = [t for name in BUILTIN_NAMES for t in builtin(name).ideals.values()]
    ideals += [t for seed in range(150) for t in random_instance(seed).ideals]
    for n in range(2, 9):
        vertices = [str(i) for i in range(1, n + 1)]
        arrows = [(f"a{i}", str(i), str(i + 1)) for i in range(1, n)]
        c = from_quiver(vertices, arrows, (), nilpotency=n)
        ideals += [ideal_closure(c, [c.identity(u)]) for u in c.objects]
    assert len(ideals) == 341
    for t in ideals:
        c = t.cat
        assert validate_bimodule(t.j) == []
        subs = {u: sub_to_module(_j_submodule(t, u)) for u in c.objects}
        for u, (value, _) in subs.items():
            assert t.j.values[u] == value
        for (v, u, i), act in t.j.left_action.items():
            post = yoneda_components(c, v, u, {i: 1})
            for w in c.objects:
                incl_u, incl_v = subs[u][1].components[w], subs[v][1].components[w]
                assert incl_u * act.components[w] == post[w] * incl_v


def test_j_raises_on_a_one_sided_family():
    """Reading J checks closure on both sides: on T2, the span of basis
    morphism 0 is closed under postcomposition only and that of basis
    morphism 2 under precomposition only; built unchecked, each raises."""
    c = upper_triangular_category()
    for k, post_closed in ((0, True), (2, False)):
        s = Subspace.from_vectors([[int(i == k) for i in range(3)]], 3)
        by_post = precompose_cells(c, "*", "*", "*", {k: 1})  # g_i ∘ b_k
        by_pre = postcompose_cells(c, "*", "*", "*", {k: 1})  # b_k ∘ g_j
        assert all(map(s.contains, by_post)) == post_closed != all(map(s.contains, by_pre))
        t = TorsionData(c, {("*", "*"): s})
        with pytest.raises(InternalInvariantError, match="not closed under composition"):
            t.j


def _torsion_test_cases():
    """(ideal, module): the modules and representables of the builtins and of
    bundles 0..59, the kernels of the counits at the representables, and the
    kernel and cokernel of the localization unit of each of these."""
    from laxepi.corpus import BUILTIN_NAMES, builtin, random_instance
    from laxepi.functors import counits
    from laxepi.modules import cokernel

    groups = []
    for name in BUILTIN_NAMES:
        b = builtin(name)
        groups.append((b.ideals.values(), b.modules.values(), b.functors.values()))
    for seed in range(60):
        b = random_instance(seed)
        groups.append((b.ideals, b.modules, [b.functor, b.surjective_functor]))
    for ideals, mods, functors in groups:
        for t in ideals:
            c = t.cat
            xs = [m for m in mods if m.over is c] + [yoneda(c, u) for u in c.objects]
            xs += [kernel(eps)[0]
                   for s in functors if s.target is c for eps in counits(s).values()]
            for x in list(xs):
                _, unit = localize(t, x)
                xs += [kernel(unit)[0], cokernel(unit)[0]]
            yield from ((t, x) for x in xs)


def test_is_torsion_matches_torsion_submodule():
    """X·J = 0 read off the actions agrees with the torsion submodule being all of X."""
    seen = {True: 0, False: 0}  # nonzero modules by verdict
    for t, x in _torsion_test_cases():
        want = torsion_submodule(t, x).total_dim() == x.total_dim()
        assert is_torsion(t, x) == want
        seen[want] += not x.is_zero()
    assert min(seen.values()) > 50


def _a_n(n):
    from laxepi.category import from_quiver

    vertices = [str(i) for i in range(1, n + 1)]
    arrows = [(f"a{i}", str(i), str(i + 1)) for i in range(1, n)]
    return from_quiver(vertices, arrows, (), nilpotency=n)


def _serialized(m):
    """A matrix's entries as `fileio` writes them: equal for byte-identical output."""
    from laxepi.fileio import rat_to_str

    return [[rat_to_str(x) for x in row] for row in m.data]


def test_corner_localization_is_the_gabriel_step_entry_for_entry():
    """For J = AeA, `localize` restricts x to the corner on E and coinduces it
    back.  The Gabriel step on the torsion-free quotient, called directly,
    gives the same closed module and unit, as serialized bytes: on every
    AeA (ideal, module) pair of the builtins, the modules and representables
    of bundles 0..199, and every vertex ideal of A_2..A_9 on the regular
    module."""
    from laxepi.corpus import BUILTIN_NAMES, builtin, random_instance

    groups = [(b.ideals.values(), b.modules.values()) for b in map(builtin, BUILTIN_NAMES)]
    groups += [(b.ideals, b.modules) for b in map(random_instance, range(200))]
    cases = [(t, x) for ideals, mods in groups for t in ideals
             for x in [m for m in mods if m.over is t.cat] + [yoneda(t.cat, u) for u in t.cat.objects]]
    for n in range(2, 10):
        c = _a_n(n)
        reg, _, _ = direct_sum([yoneda(c, u) for u in c.objects], over=c)
        cases += [(ideal_closure(c, [c.identity(u)]), reg) for u in c.objects]
    compared = 0
    for t, x in cases:
        if t.corner is None:
            continue
        _assert_corner_is_gabriel_step(t, x)
        compared += 1
    assert compared == len(cases) - 2 == 1468  # all but corner_T2: e11 on its two modules


def test_corner_localization_reads_each_object_at_its_own_hom_basis():
    """A corner where D(g) ≠ D(h) although both have dimension 1 and equal Hom
    dimensions into the restricted module: End(e) = Q×Q with basis f1, f2,
    a: e -> g with a∘f1 = a and b: e -> h with b∘f2 = b, and no other
    non-identity morphisms, so D(g) and D(h) are the two simple Q×Q-modules.
    For J = (id_e) on the regular module, localizing through the corner gives
    the Gabriel step entry for entry."""
    from laxepi.corpus import _matrix_category
    from laxepi.functors import coinduce, restrict

    homs = {("e", "e"): [[[1, 0], [0, 0]], [[0, 0], [0, 1]]], ("e", "g"): [[[1, 0]]],
            ("e", "h"): [[[0, 1]]], ("g", "g"): [[[1]]], ("h", "h"): [[[1]]]}
    c = _matrix_category(homs, {("e", "e"): ["f1", "f2"], ("e", "g"): ["a"],
                                ("e", "h"): ["b"], ("g", "g"): ["1"], ("h", "h"): ["1"]})
    t = ideal_closure(c, [c.identity("e")])
    reg, _, _ = direct_sum([yoneda(c, u) for u in c.objects], over=c)
    inc = t.corner
    assert inc.source.objects == ("e",)
    dg, dh = (inc.coinduction_bimodule.values[u] for u in "gh")
    assert dg.dims == dh.dims == {"e": 1} and dg.action != dh.action
    bases = coinduce(inc, restrict(inc, reg)).hom_bases
    assert len(bases["g"]) == len(bases["h"]) > 0
    _assert_corner_is_gabriel_step(t, reg)


def _assert_corner_is_gabriel_step(t, x):
    """`localize` through t's corner and the Gabriel step on the torsion-free
    quotient give the same closed module and unit, as serialized bytes."""
    from laxepi.torsion import _gabriel_step

    cm, unit = localize(t, x)
    y0, proj = quotient_by(torsion_submodule(t, x))
    h, eta = _gabriel_step(t, y0)
    assert cm.module.dims == h.dims
    assert {k: _serialized(m) for k, m in cm.module.action.items()} == {
        k: _serialized(m) for k, m in h.action.items()}
    assert {u: _serialized(m) for u, m in unit.components.items()} == {
        u: _serialized(m) for u, m in map_compose(eta, proj).components.items()}


def test_corner_is_found_exactly_for_aea_ideals():
    """The corner is E = {u : id_u in J} when J = AeA: all of the objects for
    the whole ideal, one vertex for a vertex ideal of A_n, none for the zero
    ideal, whose localization is zero.  corner_T2's e11 generates J = {e11,
    e12}, which holds no identity, so it gets no corner and `localize` is the
    Gabriel step there."""
    c = _a_n(4)
    assert whole_ideal(c).corner.source.objects == c.objects
    assert ideal_closure(c, [c.identity("3")]).corner.source.objects == ("3",)
    for cat in (c, upper_triangular_category(), truncated_polynomial_category()):
        t = zero_ideal(cat)
        assert t.corner.source.objects == ()
        for u in cat.objects:
            cm, unit = localize(t, yoneda(cat, u))
            assert cm.module.is_zero() and unit.source == yoneda(cat, u)
    c, t = t2_corner_ideal()
    assert t.corner is None
    reg = yoneda(c, "*")
    cm, unit = localize(t, reg)
    assert (cm, unit) == gabriel_localize(t, reg)
    assert cm.module.dims == {"*": 1}


def test_is_closed_through_the_corner_matches_j():
    """For J = AeA, `is_closed` reads the corner's unit object by object; the
    Gabriel step's unit X(U) -> Hom(J_U, x), the reference, agrees on every
    case of `_torsion_test_cases` and on the localizations of its modules."""
    from laxepi.torsion import _gabriel_step

    seen = {True: 0, False: 0}
    for t, x in _torsion_test_cases():
        if t.corner is None:
            continue
        for y in (x, localize(t, x)[0].module):
            want = is_torsion_free(t, y) and _gabriel_step(t, y)[1].is_iso()
            assert is_closed(t, y) == want
            seen[want] += not y.is_zero()
    assert min(seen.values()) > 50


def test_corner_torsion_is_the_action_test():
    """For J = AeA, `is_torsion` reads x(e) = 0 at every e in E.  It agrees
    with the action test X·J = 0 (reference) on every (module, ideal) pair
    of the builtins and of bundles 0..199, and on what the deciders test
    there: the kernels of the counits at the representables and Tor_1 of
    each top with the regular bimodule, for every functor into the ideal's
    category.  Both outcomes occur on nonzero modules at a corner."""
    from laxepi.corpus import BUILTIN_NAMES, builtin, random_instance
    from laxepi.functors import counits, regular_bimodule
    from laxepi.modules import tops, tor1
    from reference_oracles import annihilated

    groups = []
    for name in BUILTIN_NAMES:
        b = builtin(name)
        groups.append((b.ideals.values(), b.modules.values(), b.functors.values()))
    for seed in range(200):
        b = random_instance(seed)
        groups.append((b.ideals, b.modules, [b.functor, b.surjective_functor]))
    seen = {True: 0, False: 0}  # nonzero modules at a corner, by verdict
    for ideals, mods, functors in groups:
        for t in ideals:
            xs = [m for m in mods if m.over is t.cat or m.over == t.cat]
            for p in functors:
                if p.target is t.cat or p.target == t.cat:
                    xs += [kernel(eps)[0] for eps in counits(p).values()]
                    reg = regular_bimodule(p)
                    xs += [tor1(top, reg) for top in tops(p.source).values()]
            for x in xs:
                want = annihilated(t, x)
                assert is_torsion(t, x) == want
                if t.corner is not None and not x.is_zero():
                    seen[want] += 1
    assert min(seen.values()) > 100, seen


def test_is_closed_by_dims_is_the_unit_test():
    """At a corner `is_closed` reads dims: torsion-free, and dim
    Hom_E(D(h), x|E) = dim x(h) at every h, as the unit of a torsion-free
    module is injective.  It agrees with "torsion-free and the unit of
    `localize` is an isomorphism" on `_torsion_test_cases` and on their
    localizations; both outcomes occur."""
    seen = {True: 0, False: 0}
    for t, x in _torsion_test_cases():
        for y in (x, localize(t, x)[0].module):
            want = is_torsion_free(t, y) and localize(t, y)[1].is_iso()
            assert is_closed(t, y) == want
            seen[want] += not y.is_zero()
    assert min(seen.values()) > 100, seen
