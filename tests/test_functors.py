from fractions import Fraction

from laxepi.corpus import (
    a2_category,
    a2_vertex_functor,
    corner_unit_functor,
    diagonal_functor,
    summand_inclusion_functor,
    t2_semisimple_surjection,
    upper_triangular_category,
)
from laxepi.category import validate_category
from laxepi.functors import (
    LinearFunctor,
    _descend,
    adjunction_check,
    canonical_factorization,
    canonical_factorization_localized,
    coinduce,
    counits,
    identity_functor,
    induction_unit,
    regular_bimodule,
    restrict,
    restrict_map,
    tensor_bimodule,
    tensor_map,
    validate_functor,
)
from laxepi.linalg import RationalMatrix, is_iso
from laxepi.modules import (
    hom_modules,
    ModuleMap,
    kernel,
    tor1,
    validate_bimodule,
    validate_module,
    validate_module_map,
    yoneda,
    zero_module,
)
from laxepi.torsion import ideal_closure, whole_ideal

Q = Fraction


def _compose_functors(g: LinearFunctor, f: LinearFunctor) -> LinearFunctor:
    if f.target is not g.source and f.target != g.source:
        raise ValueError("functors not composable")
    return LinearFunctor(
        f.source,
        g.target,
        {u: g.apply_obj(f.apply_obj(u)) for u in f.source.objects},
        {
            (v, u): g.hom_maps[(f.apply_obj(v), f.apply_obj(u))] * f.hom_maps[(v, u)]
            for v, u in f.source.hom_pairs()
        },
    )


def _functors_equal(a: LinearFunctor, b: LinearFunctor) -> bool:
    return (
        a.source == b.source
        and a.target == b.target
        and a.object_map == b.object_map
        and a.hom_maps == b.hom_maps
    )


def _class_of(ctx, g, v, h, beta):
    """Coordinates in ctx.module(h) of v ⊗ β, for v in x(g) and β in b(g)(h)."""
    return _descend(ctx.projections[h], [ctx.represent(g, v, h, beta)]).col(0)


def _tensor_yoneda_iso(g_obj, b, ctx):
    """The canonical map b(G) -> yoneda(G) ⊗ b, β ↦ class of id_G ⊗ β."""
    from laxepi.linalg import ONE, nonzeros

    idc = dict(nonzeros(b.left_cat.identities[g_obj]))
    comps = {
        h: _descend(
            ctx.projections[h],
            [ctx.represent(g_obj, idc, h, {j: ONE}) for j in range(b.values[g_obj].dims[h])],
        )
        for h in b.right_cat.objects
    }
    return ModuleMap(b.values[g_obj], ctx.module, comps)


def test_validate_builtin_functors():
    for f in (
        identity_functor(upper_triangular_category()),
        diagonal_functor(),
        t2_semisimple_surjection(),
        summand_inclusion_functor(),
        corner_unit_functor(),
        a2_vertex_functor(),
    ):
        assert validate_functor(f) == []


def test_object_map_outside_the_source_is_refused():
    """An object map that names an object outside the source raises
    ValueError: a2_vertex_functor's map with an extra key "ghost" would
    otherwise count as surjective on objects."""
    import pytest

    f = a2_vertex_functor()
    with pytest.raises(ValueError, match="outside the source: \\['ghost'\\]"):
        LinearFunctor(f.source, f.target, {"*": "1", "ghost": "2"}, f.hom_maps)


def test_hom_map_outside_the_source_is_refused():
    """A hom map keyed by a pair outside the source raises ValueError naming
    the key, rather than being dropped; the source's own pairs still pass."""
    import re

    import pytest

    f = a2_vertex_functor()
    hom_maps = {("*", "*"): RationalMatrix([[1]]), ("*", "ghost"): RationalMatrix([[5]])}
    with pytest.raises(ValueError, match=re.escape("outside the source: [('*', 'ghost')]")):
        LinearFunctor(f.source, f.target, {"*": "1"}, hom_maps)
    del hom_maps[("*", "ghost")]
    assert LinearFunctor(f.source, f.target, {"*": "1"}, hom_maps).hom_maps == f.hom_maps


def test_restrict_identity():
    c = upper_triangular_category()
    idf = identity_functor(c)
    x = yoneda(c, "*")
    assert restrict(idf, x) == x


def test_restrict_diagonal_regular():
    d = diagonal_functor()
    x = yoneda(d.target, "*")
    r = restrict(d, x)
    assert r.total_dim() == 2
    assert validate_module(r) == []


def test_restrict_a2_vertex():
    f = a2_vertex_functor("1")
    x = yoneda(f.target, "2")
    r = restrict(f, x)
    assert r.total_dim() == 1  # x(S*) = Hom(1, 2)


def _functor_module_pairs():
    """Builtin and corpus functors (bundles 0..29) with modules over their
    targets: the representables, and the bundle's modules."""
    from laxepi.corpus import BUILTIN_NAMES, builtin, random_instance

    functors = [f for name in BUILTIN_NAMES for f in builtin(name).functors.values()]
    extra = {}
    for seed in range(30):
        b = random_instance(seed)
        functors += [b.functor, b.surjective_functor]
        extra[id(b.functor)] = extra[id(b.surjective_functor)] = b.modules
    for s in functors:
        xs = [yoneda(s.target, g) for g in s.target.objects]
        xs += [m for m in extra.get(id(s), ()) if m.over == s.target]
        for x in xs:
            yield s, x


def test_restrict_matches_per_basis_action():
    """restrict reads the action off the functor's columns; reference: x acting
    on the image of each basis morphism, summed over its dense coordinates."""
    from laxepi.linalg import RationalMatrix

    count = 0
    for s, x in _functor_module_pairs():
        r = restrict(s, x)
        for v, u in s.source.hom_pairs():
            for i in range(s.source.hom_dim(v, u)):
                m = s.apply(s.source.basis_morphism(v, u, i))
                want = RationalMatrix.zeros(x.dims[m.source], x.dims[m.target])
                for k, a in enumerate(m.coords):
                    want = want + x.action[(m.source, m.target, k)].scale(a)
                assert r.action[(v, u, i)] == want == x.act(m)
                count += 1
    assert count > 500


def test_induce_yoneda_is_yoneda_of_image():
    cases = [
        (identity_functor(upper_triangular_category()), "*"),
        (diagonal_functor(), "*"),
        (a2_vertex_functor("1"), "*"),
        (a2_vertex_functor("2"), "*"),
        (summand_inclusion_functor(), "P"),
        (corner_unit_functor(), "*"),
    ]
    for s, u in cases:
        ind = tensor_bimodule(yoneda(s.source, u), regular_bimodule(s))
        target_rep = yoneda(s.target, s.apply_obj(u))
        assert ind.module.dims == target_rep.dims
        # explicit iso: the composite unit/counit comparison map
        ctx = ind
        iso = _yoneda_comparison(s, u, ctx)
        assert iso.is_iso()
        assert validate_module_map(iso) == []


def _yoneda_comparison(s, u, ctx):
    """Canonical map yoneda(SU) -> induce(yoneda(U)): h |-> class of id_U ⊗ h."""
    from laxepi.linalg import ONE, RationalMatrix, nonzeros
    from laxepi.modules import ModuleMap

    src, tgt = s.source, s.target
    su = s.apply_obj(u)
    target_rep = yoneda(tgt, su)
    id_u = dict(nonzeros(src.identities[u]))
    comps = {}
    for t_obj in tgt.objects:
        cols = [_class_of(ctx, u, id_u, t_obj, {j: ONE}) for j in range(tgt.hom_dim(t_obj, su))]
        comps[t_obj] = RationalMatrix.from_columns(cols, ctx.module.dims[t_obj])
    return ModuleMap(target_rep, ctx.module, comps)


def test_induce_identity_functor_iso():
    c = a2_category()
    idf = identity_functor(c)
    x = yoneda(c, "2")
    ind = tensor_bimodule(x, regular_bimodule(idf))
    assert induction_unit(idf, ind).is_iso()


def test_induce_diagonal_dimension():
    d = diagonal_functor()
    x = yoneda(d.source, "*")  # QQ as module over QQ
    ind = tensor_bimodule(x, regular_bimodule(d))
    assert ind.module.total_dim() == 2
    assert validate_module(ind.module) == []
    assert validate_module_map(induction_unit(d, ind)) == []


def test_counit_identity_iso():
    c = upper_triangular_category()
    eps = counits(identity_functor(c))["*"]
    assert eps.is_iso()


def test_counit_full_surjection_iso_on_representables():
    s = t2_semisimple_surjection()
    eps = counits(s)["*"]
    assert eps.is_iso()


def test_counit_diagonal_dims():
    d = diagonal_functor()
    eps = counits(d)["*"]
    assert eps.source.total_dim() == 4
    assert eps.target.total_dim() == 2
    ker_mod, _ = kernel(eps)
    assert ker_mod.total_dim() == 2
    assert validate_module_map(eps) == []


def test_counit_epi_on_representables_of_surjective_functors():
    """For a functor surjective on objects every counit on a representable is
    epi: the builtins' such functors and those of bundles 0..59, at every
    target object."""
    from laxepi.corpus import BUILTIN_NAMES, builtin, random_instance

    functors = [f for name in BUILTIN_NAMES for f in builtin(name).functors.values()]
    for seed in range(60):
        rb = random_instance(seed)
        functors += [rb.functor, rb.surjective_functor]
    cases = 0
    for s in functors:
        if not s.is_surjective_on_objects():
            continue
        for v, eps in counits(s).items():
            assert eps.is_epi(), v
            cases += 1
    assert cases >= 60


def test_coinduce_identity():
    c = upper_triangular_category()
    co = coinduce(identity_functor(c), yoneda(c, "*"))
    assert co.module.total_dim() == 3


def test_coinduce_zero():
    d = diagonal_functor()
    co = coinduce(d, zero_module(d.source))
    assert co.module.is_zero()


def test_coinduce_diagonal_dimension():
    d = diagonal_functor()
    x = yoneda(d.source, "*")
    co = coinduce(d, x)
    assert co.module.total_dim() == 2
    assert validate_module(co.module) == []


def test_tensor_bimodule_yoneda_identity():
    for s in (diagonal_functor(), corner_unit_functor(), a2_vertex_functor()):
        b = regular_bimodule(s)
        assert validate_bimodule(b) == []
        for g in s.source.objects:
            ctx = tensor_bimodule(yoneda(s.source, g), b)
            iso = _tensor_yoneda_iso(g, b, ctx)
            assert iso.is_iso()
            assert validate_module_map(iso) == []


def test_tensor_zero():
    d = diagonal_functor()
    ctx = tensor_bimodule(zero_module(d.source), regular_bimodule(d))
    assert ctx.module.is_zero()


def _reference_tensor(x, b):
    """x ⊗ b as the full-basis coequalizer, kept as the independent route.

    At each right object h the big space is ⊕_G x(G) ⊗ b(G)(h), with e_a ⊗ e_j
    of slot G at offset + a * dim b(G)(h) + j; one relation row
    x(γ)e_a ⊗ e_j - e_a ⊗ b(γ)e_j for every basis morphism γ: G' -> G, basis
    vector e_a of x(G) and e_j of b(G')(h).  Returns the module, the slot
    offsets, the projections and the free columns.
    """
    from laxepi.linalg import EchelonBasis
    from laxepi.modules import Module

    lc, rc = b.left_cat, b.right_cat
    offsets, rels = {}, {}
    for h in rc.objects:
        offsets[h], off = {}, 0
        for g in lc.objects:
            offsets[h][g] = off
            off += x.dims[g] * b.values[g].dims[h]
        rels[h] = EchelonBasis(off)
        for gp, g in lc.hom_pairs():
            dp, d = b.values[gp].dims[h], b.values[g].dims[h]
            for i in range(lc.hom_dim(gp, g)):
                act = x.action[(gp, g, i)].data  # x(G) -> x(G')
                lact = b.left_action[(gp, g, i)].components[h].data  # b(G')(h) -> b(G)(h)
                for a in range(x.dims[g]):
                    for j in range(dp):
                        row = {}
                        for bb in range(x.dims[gp]):
                            if act[bb][a]:
                                k = offsets[h][gp] + bb * dp + j
                                row[k] = row.get(k, 0) + act[bb][a]
                        for jj in range(d):
                            if lact[jj][j]:
                                k = offsets[h][g] + a * d + jj
                                row[k] = row.get(k, 0) - lact[jj][j]
                        rels[h].insert(row)
    proj = {h: rels[h].quotient_maps()[0] for h in rc.objects}
    free = {h: rels[h].free_columns() for h in rc.objects}
    action = {}
    for h2, h1 in rc.hom_pairs():
        for i in range(rc.hom_dim(h2, h1)):
            cols = []
            for c in free[h1]:  # e_a ⊗ e_j goes to e_a ⊗ b(G)(basis i) e_j
                g, a, j = _reference_slot(x, b, offsets, h1, c)
                big = [Q(0)] * proj[h2].cols
                d2 = b.values[g].dims[h2]
                for jj, v in enumerate(b.values[g].action[(h2, h1, i)].col(j)):
                    big[offsets[h2][g] + a * d2 + jj] += v
                cols.append(proj[h2].apply(big))
            action[(h2, h1, i)] = RationalMatrix.from_columns(cols, len(free[h2]))
    module = Module(rc, {h: len(free[h]) for h in rc.objects}, action)
    return module, offsets, proj, free


def _reference_slot(x, b, offsets, h, c):
    """(G, a, j): big-space column c at h is e_a ⊗ e_j in slot G."""
    g = max((g for g in b.left_cat.objects if offsets[h][g] <= c and x.dims[g] * b.values[g].dims[h]),
            key=lambda g: offsets[h][g])
    a, j = divmod(c - offsets[h][g], b.values[g].dims[h])
    return g, a, j


def _compare_with_reference(x, b, ctx=None):
    """The map from the reference x ⊗ b to the presented one, e_a ⊗ β ↦ class of
    (preimage of e_a) ⊗ β; asserts it is a natural isomorphism and returns it
    with the reference's (module, offsets, projections, free)."""
    from laxepi.linalg import ONE

    ctx = ctx if ctx is not None else tensor_bimodule(x, b)
    ref = _reference_tensor(x, b)
    module, offsets, _, free = ref
    assert module.dims == ctx.module.dims
    comps = {}
    for h in b.right_cat.objects:
        cols = []
        for c in free[h]:
            g, a, j = _reference_slot(x, b, offsets, h, c)
            cols.append(_class_of(ctx, g, {a: ONE}, h, {j: ONE}))
        comps[h] = RationalMatrix.from_columns(cols, ctx.module.dims[h])
    phi = ModuleMap(module, ctx.module, comps)
    assert phi.is_iso()
    assert validate_module_map(phi) == []
    return phi, ref


def test_tensor_agrees_with_induce():
    # cross-oracle: induction agrees with the reference coend of the regular bimodule
    for s in (diagonal_functor(), t2_semisimple_surjection(), a2_vertex_functor()):
        b = regular_bimodule(s)
        for u in s.source.objects:
            x = yoneda(s.source, u)
            i_ctx = tensor_bimodule(x, b)
            phi, (ref_module, offsets, proj, _) = _compare_with_reference(x, b, i_ctx)
            assert ref_module.dims == i_ctx.module.dims
            assert len(hom_modules(ref_module, i_ctx.module)) == len(
                hom_modules(i_ctx.module, i_ctx.module)
            )
            # the reference unit e_a ↦ class of e_a ⊗ id_SU, carried across phi
            for v in s.source.objects:
                sv = s.apply_obj(v)
                cols = []
                for a in range(x.dims[v]):
                    big = [Q(0)] * proj[sv].cols
                    d = b.values[v].dims[sv]
                    for j, e in enumerate(s.target.identities[sv]):
                        big[offsets[sv][v] + a * d + j] += e
                    cols.append(proj[sv].apply(big))
                want = phi.components[sv] * RationalMatrix.from_columns(cols, ref_module.dims[sv])
                assert induction_unit(s, i_ctx).components[v] == want


def _glax_counit_kernels(seeds):
    """(seed, kernel of the counit at g, fac.i) for the localized factorizations
    of the glax-tail bundles."""
    from laxepi.corpus import random_instance
    from laxepi.errors import PreconditionError

    for seed in seeds:
        b = random_instance(seed)
        try:
            fac = canonical_factorization_localized(b.surjective_functor, b.ideals[0])
        except PreconditionError:
            continue
        for eps in counits(fac.s).values():
            yield seed, kernel(eps)[0], fac.i


def test_presented_tensor_matches_reference_on_counit_kernels():
    """Counit kernels tensored with the localized bimodule, as in the conditioned
    check of glax bundles 0..39, against the full-basis coequalizer."""
    seen = set()
    for seed, ker_mod, i_bim in _glax_counit_kernels(range(40)):
        _compare_with_reference(ker_mod, i_bim)
        seen.add(seed)
    assert 11 in seen and len(seen) > 30


def test_presented_tensor_matches_reference_on_regular_bimodules():
    """The induction x ⊗ regular_bimodule(s) matches the reference for every
    builtin functor and both functors of bundles 0..29: representables,
    restricted representables, the bundle's modules and the zero module."""
    from laxepi.corpus import BUILTIN_NAMES, builtin, random_instance

    functors = [(f, ()) for name in BUILTIN_NAMES for f in builtin(name).functors.values()]
    for seed in range(30):
        b = random_instance(seed)
        functors += [(b.functor, b.modules), (b.surjective_functor, b.modules)]
    count = 0
    for s, mods in functors:
        b = regular_bimodule(s)
        xs = [yoneda(s.source, u) for u in s.source.objects]
        xs += [restrict(s, yoneda(s.target, v)) for v in s.target.objects]
        xs += [m for m in mods if m.over == s.source] + [zero_module(s.source)]
        for x in xs:
            _compare_with_reference(x, b, tensor_bimodule(x, b))
            count += 1
    assert count > 300


def test_presented_tensor_map_matches_reference_on_tor1_inclusions():
    """tensor_map of the syzygy inclusion behind tor1, for the tops of every
    builtin functor's source and of bundles 0..29, against ⊕ f_G ⊗ id on the
    reference big spaces, carried across the comparison isomorphisms."""
    from laxepi.corpus import BUILTIN_NAMES, builtin, random_instance
    from laxepi.modules import free_cover, map_compose, tops

    functors = [f for name in BUILTIN_NAMES for f in builtin(name).functors.values()]
    functors += [random_instance(seed).surjective_functor for seed in range(30)]
    count = 0
    for s in functors:
        b = regular_bimodule(s)
        for sigma in tops(s.source).values():
            cover, _ = free_cover(sigma)
            syz, incl = kernel(cover)
            ctx_s, ctx_t = tensor_bimodule(syz, b), tensor_bimodule(cover.source, b)
            phi_s, (ref_s, off_s, _, free_s) = _compare_with_reference(syz, b, ctx_s)
            phi_t, (ref_t, off_t, proj_t, _) = _compare_with_reference(cover.source, b, ctx_t)
            comps = {}
            for h in b.right_cat.objects:
                cols = []
                for c in free_s[h]:
                    g, a, j = _reference_slot(syz, b, off_s, h, c)
                    big = [Q(0)] * proj_t[h].cols
                    d = b.values[g].dims[h]
                    for bb, v in enumerate(incl.components[g].col(a)):
                        big[off_t[h][g] + bb * d + j] += v
                    cols.append(proj_t[h].apply(big))
                comps[h] = RationalMatrix.from_columns(cols, ref_t.dims[h])
            ref_map = ModuleMap(ref_s, ref_t, comps)
            got = tensor_map(incl, ctx_s, ctx_t)
            assert validate_module_map(got) == []
            assert map_compose(got, phi_s) == map_compose(phi_t, ref_map)
            count += 1
    assert count > 50


def test_tor1_projective_and_flat():
    d = diagonal_functor()
    b = regular_bimodule(d)
    x = yoneda(d.source, "*")
    assert tor1(x, b).is_zero()
    # regular bimodule of the identity functor is flat
    c = upper_triangular_category()
    bid = regular_bimodule(identity_functor(c))
    assert tor1(yoneda(c, "*"), bid).is_zero()


def test_adjunction_identity():
    c = a2_category()
    idf = identity_functor(c)
    xs = [yoneda(c, u) for u in c.objects]
    rep = adjunction_check(idf, xs, xs)
    assert rep["ok"]


def test_adjunction_diagonal():
    d = diagonal_functor()
    rep = adjunction_check(
        d, [yoneda(d.source, "*")], [yoneda(d.target, "*")]
    )
    assert rep["ok"]


def test_adjunction_vertex_inclusion():
    f = a2_vertex_functor("1")
    rep = adjunction_check(
        f,
        [yoneda(f.source, "*")],
        [yoneda(f.target, "1"), yoneda(f.target, "2")],
    )
    assert rep["ok"]


def test_canonical_factorization_fully_faithful():
    t = summand_inclusion_functor()
    fac = canonical_factorization(t)
    assert validate_category(fac.mid) == []
    assert validate_functor(fac.s) == []
    assert validate_functor(fac.i) == []
    # t fully faithful => s is an isomorphism of categories
    assert all(is_iso(m) for m in fac.s.hom_maps.values())
    assert _functors_equal(_compose_functors(fac.i, fac.s), t)


def test_canonical_factorization_diagonal():
    t = diagonal_functor()
    fac = canonical_factorization(t)
    assert fac.mid.hom_dim("*", "*") == 2  # End = QQ x QQ
    assert _functors_equal(_compose_functors(fac.i, fac.s), t)
    assert validate_functor(fac.s) == []


def test_canonical_factorization_localized_trivial_reduces():
    p = t2_semisimple_surjection()
    t_triv = whole_ideal(p.target)
    fac_loc = canonical_factorization_localized(p, t_triv)
    fac_plain = canonical_factorization(p)
    assert validate_category(fac_loc.mid) == []
    for pair in fac_plain.mid.hom_pairs():
        assert fac_loc.mid.hom_dim(*pair) == fac_plain.mid.hom_dim(*pair)


def test_canonical_factorization_localized_corner():
    p = corner_unit_functor()
    c = p.target
    t = ideal_closure(c, [c.basis_morphism("*", "*", 0)])
    fac = canonical_factorization_localized(p, t)
    assert validate_category(fac.mid) == []
    assert fac.mid.hom_dim("*", "*") == 1  # quotient category ≅ Md(QQ)
    assert validate_functor(fac.s) == []
    assert validate_bimodule(fac.i) == []


def _localized_s_per_basis(p, t, fac):
    """fac.mid and fac.s's hom matrices by the per-basis routes (reference):
    each composition cell by `hom_matrix(pre=f)`, and each identity and each
    localized basis morphism of the source by its localized map and a
    coordinate solve in `fac.hom_bases`, identities included."""
    from itertools import product

    from test_torsion import localize_map

    from laxepi.category import LinearCategory
    from laxepi.linalg import nonzeros
    from laxepi.modules import flatten_map, hom_matrix, identity_map, yoneda_components

    src, tgt, loc, bases = p.source, p.target, fac.localized_representables, fac.hom_bases

    def coordinates(f, basis):
        return basis.space.coordinates_of(flatten_map(f))

    def localize_morphism(m):
        """`localize_map` of postcomposition by m between its representables."""
        comps = yoneda_components(tgt, m.source, m.target, dict(nonzeros(m.coords)))
        return localize_map(t, ModuleMap(yoneda(tgt, m.source), yoneda(tgt, m.target), comps))

    comp = {}
    for w, v, u in product(src.objects, repeat=3):
        if bases[(v, u)] and bases[(w, v)] and bases[(w, u)]:
            # column gi of by_f[fi]: basis g_gi ∘ basis f_fi in Hom(w, u)
            by_f = [hom_matrix(bases[(v, u)], bases[(w, u)], pre=f) for f in bases[(w, v)]]
            comp[(w, v, u)] = {(gi, fi): cell for fi, m in enumerate(by_f)
                               for gi, cell in enumerate(m.transpose().sp)}
    ids = {u: coordinates(identity_map(loc[u].module), bases[(u, u)]) for u in src.objects}
    mid = LinearCategory(src.objects, {pair: len(b) for pair, b in bases.items()}, comp, ids)
    hom_maps = {}
    for v, u in src.hom_pairs():
        cols = [coordinates(localize_morphism(p.apply(src.basis_morphism(v, u, i))), bases[(v, u)])
                for i in range(src.hom_dim(v, u))]
        hom_maps[(v, u)] = RationalMatrix.from_columns(cols, len(bases[(v, u)]))
    return mid, hom_maps


def test_localized_factorization_s_matches_per_basis_route():
    """The localized factorization reads every map at the unit's image of the
    identity; its mid category (composition cells and identities) and S's hom
    matrices equal the per-basis routes' on both functors of bundles 0..29,
    with each ideal on their target, and on the builtin glax cases."""
    from laxepi.corpus import BUILTIN_NAMES, builtin, random_instance

    cases = []
    for name in BUILTIN_NAMES:
        b = builtin(name)
        cases += [(b.functors[e.args["functor"]], b.ideals[e.args["ideal"]])
                  for e in b.expected if e.kind == "glax"]
    for seed in range(30):
        b = random_instance(seed)
        cases += [(p, t) for p in (b.functor, b.surjective_functor) for t in b.ideals
                  if t.cat is p.target or t.cat == p.target]
    identities = cells = 0
    for p, t in cases:
        fac = canonical_factorization_localized(p, t)
        mid, hom_maps = _localized_s_per_basis(p, t, fac)
        assert fac.mid == mid
        assert fac.s.hom_maps == hom_maps
        assert validate_functor(fac.s) == []
        src = p.source
        identities += sum(src.basis_morphism(u, u, i) == src.identity(u)
                          for u in src.objects for i in range(src.hom_dim(u, u)))
        cells += sum(map(len, mid.cells.values()))
    assert len(cases) == 68 and identities > 100 and cells > 100


def test_canonical_factorization_localized_refuses_ideal_off_target():
    import pytest

    from laxepi.errors import PreconditionError

    p = corner_unit_functor()  # Q -> T2; an ideal on Q is not on the target
    with pytest.raises(PreconditionError, match="torsion data must live on the functor's target"):
        canonical_factorization_localized(p, whole_ideal(p.source))


def test_restriction_preserves_kernels_cokernels():
    from laxepi.modules import cokernel

    s = t2_semisimple_surjection()
    y1, y2 = yoneda(s.target, "*"), yoneda(s.target, "*")
    for f in hom_modules(y1, y2):
        k_then_r = restrict(s, kernel(f)[0])
        rf = restrict_map(s, f, restrict(s, f.source), restrict(s, f.target))
        r_then_k = kernel(rf)[0]
        assert k_then_r.dims == r_then_k.dims
        c_then_r = restrict(s, cokernel(f)[0])
        r_then_c = cokernel(rf)[0]
        assert c_then_r.dims == r_then_c.dims


def test_restrict_reflects_isos_surjective_on_objects():
    s = t2_semisimple_surjection()
    x = yoneda(s.target, "*")
    for f in hom_modules(x, x):
        rf = restrict_map(s, f, restrict(s, f.source), restrict(s, f.target))
        if rf.is_iso():
            assert f.is_iso()
