from fractions import Fraction

from laxepi.corpus import (
    a2_category,
    a2_vertex_functor,
    corner_unit_functor,
    diagonal_functor,
    field_category,
    summand_inclusion_functor,
    t2_semisimple_surjection,
    upper_triangular_category,
)
from laxepi.category import validate_category
from laxepi.functors import (
    adjunction_check,
    canonical_factorization,
    canonical_factorization_localized,
    coinduce,
    compose_functors,
    counit,
    functors_equal,
    identity_functor,
    induce,
    regular_bimodule,
    restrict,
    restrict_map,
    tensor_bimodule,
    tensor_yoneda_iso,
    validate_bimodule,
    validate_functor,
)
from laxepi.linalg import is_iso
from laxepi.modules import (
    hom_modules,
    kernel,
    tor1,
    validate_module,
    validate_module_map,
    yoneda,
    zero_module,
)
from laxepi.torsion import ideal_closure, whole_ideal

Q = Fraction


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
            for b in s.source.basis_morphisms(v, u):
                m = s.apply(b)
                want = RationalMatrix.zeros(x.dims[m.source], x.dims[m.target])
                for k, a in enumerate(m.coords):
                    want = want + x.action[(m.source, m.target, k)].scale(a)
                assert r.action[(v, u, b.coords.index(1))] == want == x.act(m)
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
        ind = induce(s, yoneda(s.source, u))
        target_rep = yoneda(s.target, s.apply_obj(u))
        assert ind.module.dims == target_rep.dims
        # explicit iso: the composite unit/counit comparison map
        ctx = ind
        iso = _yoneda_comparison(s, u, ctx)
        assert iso.is_iso()
        assert validate_module_map(iso) == []


def _yoneda_comparison(s, u, ctx):
    """Canonical map yoneda(SU) -> induce(yoneda(U)): h |-> class of id_U ⊗ h."""
    from laxepi.linalg import ZERO, RationalMatrix
    from laxepi.modules import ModuleMap

    src, tgt = s.source, s.target
    su = s.apply_obj(u)
    target_rep = yoneda(tgt, su)
    comps = {}
    for t_obj in tgt.objects:
        cols = []
        dh = tgt.hom_dim(t_obj, su)
        for j in range(dh):
            big = [ZERO] * ctx.big_dim(t_obj)
            off = ctx.slot_offset(t_obj, u)
            du = tgt.hom_dim(t_obj, su)
            for a, ca in enumerate(src.identities[u]):
                if ca:
                    big[off + a * du + j] += ca
            cols.append(ctx.projections[t_obj].apply(big))
        comps[t_obj] = (
            RationalMatrix(cols, len(cols), ctx.module.dims[t_obj]).transpose()
            if cols
            else RationalMatrix.zeros(ctx.module.dims[t_obj], 0)
        )
    return ModuleMap(target_rep, ctx.module, comps)


def test_induce_identity_functor_iso():
    c = a2_category()
    idf = identity_functor(c)
    x = yoneda(c, "2")
    ind = induce(idf, x)
    assert ind.unit.is_iso()


def test_induce_diagonal_dimension():
    d = diagonal_functor()
    x = yoneda(d.source, "*")  # QQ as module over QQ
    ind = induce(d, x)
    assert ind.module.total_dim() == 2
    assert validate_module(ind.module) == []
    assert validate_module_map(ind.unit) == []


def test_counit_identity_iso():
    c = upper_triangular_category()
    eps = counit(identity_functor(c), yoneda(c, "*"))
    assert eps.is_iso()


def test_counit_full_surjection_iso_on_representables():
    s = t2_semisimple_surjection()
    eps = counit(s, yoneda(s.target, "*"))
    assert eps.is_iso()


def test_counit_diagonal_dims():
    d = diagonal_functor()
    x = yoneda(d.target, "*")
    eps = counit(d, x)
    assert eps.source.total_dim() == 4
    assert eps.target.total_dim() == 2
    ker_mod, _ = kernel(eps)
    assert ker_mod.total_dim() == 2
    assert validate_module_map(eps) == []


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
            iso = tensor_yoneda_iso(g, b, ctx)
            assert iso.is_iso()
            assert validate_module_map(iso) == []


def test_tensor_zero():
    d = diagonal_functor()
    ctx = tensor_bimodule(zero_module(d.source), regular_bimodule(d))
    assert ctx.module.is_zero()


def test_tensor_agrees_with_induce():
    # cross-oracle: tensoring with the regular bimodule is induction
    for s in (diagonal_functor(), t2_semisimple_surjection(), a2_vertex_functor()):
        b = regular_bimodule(s)
        for u in s.source.objects:
            x = yoneda(s.source, u)
            t_ctx = tensor_bimodule(x, b)
            i_ctx = induce(s, x)
            assert t_ctx.module.dims == i_ctx.module.dims
            assert len(hom_modules(t_ctx.module, i_ctx.module)) == len(
                hom_modules(i_ctx.module, i_ctx.module)
            )


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
    assert functors_equal(compose_functors(fac.i, fac.s), t)


def test_canonical_factorization_diagonal():
    t = diagonal_functor()
    fac = canonical_factorization(t)
    assert fac.mid.hom_dim("*", "*") == 2  # End = QQ x QQ
    assert functors_equal(compose_functors(fac.i, fac.s), t)
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


def test_restriction_preserves_kernels_cokernels():
    from laxepi.modules import cokernel

    s = t2_semisimple_surjection()
    y1, y2 = yoneda(s.target, "*"), yoneda(s.target, "*")
    for f in hom_modules(y1, y2):
        k_then_r = restrict(s, kernel(f)[0])
        r_then_k = kernel(restrict_map(s, f))[0]
        assert k_then_r.dims == r_then_k.dims
        c_then_r = restrict(s, cokernel(f)[0])
        r_then_c = cokernel(restrict_map(s, f))[0]
        assert c_then_r.dims == r_then_c.dims


def test_restrict_reflects_isos_surjective_on_objects():
    s = t2_semisimple_surjection()
    x = yoneda(s.target, "*")
    for f in hom_modules(x, x):
        rf = restrict_map(s, f)
        if rf.is_iso():
            assert f.is_iso()
