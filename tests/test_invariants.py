"""Property-style invariants tying several layers together."""

from hypothesis import given, settings
from hypothesis import strategies as st

from laxepi import decide
from laxepi.corpus import (
    builtin,
    a2_category,
    random_instance,
    upper_triangular_category,
)
from laxepi.functors import (
    canonical_factorization_localized,
    identity_functor,
    regular_bimodule,
    tensor_bimodule,
    tensor_map,
)
from laxepi.linalg import kernel_basis
from laxepi.modules import (
    Submodule,
    ext1,
    flatten_map,
    hom_modules,
    identity_map,
    is_projective,
    kernel,
    map_compose,
    quotient_by,
    sub_to_module,
    tops,
    yoneda,
)
from laxepi.torsion import (
    ideal_closure,
    is_torsion,
    localize,
    q_iso,
    quotient_hom,
    torsion_submodule,
)
from reference_oracles import condition_F, condition_G


def test_yoneda_lemma_dimension_general_modules():
    c = a2_category()
    s2 = tops(c)["2"]
    for x in (s2, yoneda(c, "2")):
        for u in c.objects:
            assert len(hom_modules(yoneda(c, u), x)) == x.dims[u]


def test_yoneda_bijection_natural():
    # evaluation at the identity commutes with postcomposition by module maps
    c = a2_category()
    u = "2"
    yu = yoneda(c, u)
    x = yu
    (proj,) = hom_modules(x, tops(c)[u])  # the projection onto the top, up to scale
    for alpha in hom_modules(yu, x):
        ev_x = alpha.components[u].apply(c.identities[u])
        pushed = map_compose(proj, alpha)
        ev_y = pushed.components[u].apply(c.identities[u])
        assert tuple(proj.components[u].apply(ev_x)) == tuple(ev_y)


def test_hom_contains_identity_exactly():
    c = upper_triangular_category()
    x = yoneda(c, "*")
    basis = hom_modules(x, x)
    assert basis.space.contains(flatten_map(identity_map(x)))


def test_projective_implies_ext1_vanishes():
    c = a2_category()
    samples = list(tops(c).values()) + [yoneda(c, u) for u in c.objects]
    for x in samples:
        ok, _ = is_projective(x)
        if ok:
            for y in samples:
                assert ext1(x, y) == 0


def test_abelian_localization_preserves_exactness():
    # when the verdict is true, localize∘induce keeps sampled monos exact
    b = builtin("corner_T2")
    p, t = b.functors["p"], b.ideals["e11"]
    assert decide.is_abelian_localization(p, t).verdict
    src = p.source
    x = yoneda(src, "*")
    for f in hom_modules(x, x):
        if not all(kernel_basis(m).is_zero() for m in f.components.values()):
            continue
        reg = regular_bimodule(p)
        ctx_s, ctx_t = tensor_bimodule(f.source, reg), tensor_bimodule(f.target, reg)
        ind_f = tensor_map(f, ctx_s, ctx_t)
        ker_mod, _ = kernel(ind_f)
        assert is_torsion(t, ker_mod)


def test_gf_soundness_across_corpus():
    # (G) and (F) for every basis gamma imply the generalized lax epi verdict
    cases = []
    corner = builtin("corner_T2")
    cases.append((corner.functors["p"], corner.ideals["e11"]))
    surj = builtin("surjection_T2_semisimple")
    cases.append((surj.functors["q"], surj.ideals["trivial"]))
    ident = builtin("identity_ring")
    cases.append((ident.functors["id"], ident.ideals["trivial"]))
    for p, t in cases:
        fac = canonical_factorization_localized(p, t)
        if not condition_G(p, t):
            continue
        all_f = True
        for (v, u), basis in fac.hom_bases.items():
            for gamma in basis:
                ok, _ = condition_F(p, t, v, u, gamma, fac)
                if not ok:
                    all_f = False
        if all_f:
            assert decide.is_generalized_lax_epi(p, t).verdict


def test_is_closed_cross_oracle_hom_and_ext1_vanish():
    # closed modules kill Hom and Ext^1 from torsion quotients of representables
    c = upper_triangular_category()
    t = ideal_closure(c, [c.basis_morphism("*", "*", 0)])
    reg = yoneda(c, "*")
    torsion_quotients = []
    for u in c.objects:
        q, _ = quotient_by(Submodule(yoneda(c, u), {v: t.ideal[(v, u)] for v in c.objects}))
        if is_torsion(t, q) and not q.is_zero():
            torsion_quotients.append(q)
    ts, _ = sub_to_module(torsion_submodule(t, reg))
    if not ts.is_zero():
        torsion_quotients.append(ts)
    cm, _ = localize(t, reg)
    assert torsion_quotients
    for l in torsion_quotients:
        assert hom_modules(l, cm.module) == []
        assert ext1(l, cm.module) == 0
    # the non-closed torsion-free quotient is detected by the oracle too
    from laxepi.torsion import is_closed

    free_part, _ = quotient_by(torsion_submodule(t, reg))
    if not is_closed(t, free_part):
        assert any(
            hom_modules(l, free_part) or ext1(l, free_part) for l in torsion_quotients
        )


def test_quotient_hom_contains_identity_for_closed():
    c = upper_triangular_category()
    t = ideal_closure(c, [c.basis_morphism("*", "*", 0)])
    reg = yoneda(c, "*")
    cm, _ = localize(t, reg)
    basis = quotient_hom(t, cm.module, cm.module)
    assert basis.space.contains(flatten_map(identity_map(cm.module)))


def test_factorization_localized_identity_endo_categories():
    # p = identity: mid homs are endomorphisms of the localized representables
    c = upper_triangular_category()
    t = ideal_closure(c, [c.basis_morphism("*", "*", 0)])
    fac = canonical_factorization_localized(identity_functor(c), t)
    cm, _ = localize(t, yoneda(c, "*"))
    assert fac.mid.hom_dim("*", "*") == len(hom_modules(cm.module, cm.module))


def test_factor_output_roundtrips_as_fixture(tmp_path):
    import json

    from laxepi.cli import main
    from laxepi.fileio import bundle_to_instance, parse_category, serialize_instance

    inst = bundle_to_instance(builtin("diagonal_k_kk"))
    path = tmp_path / "d.json"
    path.write_text(json.dumps(serialize_instance(inst)), encoding="utf-8")
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        assert main(["factor", str(path), "--functor", "d"]) == 0
    out = json.loads(buf.getvalue())
    mid = parse_category(out["mid_category"], "mid")
    from laxepi.category import validate_category

    assert validate_category(mid) == []
    assert mid.hom_dim("*", "*") == 2


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_random_functor_lax_agreement_property(seed):
    rb = random_instance(seed)
    lax = decide.is_lax_epi(rb.functor)
    assert lax.verdict == decide.fully_faithful_restriction(rb.functor).verdict


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_random_localization_laws_property(seed):
    rb = random_instance(seed)
    for m in rb.modules[:1]:
        for t in rb.ideals:
            if t.cat is m.over or t.cat == m.over:
                cm, unit = localize(t, m)
                assert q_iso(t, unit)
