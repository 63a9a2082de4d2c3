from fractions import Fraction

import pytest

from laxepi.category import opposite
from laxepi.corpus import (
    a2_category,
    a2_vertex_functor,
    corner_unit_functor,
    diagonal_functor,
    field_category,
    product_field_category,
    summand_inclusion_functor,
    t2_semisimple_surjection,
    upper_triangular_category,
)
from laxepi.decide import (
    fully_faithful_restriction,
    is_abelian_localization,
    is_conditioned_epi,
    is_epi,
    is_flat,
    is_flat_epi,
    is_flat_quotient,
    is_generalized_closed_functor,
    is_generalized_lax_epi,
    is_lax_epi,
)
from laxepi.errors import NotSurjectiveOnObjects, PreconditionError, RepresentableNotClosed
from laxepi.functors import (
    canonical_factorization_localized,
    identity_functor,
    regular_bimodule,
)
from laxepi.modules import (
    identity_map,
    validate_module,
    yoneda,
    zero_map,
)
from laxepi.oracles import glax_falsification_oracle, hom_restriction_closed
from laxepi.torsion import ideal_closure, whole_ideal
from reference_oracles import (
    condition_F,
    condition_G,
    conditioned_epi_fullness_oracle,
    ffr_oracle_agrees,
    hom_from_object_module,
)

Q = Fraction


def corner_pair():
    p = corner_unit_functor()
    t = ideal_closure(p.target, [p.target.basis_morphism("*", "*", 0)])
    return p, t


# -- fully faithful restriction / epi ---------------------------------------

def test_ffr_identity():
    assert fully_faithful_restriction(identity_functor(upper_triangular_category())).verdict


def test_ffr_diagonal_false_with_witness():
    rep = fully_faithful_restriction(diagonal_functor())
    assert not rep.verdict
    w = rep.details["witnesses"]["*"]
    assert sum(w["source_dims"].values()) == 4
    assert sum(w["target_dims"].values()) == 2


def test_ffr_summand_inclusion_true():
    assert fully_faithful_restriction(summand_inclusion_functor()).verdict


def test_ffr_oracle_agreement():
    for t in (
        identity_functor(upper_triangular_category()),
        diagonal_functor(),
        t2_semisimple_surjection(),
        summand_inclusion_functor(),
        a2_vertex_functor(),
        corner_unit_functor(),
    ):
        assert ffr_oracle_agrees(t)


def test_is_epi_identity():
    assert is_epi(identity_functor(product_field_category())).verdict


def test_is_epi_surjection():
    assert is_epi(t2_semisimple_surjection()).verdict


def test_is_epi_diagonal_false():
    assert not is_epi(diagonal_functor()).verdict


def test_is_epi_requires_surjective_on_objects():
    with pytest.raises(NotSurjectiveOnObjects):
        is_epi(summand_inclusion_functor())


# -- lax epimorphisms --------------------------------------------------------

def test_lax_epi_summand_inclusion():
    rep = is_lax_epi(summand_inclusion_functor())
    assert rep.verdict
    assert rep.details["canonical_epi"]
    assert rep.details["trace_failures"] == []


def test_lax_epi_diagonal_false():
    assert not is_lax_epi(diagonal_functor()).verdict


def test_lax_epi_identity():
    assert is_lax_epi(identity_functor(a2_category())).verdict


def test_lax_epi_vertex_inclusion_false():
    # {vertex 1} does not cover A2 up to direct factors
    assert not is_lax_epi(a2_vertex_functor("1")).verdict


# -- flatness ----------------------------------------------------------------

def test_hom_from_object_module_valid():
    t = t2_semisimple_surjection()
    op = opposite(t.source)
    for v in t.target.objects:
        assert validate_module(hom_from_object_module(t, op, v)) == []


def test_is_flat_identity_and_diagonal():
    assert is_flat(identity_functor(upper_triangular_category())).verdict
    assert is_flat(diagonal_functor()).verdict


def test_is_flat_field_source_always():
    assert is_flat(a2_vertex_functor("1")).verdict
    assert is_flat(corner_unit_functor()).verdict


def test_is_flat_surjection_false():
    assert not is_flat(t2_semisimple_surjection()).verdict


def test_flat_epi_table():
    assert is_flat_epi(identity_functor(field_category())).verdict
    rep = is_flat_epi(t2_semisimple_surjection())
    assert rep.details["epi"] and not rep.details["flat"] and not rep.verdict
    rep2 = is_flat_epi(diagonal_functor())
    assert rep2.details["flat"] and not rep2.details["epi"] and not rep2.verdict


# -- conditioned epimorphisms -------------------------------------------------

def test_cond_epi_identity_trivial():
    c = upper_triangular_category()
    assert is_conditioned_epi(identity_functor(c), whole_ideal(c)).verdict


def test_cond_epi_surjection_trivial():
    s = t2_semisimple_surjection()
    assert is_conditioned_epi(s, whole_ideal(s.target)).verdict


def test_cond_epi_diagonal_false():
    d = diagonal_functor()
    assert not is_conditioned_epi(d, whole_ideal(d.target)).verdict


def test_cond_epi_representable_not_closed():
    c = upper_triangular_category()
    t = ideal_closure(c, [c.basis_morphism("*", "*", 0)])
    with pytest.raises(RepresentableNotClosed):
        is_conditioned_epi(identity_functor(c), t)


def test_cond_epi_requires_bijective_objects():
    with pytest.raises(NotSurjectiveOnObjects):
        is_conditioned_epi(summand_inclusion_functor(), whole_ideal(summand_inclusion_functor().target))


def test_cond_epi_matches_fullness_oracle():
    cases = [
        (identity_functor(upper_triangular_category()), None),
        (t2_semisimple_surjection(), None),
        (diagonal_functor(), None),
    ]
    for s, _ in cases:
        t = whole_ideal(s.target)
        verdict = is_conditioned_epi(s, t).verdict
        assert verdict == conditioned_epi_fullness_oracle(s, t)


def test_lemma_small_equivalence():
    # for surjective-on-objects functors with trivial torsion: epi == conditioned epi
    for s in (
        identity_functor(upper_triangular_category()),
        t2_semisimple_surjection(),
        diagonal_functor(),
    ):
        assert is_epi(s).verdict == is_conditioned_epi(s, whole_ideal(s.target)).verdict


# -- generalized lax epimorphisms ---------------------------------------------

def test_glax_identity_trivial():
    c = upper_triangular_category()
    rep = is_generalized_lax_epi(identity_functor(c), whole_ideal(c))
    assert rep.verdict


def test_glax_corner_true():
    p, t = corner_pair()
    rep = is_generalized_lax_epi(p, t)
    assert rep.verdict
    assert rep.details["generation"] and rep.details["conditioned"]


def test_glax_diagonal_false():
    d = diagonal_functor()
    rep = is_generalized_lax_epi(d, whole_ideal(d.target))
    assert not rep.verdict
    assert rep.details["generation"] is True
    assert rep.details["conditioned"] is False


def test_glax_falsification_oracle():
    p, t = corner_pair()
    assert glax_falsification_oracle(p, t)
    d = diagonal_functor()
    assert glax_falsification_oracle(d, whole_ideal(d.target))


def test_corner_quotient_homs_match_eae():
    # quotient-category homs of the corner equal Md(QQ) homs
    p, t = corner_pair()
    fac = canonical_factorization_localized(p, t)
    assert fac.mid.hom_dim("*", "*") == 1


def test_abelian_localization_corner():
    p, t = corner_pair()
    assert is_abelian_localization(p, t).verdict


def test_abelian_localization_identity():
    c = upper_triangular_category()
    assert is_abelian_localization(identity_functor(c), whole_ideal(c)).verdict


def test_abelian_localization_surjection_false():
    s = t2_semisimple_surjection()
    rep = is_abelian_localization(s, whole_ideal(s.target))
    assert not rep.verdict
    assert rep.details["glax"]["verdict"] is True
    assert rep.details["flat"] is False


def test_flat_quotient_corner():
    p, t = corner_pair()
    assert is_flat_quotient(p, t).verdict


def _split_by_cyclic_submodules(m):
    """Pieces of a semisimple module, split wherever a basis vector generates a
    proper cyclic submodule; the pieces are summands, each simple or not."""
    from laxepi.modules import cyclic_submodule, quotient_by, sub_to_module

    for u in m.over.objects:
        for a in range(m.dims[u]):
            sub = cyclic_submodule(m, u, [1 if j == a else 0 for j in range(m.dims[u])])
            if 0 < sub.total_dim() < m.total_dim():
                pieces = _split_by_cyclic_submodules(sub_to_module(sub)[0])
                return pieces + _split_by_cyclic_submodules(quotient_by(sub)[0])
    return [m] if m.total_dim() else []


def _flat_quotient_split_failures(p, t):
    """The objects whose top has a split piece σ with Tor_1(σ, B) not torsion."""
    from laxepi.modules import quotient_by, radical_submodule, tor1
    from laxepi.torsion import is_torsion

    b = regular_bimodule(p)
    failures = set()
    for u in p.source.objects:
        top, _ = quotient_by(radical_submodule(yoneda(p.source, u)))
        if not all(is_torsion(t, tor1(s, b)) for s in _split_by_cyclic_submodules(top)):
            failures.add(u)
    return failures


def test_flat_quotient_tops_match_split_reference():
    """One Tor_1 test per top against Tor_1 on the split pieces of every top:
    the same verdict and failing objects on every builtin functor with each
    ideal on its target, and on the surjective functor of bundles 0..149 with
    each of the bundle's ideals on its target."""
    from laxepi.corpus import BUILTIN_NAMES, builtin, random_instance

    cases = []
    for name in BUILTIN_NAMES:
        b = builtin(name)
        cases += [(f, t) for f in b.functors.values() for t in b.ideals.values()]
    for seed in range(150):
        b = random_instance(seed)
        cases += [(b.surjective_functor, t) for t in b.ideals]
    cases = [(p, t) for p, t in cases if t.cat is p.target or t.cat == p.target]
    failing = 0
    for p, t in cases:
        report = is_flat_quotient(p, t)
        want = _flat_quotient_split_failures(p, t)
        assert report.verdict == (not want)
        assert {f["object"] for f in report.details["failures"]} == want
        failing += bool(want)
    assert (len(cases), failing) == (166, 58)


# -- conditions (G) and (F) ----------------------------------------------------

def test_condition_g():
    p, t = corner_pair()
    assert condition_G(p, t)
    c = upper_triangular_category()
    assert condition_G(identity_functor(c), whole_ideal(c))


def test_condition_f_identity_gamma():
    p, t = corner_pair()
    fac = canonical_factorization_localized(p, t)
    gamma = identity_map(fac.localized_representables["*"].module)
    ok, cert = condition_F(p, t, "*", "*", gamma, fac)
    assert ok
    assert cert["*"]["K_basis"]


def test_condition_f_zero_gamma():
    p, t = corner_pair()
    fac = canonical_factorization_localized(p, t)
    loc = fac.localized_representables["*"].module
    gamma = zero_map(loc, loc)
    ok, _ = condition_F(p, t, "*", "*", gamma, fac)
    assert ok


def test_condition_f_invalid_gamma():
    p, t = corner_pair()
    fac = canonical_factorization_localized(p, t)
    bad = identity_map(yoneda(p.target, "*"))
    with pytest.raises(PreconditionError):
        condition_F(p, t, "*", "*", bad, fac)


def test_gf_soundness_on_corner():
    # (G) and (F) for all basis gammas imply generalized lax epimorphism
    p, t = corner_pair()
    fac = canonical_factorization_localized(p, t)
    assert condition_G(p, t)
    for gamma in fac.hom_bases[("*", "*")]:
        ok, _ = condition_F(p, t, "*", "*", gamma, fac)
        assert ok
    assert is_generalized_lax_epi(p, t).verdict


# -- generalized closed functors ------------------------------------------------

def test_closed_functor_embedding_bimodule_all_true():
    p, t = corner_pair()
    fac = canonical_factorization_localized(p, t)
    args = (fac.i, whole_ideal(fac.mid), t)
    rep = is_generalized_closed_functor(*args)
    assert rep.verdict and hom_restriction_closed(*args)
    assert rep.details["failures"] == []


def test_closed_functor_regular_bimodule_nontrivial_torsion_all_false():
    c = upper_triangular_category()
    t_left = ideal_closure(c, [c.basis_morphism("*", "*", 0)])
    b = regular_bimodule(identity_functor(c))
    rep = is_generalized_closed_functor(b, t_left, whole_ideal(c))
    assert not rep.verdict
    assert not hom_restriction_closed(b, t_left, whole_ideal(c))
    # the torsion simple at the one object is its own tensor with b, and not
    # torsion for the whole ideal
    (failure,) = rep.details["failures"]
    assert failure["object"] == "*" and failure["tensor_dims"] == {"*": 1}


def test_closed_functor_trivial_torsion_vacuous_true():
    c = upper_triangular_category()
    b = regular_bimodule(identity_functor(c))
    rep = is_generalized_closed_functor(b, whole_ideal(c), whole_ideal(c))
    assert rep.verdict and hom_restriction_closed(b, whole_ideal(c), whole_ideal(c))
    assert rep.details["failures"] == []


def test_flat_quotient_and_closed_functor_refuse_foreign_torsion_data():
    """is_flat_quotient takes an ideal on the functor's target, and
    is_generalized_closed_functor ideals on the bimodule's left and right
    categories.  With the bundles' ideals on the wrong side (bundles
    0..59), each raises PreconditionError unless the two categories are
    equal; neither answers nor fails on a missing object."""
    from laxepi.corpus import random_instance

    refused = {"flat-quotient": 0, "closed": 0}
    for seed in range(60):
        b = random_instance(seed)
        f, (t_src, t_tgt) = b.functor, b.ideals
        if t_src.cat != f.target:
            with pytest.raises(PreconditionError, match="functor's target"):
                is_flat_quotient(f, t_src)
            refused["flat-quotient"] += 1
        reg = regular_bimodule(f)
        if t_tgt.cat != reg.left_cat or t_src.cat != reg.right_cat:
            with pytest.raises(PreconditionError, match="the bimodule's"):
                is_generalized_closed_functor(reg, t_tgt, t_src)
            refused["closed"] += 1
    assert min(refused.values()) >= 50, refused


def test_deciders_read_the_ranks_of_the_module_routes():
    """The deciders read counit, kernel and Tor_1 dims off ranks and, for
    J = AeA, test torsion on the dims at E.  Their reports equal the module
    routes', which build the counits, their kernels and the Tor_1 modules and
    test them by the action: `fully_faithful_restriction`'s witnesses,
    `is_conditioned_epi`'s kernel dims and `is_flat_quotient`'s Tor_1 dims;
    `is_generalized_closed_functor`'s failures, whose torsion test reads dims
    at a corner, equal the action test's too.  On every builtin (corner_T2's
    e11 included) and on both functors of bundles 0..59 with each ideal on
    their targets.  Each report fails somewhere."""
    from laxepi.corpus import BUILTIN_NAMES, builtin, random_instance
    from laxepi.functors import counits
    from laxepi.linalg import rank
    from laxepi.oracles import conditioned_epi_by_counit_kernels, flat_quotient_by_tor_modules
    from reference_oracles import closed_functor_failures

    groups = [(list(b.functors.values()), list(b.ideals.values()))
              for b in map(builtin, BUILTIN_NAMES)]
    groups += [([b.functor, b.surjective_functor], b.ideals) for b in map(random_instance, range(60))]
    failing = dict.fromkeys(("ffr", "cond-epi", "flat-quotient", "closed"), 0)
    for functors, ideals in groups:
        for p in functors:
            want = {v: {"source_dims": dict(eps.source.dims), "target_dims": dict(eps.target.dims),
                        "component_ranks": {u: rank(m) for u, m in eps.components.items()}}
                    for v, eps in counits(p).items() if not eps.is_iso()}
            assert fully_faithful_restriction(p).details["witnesses"] == want
            failing["ffr"] += bool(want)
            on_target = [t for t in ideals if t.cat is p.target or t.cat == p.target]
            for t in on_target:
                want = flat_quotient_by_tor_modules(p, t)
                assert is_flat_quotient(p, t).details["failures"] == want
                failing["flat-quotient"] += bool(want)
                if p.is_bijective_on_objects():
                    try:
                        got = is_conditioned_epi(p, t).details["witnesses"]
                    except RepresentableNotClosed:
                        continue
                    want = conditioned_epi_by_counit_kernels(p, t)
                    assert got == want
                    failing["cond-epi"] += bool(want)
            reg = regular_bimodule(p)
            sides = [(tl, tr) for tl in ideals for tr in ideals
                     if tl.cat == reg.left_cat and tr.cat == reg.right_cat]
            for tl, tr in sides:
                want = closed_functor_failures(reg, tl, tr)
                assert is_generalized_closed_functor(reg, tl, tr).details["failures"] == want
                failing["closed"] += bool(want)
    assert min(failing.values()) > 10, failing


def _dense_multiplication_map_iso(s):
    """The multiplication-map oracle as one dense loop of basis composites
    (reference): every relation row is a dense vector over the big space."""
    from laxepi.category import compose
    from laxepi.linalg import ZERO, EchelonBasis

    src, tgt = s.source, s.target
    witness = {}
    for hp in tgt.objects:
        for h in tgt.objects:
            slots, offset = [], 0
            for u in src.objects:
                su = s.object_map[u]
                d1, d2 = tgt.hom_dim(su, h), tgt.hom_dim(hp, su)
                slots.append((u, su, d1, d2, offset))
                offset += d1 * d2
            total, dh = offset, tgt.hom_dim(hp, h)

            def pos(slot, i, j):
                return slot[4] + i * slot[3] + j

            mult_cols = [None] * total
            for slot in slots:
                u, su, d1, d2, off = slot
                for i in range(d1):
                    for j in range(d2):
                        g, f = tgt.basis_morphism(su, h, i), tgt.basis_morphism(hp, su, j)
                        mult_cols[pos(slot, i, j)] = compose(tgt, g, f).coords
            mult_rank = EchelonBasis(dh)
            for col in mult_cols:
                mult_rank.insert(col)
            rel = EchelonBasis(total)
            slot_of = {sl[0]: sl for sl in slots}
            for v in src.objects:
                for u in src.objects:
                    for k in range(src.hom_dim(v, u)):
                        su_mor = s.apply(src.basis_morphism(v, u, k))
                        slot_u, slot_v = slot_of[u], slot_of[v]
                        for i in range(slot_u[2]):
                            g_su = compose(tgt, tgt.basis_morphism(slot_u[1], h, i), su_mor)
                            for j in range(slot_v[3]):
                                f = tgt.basis_morphism(hp, slot_v[1], j)
                                su_f = compose(tgt, su_mor, f)
                                row = [ZERO] * total
                                for ii, cc in enumerate(g_su.coords):
                                    row[pos(slot_v, ii, j)] += cc
                                for jj, cc in enumerate(su_f.coords):
                                    row[pos(slot_u, i, jj)] -= cc
                                if any(row):
                                    acc = [ZERO] * dh
                                    for p, cc in enumerate(row):
                                        if cc:
                                            acc = [a + cc * b for a, b in zip(acc, mult_cols[p])]
                                    assert not any(acc)
                                    rel.insert(row)
            if not (mult_rank.dim == dh and rel.dim == total - mult_rank.dim):
                witness[(hp, h)] = {
                    "big_dim": total,
                    "relation_dim": rel.dim,
                    "mult_rank": mult_rank.dim,
                    "hom_dim": dh,
                }
    return (not witness), witness


def test_multiplication_map_iso_matches_dense_loop():
    """Verdicts and witness dims of the sparse oracle equal the dense loop's, on
    every builtin functor and both functors of bundles 0..29."""
    from laxepi.corpus import BUILTIN_NAMES, builtin, random_instance
    from laxepi.oracles import multiplication_map_iso

    functors = [f for name in BUILTIN_NAMES for f in builtin(name).functors.values()]
    for seed in range(30):
        b = random_instance(seed)
        functors += [b.functor, b.surjective_functor]
    verdicts = []
    for s in functors:
        got = multiplication_map_iso(s)
        assert got == _dense_multiplication_map_iso(s)
        verdicts.append(got[0])
    assert True in verdicts and False in verdicts


def test_generation_check_matches_fresh_localizations():
    """The generation check skips the objects p hits, where the family holds
    the localized representable itself; its verdict and failures equal those
    found by localizing every representable of the target afresh and taking
    every trace (reference)."""
    from laxepi.corpus import random_instance
    from laxepi.decide import _generation_check
    from laxepi.modules import module_trace, quotient_by
    from laxepi.torsion import is_torsion, localize

    failing = 0
    for seed in range(30):
        b = random_instance(seed)
        for p in (b.functor, b.surjective_functor):
            for t in b.ideals:
                if not (t.cat is p.target or t.cat == p.target):
                    continue
                fac = canonical_factorization_localized(p, t)
                family = [fac.localized_representables[u].module for u in p.source.objects]
                want = {}
                for v in t.cat.objects:
                    cm, _ = localize(t, yoneda(t.cat, v))
                    tr = module_trace(family, cm.module)
                    if not is_torsion(t, quotient_by(tr)[0]):
                        want[v] = {"trace_dims": {u: tr.spaces[u].dim for u in t.cat.objects}}
                assert _generation_check(fac, p) == (not want, want)
                failing += bool(want)
    assert failing > 5


def test_conditioned_check_matches_fresh_representables():
    """The conditioned check reads K_g ⊗ i as the kernel of the evaluation
    s*y_g ⊗ (i∘s) -> i(g) at each representable y_g of the mid category; its
    verdict and failures equal the counit route's, which builds K_g and
    tensors it with i (reference)."""
    from laxepi.corpus import random_instance
    from laxepi.decide import _conditioned_check
    from laxepi.oracles import conditioned_check_by_counits

    failing = 0
    for seed in range(30):
        b = random_instance(seed)
        for p in (b.functor, b.surjective_functor):
            for t in b.ideals:
                if not (t.cat is p.target or t.cat == p.target):
                    continue
                fac = canonical_factorization_localized(p, t)
                want = conditioned_check_by_counits(fac)
                assert _conditioned_check(fac) == want
                failing += not want[0]
    assert failing > 5


def test_conditioned_check_matches_the_counit_route_on_builtins():
    """The same identity off the random corpus, whose ideals are all J = AeA:
    every (functor, ideal) pair of the builtins, among them corner_T2's e11,
    which localizes by the Gabriel step.  Verdict, kernel_dims and
    tensor_dims equal the counit route's; diagonal_k_kk fails, so the
    witness fields are compared too."""
    from laxepi.corpus import BUILTIN_NAMES, builtin
    from laxepi.decide import _conditioned_check
    from laxepi.oracles import conditioned_check_by_counits

    cases, gabriel, failing = 0, 0, 0
    for name in BUILTIN_NAMES:
        b = builtin(name)
        for p in b.functors.values():
            for t in b.ideals.values():
                if not (t.cat is p.target or t.cat == p.target):
                    continue
                fac = canonical_factorization_localized(p, t)
                want = conditioned_check_by_counits(fac)
                assert _conditioned_check(fac) == want, name
                cases += 1
                gabriel += t.corner is None
                failing += not want[0]
    assert cases >= 5 and gabriel == 1 and failing >= 1


def test_is_flat_matches_the_projectivity_of_the_cell_reference():
    """is_flat reads Hom(V, T-) off the regular bimodule's left action at V;
    its non_projective_at lists exactly the V whose Hom(V, T-), postcomposed
    straight off the cells (`reference_oracles.hom_from_object_module`), does
    not split off its cover: on the builtins and both functors of bundles
    0..199, with both verdicts seen."""
    from laxepi.corpus import BUILTIN_NAMES, builtin, random_instance
    from reference_oracles import splits

    functors = [f for name in BUILTIN_NAMES for f in builtin(name).functors.values()]
    for seed in range(200):
        b = random_instance(seed)
        functors += [b.functor, b.surjective_functor]
    seen = set()
    for t in functors:
        op = opposite(t.source)
        want = [v for v in t.target.objects if not splits(hom_from_object_module(t, op, v))]
        assert is_flat(t).details["non_projective_at"] == want
        seen.add(not want)
    assert seen == {True, False}
