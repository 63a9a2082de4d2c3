"""Decision procedures for the epimorphism-type properties of linear functors.

Each decider reduces an a-priori infinite condition (full faithfulness over a
module category) to the finite criteria that make it decidable at desk scale:
counits on representables, per-object torsion tests on counit kernels,
generation by trace submodules, projectivity of finitely many hom modules.
Each decider runs one route.  The independent reference routes (tensor
multiplication spans, restriction-hom ranks, corner algebras) are compared
with these deciders by the acceptance suite and by `laxepi corpus run`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from typing import Sequence

from .category import LinearCategory, Morphism, compose, opposite, postcompose_cells
from .errors import (
    InternalInvariantError,
    NotSurjectiveOnObjects,
    PreconditionError,
    RepresentableNotClosed,
)
from .functors import (
    Factorization,
    LinearFunctor,
    canonical_factorization,
    canonical_factorization_localized,
    counit,
    induce,
    regular_bimodule,
    tensor_bimodule,
    tensor_map,
)
from .linalg import RationalMatrix, Subspace, image_basis, kernel_basis, solve
from .modules import (
    Bimodule,
    Module,
    ModuleMap,
    Submodule,
    hom_diagram_module,
    hom_matrix,
    identity_map,
    image,
    is_projective,
    kernel,
    map_compose,
    module_trace,
    quotient_by,
    sub_to_module,
    submodule_sum,
    tops,
    tor1,
    trace_span,
    validate_module_map,
    yoneda,
    zero_submodule,
)
from .torsion import (
    TorsionData,
    is_closed,
    is_torsion,
    localize,
    localize_morphism,
    q_iso,
    whole_ideal,
)


@dataclass
class DecisionReport:
    kind: str
    verdict: bool
    details: dict = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.verdict


# ---------------------------------------------------------------------------
# full faithfulness of restriction / ordinary epimorphisms
# ---------------------------------------------------------------------------

def fully_faithful_restriction(t: LinearFunctor) -> DecisionReport:
    """Counit on every representable of the target; iso there propagates everywhere."""
    from .linalg import rank

    witnesses = {}
    reg = regular_bimodule(t)
    for v in t.target.objects:
        eps = counit(t, yoneda(t.target, v), reg)
        if not eps.is_iso():
            witnesses[v] = {
                "source_dims": dict(eps.source.dims),
                "target_dims": dict(eps.target.dims),
                "component_ranks": {u: rank(m) for u, m in eps.components.items()},
            }
    return DecisionReport(
        "fully-faithful-restriction", not witnesses, {"witnesses": witnesses}
    )


def is_epi(s: LinearFunctor) -> DecisionReport:
    """Epimorphism of rings with several objects (surjective-on-objects only),
    decided by full faithfulness of restriction."""
    if not s.is_surjective_on_objects():
        raise NotSurjectiveOnObjects(
            "epimorphism test requires a functor surjective on objects"
        )
    main = fully_faithful_restriction(s)
    return DecisionReport("epi", main.verdict, {"counit_witnesses": main.details["witnesses"]})


def is_lax_epi(t: LinearFunctor) -> DecisionReport:
    """Canonical-factor epimorphism plus identities summing through image objects."""
    fac = canonical_factorization(t)
    epi_rep = is_epi(fac.s)
    image_objs = t.image_objects()
    trace_failures = []
    for v in t.target.objects:
        span = trace_span(t.target, image_objs, v)
        if not span.contains(t.target.identities[v]):
            trace_failures.append(v)
    return DecisionReport(
        "lax-epi",
        epi_rep.verdict and not trace_failures,
        {"canonical_epi": epi_rep.verdict, "trace_failures": trace_failures},
    )


# ---------------------------------------------------------------------------
# flatness
# ---------------------------------------------------------------------------

def is_flat(t: LinearFunctor) -> DecisionReport:
    """Exactness of induction: every Hom(V, T-) is a projective left module."""
    src, tgt = t.source, t.target
    op = opposite(src)
    failures = []
    for v in tgt.objects:
        m = _hom_from_object_module(t, op, v)
        ok, _ = is_projective(m)
        if not ok:
            failures.append(v)
    return DecisionReport("flat", not failures, {"non_projective_at": failures})


def _hom_from_object_module(t: LinearFunctor, op: LinearCategory, v: str) -> Module:
    """Hom_target(v, T-) as a right module over the opposite of the source."""
    tgt = t.target
    dims = {u: tgt.hom_dim(v, t.apply_obj(u)) for u in op.objects}
    action = {}
    for a, b_obj in op.hom_pairs():  # op morphism a -> b_obj is a source morphism b_obj -> a
        tb, ta = t.apply_obj(b_obj), t.apply_obj(a)
        for i, timg in enumerate(t.columns[(b_obj, a)]):  # T(b_obj) -> T(a)
            # column j: timg ∘ h_j for the basis h_j of Hom(v, T(b_obj))
            cells = postcompose_cells(tgt, v, tb, ta, timg)
            action[(a, b_obj, i)] = RationalMatrix.from_sparse_rows(cells, dims[a]).transpose()
    return Module(op, dims, action)


def is_flat_quotient(p: LinearFunctor, t_prime: TorsionData) -> DecisionReport:
    """Ulmer flatness into the quotient: Tor_1(σ, B) is torsion for all simples σ.

    Tor_1(-, B) commutes with finite direct sums, a hereditary torsion class is
    closed under sums and summands, and every simple is a summand of a top, so
    testing the top at every object decides it.
    """
    b = regular_bimodule(p)
    failures = []
    for u, top in tops(p.source).items():
        tor = tor1(top, b)
        if not is_torsion(t_prime, tor):
            failures.append({"object": u, "tor_dims": dict(tor.dims)})
    return DecisionReport("flat-quotient", not failures, {"failures": failures})


def is_flat_epi(phi: LinearFunctor) -> DecisionReport:
    """Flat epimorphism of rings: canonical factor is epi and induction is exact."""
    if len(phi.source.objects) != 1 or len(phi.target.objects) != 1:
        raise PreconditionError("flat-epi test expects one-object categories")
    fac = canonical_factorization(phi)
    epi_rep = is_epi(fac.s)
    flat_rep = is_flat(phi)
    return DecisionReport(
        "flat-epi",
        epi_rep.verdict and flat_rep.verdict,
        {"epi": epi_rep.verdict, "flat": flat_rep.verdict},
    )


# ---------------------------------------------------------------------------
# conditioned epimorphisms
# ---------------------------------------------------------------------------

def is_conditioned_epi(s: LinearFunctor, t: TorsionData) -> DecisionReport:
    """Torsion counit-kernels on representables, under the closedness hypothesis."""
    if not s.is_bijective_on_objects():
        raise NotSurjectiveOnObjects(
            "conditioned-epimorphism test requires a functor bijective on objects"
        )
    if not (t.cat is s.target or t.cat == s.target):
        raise PreconditionError("torsion data must live on the functor's target")
    for g in s.target.objects:
        if not is_closed(t, yoneda(s.target, g)):
            raise RepresentableNotClosed(
                f"hypothesis violated: representable at {g} is not closed"
            )
    witnesses = {}
    reg = regular_bimodule(s)
    for g in s.target.objects:
        eps = counit(s, yoneda(s.target, g), reg)
        ker_mod, _ = kernel(eps)
        if not is_torsion(t, ker_mod):
            witnesses[g] = {"kernel_dims": dict(ker_mod.dims)}
    return DecisionReport("cond-epi", not witnesses, {"witnesses": witnesses})


# ---------------------------------------------------------------------------
# generalized lax epimorphisms and abelian localizations
# ---------------------------------------------------------------------------

def _generation_check(fac: Factorization, p: LinearFunctor) -> tuple[bool, dict]:
    """Do the localized induced representables generate the quotient category?
    `fac` is p's localized factorization: it holds the localized representable
    at every object that p hits."""
    t_prime: TorsionData = fac.torsion
    tgt_cat = t_prime.cat
    loc = fac.localized_representables
    family = [loc[u][0].module for u in fac.s.source.objects]
    localized = {p.apply_obj(u): loc[u][0] for u in p.source.objects}
    failures = {}
    for v in tgt_cat.objects:
        cm = localized[v] if v in localized else localize(t_prime, yoneda(tgt_cat, v))[0]
        tr = module_trace(family, cm.module)
        q, _ = quotient_by(tr)
        if not is_torsion(t_prime, q):
            failures[v] = {"trace_dims": {u: tr.spaces[u].dim for u in tgt_cat.objects}}
    return not failures, failures


def _conditioned_check(fac: Factorization) -> tuple[bool, dict]:
    """Counit kernels over the mid category land in Ker I^* (tensor with i, test torsion)."""
    t_prime: TorsionData = fac.torsion
    failures = {}
    reg = regular_bimodule(fac.s)
    for g in fac.mid.objects:
        eps = counit(fac.s, yoneda(fac.mid, g), reg)
        ker_mod, _ = kernel(eps)
        tens = tensor_bimodule(ker_mod, fac.i)
        if not is_torsion(t_prime, tens.module):
            failures[g] = {
                "kernel_dims": dict(ker_mod.dims),
                "tensor_dims": dict(tens.module.dims),
            }
    return not failures, failures


def is_generalized_lax_epi(p: LinearFunctor, t_prime: TorsionData) -> DecisionReport:
    """Generation plus conditioned cancellation for the localized factorization."""
    fac = canonical_factorization_localized(p, t_prime)
    gen_ok, gen_fail = _generation_check(fac, p)
    if not gen_ok:
        return DecisionReport(
            "glax",
            False,
            {"generation": False, "generation_failures": gen_fail, "conditioned": None},
        )
    cond_ok, cond_fail = _conditioned_check(fac)
    return DecisionReport(
        "glax",
        gen_ok and cond_ok,
        {
            "generation": gen_ok,
            "conditioned": cond_ok,
            "conditioned_failures": cond_fail,
        },
    )


def is_abelian_localization(p: LinearFunctor, t_prime: TorsionData) -> DecisionReport:
    """Generalized lax epimorphism together with Ulmer flatness into the quotient."""
    glax = is_generalized_lax_epi(p, t_prime)
    flat = is_flat_quotient(p, t_prime)
    verdict = glax.verdict and flat.verdict
    details = {"glax": glax.details | {"verdict": glax.verdict}, "flat": flat.verdict}
    return DecisionReport("abelian-localization", verdict, details)


def induced_filter_membership(
    p: LinearFunctor, t_prime: TorsionData, sub: Submodule
) -> bool:
    """Is a submodule of a representable dense for the induced filter, i.e. does
    induction turn its inclusion into an isomorphism of the quotient category?"""
    sub_mod, incl = sub_to_module(sub)
    ctx_sub = induce(p, sub_mod)
    ctx_amb = induce(p, sub.of)
    ind_incl = tensor_map(incl, ctx_amb.bimodule, ctx_sub, ctx_amb)
    return q_iso(t_prime, ind_incl)


def check_kernel_description(
    p: LinearFunctor, t_prime: TorsionData, samples: Sequence[Module]
) -> DecisionReport:
    """Membership in Ker T^* computed two ways must coincide on every sample."""
    disagreements = []
    for k, x in enumerate(samples):
        ind = induce(p, x).module
        torsion_route = is_torsion(t_prime, ind)
        cm, _ = localize(t_prime, ind)
        localize_route = cm.module.is_zero()
        if torsion_route != localize_route:
            disagreements.append(
                {"sample": k, "torsion": torsion_route, "localize_zero": localize_route}
            )
    return DecisionReport(
        "kernel-description", not disagreements, {"disagreements": disagreements}
    )


# ---------------------------------------------------------------------------
# sufficiency conditions (G) and (F)
# ---------------------------------------------------------------------------

def condition_G(p: LinearFunctor, t_prime: TorsionData) -> bool:
    fac = canonical_factorization_localized(p, t_prime)
    ok, _ = _generation_check(fac, p)
    return ok


def condition_F(
    p: LinearFunctor,
    t_prime: TorsionData,
    u_obj: str,
    u2_obj: str,
    gamma: ModuleMap,
    fac: Factorization | None = None,
) -> tuple[bool, dict]:
    """Solvability γ·T(u) = T(u') on the maximal subspace, with covering images.

    For every source object V the subspace K_V of morphisms u: V -> U with
    γ∘T(u) in the image of T on Hom(V, U') is computed exactly; the condition
    holds when the joint image of T over all K_V covers T(U) up to torsion.
    """
    if fac is None:
        fac = canonical_factorization_localized(p, t_prime)
    loc = fac.localized_representables
    src = p.source
    if gamma.source != loc[u_obj][0].module or gamma.target != loc[u2_obj][0].module:
        err = PreconditionError(
            "gamma is not a map between the localized induced representables"
        )
        err.code = "E_INVALID_QUOTIENT_HOM"
        raise err
    if validate_module_map(gamma):
        err = PreconditionError("gamma is not natural")
        err.code = "E_INVALID_QUOTIENT_HOM"
        raise err

    def t_of(u_mor: Morphism) -> ModuleMap:
        return localize_morphism(
            t_prime, p.apply(u_mor), loc[u_mor.source][0], loc[u_mor.target][0]
        )

    certificate = {}
    trace = zero_submodule(loc[u_obj][0].module)
    covering_maps = []
    for v in src.objects:
        if not src.hom_dim(v, u_obj):
            certificate[v] = {"K_basis": [], "solved": []}
            continue
        basis_v_u2 = fac.hom_bases[(v, u2_obj)]
        # T on Hom(V, U') and phi: u ↦ gamma ∘ T(u) on Hom(V, U), in quotient-hom coordinates
        t_mat = fac.s.hom_maps.get((v, u2_obj), RationalMatrix.zeros(len(basis_v_u2), 0))
        phi = hom_matrix(fac.hom_bases[(v, u_obj)], basis_v_u2, post=gamma)
        phi = phi * fac.s.hom_maps[(v, u_obj)]
        proj, _ = image_basis(t_mat).quotient_maps()
        k_v = kernel_basis(proj * phi)
        solved = []
        for u_coords in k_v.basis_vectors():
            rhs = phi.apply(u_coords)
            u_prime = solve(t_mat, rhs)
            if u_prime is None:
                raise InternalInvariantError("K_V element not actually solvable")
            solved.append((tuple(u_coords), tuple(u_prime)))
            u_mor = Morphism(v, u_obj, u_coords)
            covering_maps.append(t_of(u_mor))
        certificate[v] = {"K_basis": k_v.basis_vectors(), "solved": solved}
    for cm in covering_maps:
        trace = submodule_sum(trace, image(cm))
    q, _ = quotient_by(trace)
    ok = is_torsion(t_prime, q)
    return ok, certificate


def _hcat(blocks: Sequence[RationalMatrix], rows: int) -> RationalMatrix:
    return reduce(RationalMatrix.hstack, blocks, RationalMatrix.zeros(rows, 0))


def _vcat(blocks: Sequence[RationalMatrix], cols: int) -> RationalMatrix:
    return reduce(RationalMatrix.vstack, blocks, RationalMatrix.zeros(0, cols))


def ulmer_certificate_check(
    p: LinearFunctor,
    t_prime: TorsionData,
    u_obj: str,
    u_family: Sequence[Morphism],
    relation_family: Sequence[tuple[str, Sequence[Morphism]]],
) -> bool:
    """Verify Σ u_i u_ij = 0 and exactness of ⊕TV_j -> ⊕TU_i -> TU in the quotient.

    relation_family entries are (V_j, [u_1j, ..., u_nj]) with u_ij: V_j -> U_i.
    """
    from .modules import direct_sum

    src = p.source
    n = len(u_family)
    for u_i in u_family:
        if u_i.target != u_obj:
            raise PreconditionError("family morphisms must share the target object")
    for v_j, col in relation_family:
        if len(col) != n:
            raise PreconditionError("relation column length mismatch")
        total = src.zero_morphism(v_j, u_obj)
        for u_i, u_ij in zip(u_family, col):
            if u_ij.source != v_j or u_ij.target != u_i.source:
                raise PreconditionError("relation morphism endpoints mismatch")
            total = total.add(compose(src, u_i, u_ij))
        if not total.is_zero():
            return False

    fac = canonical_factorization_localized(p, t_prime)
    loc = fac.localized_representables

    def t_of(m: Morphism) -> ModuleMap:
        return localize_morphism(t_prime, p.apply(m), loc[m.source][0], loc[m.target][0])

    objs = t_prime.cat.objects
    mids = [loc[u_i.source][0].module for u_i in u_family]
    f0, f0_incl, _ = direct_sum(mids, over=t_prime.cat)
    tu = loc[u_obj][0].module
    # beta: F0 -> TU is the row of the T(u_i); alpha: F1 -> F0 the block matrix of the T(u_ij)
    t_u = [t_of(u_i).components for u_i in u_family]
    beta = ModuleMap(f0, tu, {w: _hcat([t[w] for t in t_u], tu.dims[w]) for w in objs})

    if relation_family:
        lefts = [loc[v_j][0].module for v_j, _ in relation_family]
        f1, _, _ = direct_sum(lefts, over=t_prime.cat)
        t_rel = [[t_of(u_ij).components for u_ij in col] for _, col in relation_family]
        alpha_comps = {}
        for w in objs:
            stacks = [_vcat([t[w] for t in ts], lft.dims[w]) for ts, lft in zip(t_rel, lefts)]
            alpha_comps[w] = _hcat(stacks, f0.dims[w])
        alpha = ModuleMap(f1, f0, alpha_comps)
        comp = map_compose(beta, alpha)
        if not comp.is_zero():
            raise InternalInvariantError("relations do not compose to zero after induction")
        im_alpha = image(alpha)
    else:
        im_alpha = zero_submodule(f0)

    ker_mod, ker_incl = kernel(beta)
    # express im_alpha inside the kernel coordinates and quotient
    spaces = {}
    for w in t_prime.cat.objects:
        vecs = []
        for bv in im_alpha.spaces[w].basis_vectors():
            coords = solve(ker_incl.components[w], bv)
            if coords is None:
                raise InternalInvariantError("image not inside kernel")
            vecs.append(coords)
        spaces[w] = Subspace.from_vectors(vecs, ker_mod.dims[w])
    q, _ = quotient_by(Submodule(ker_mod, spaces))
    return is_torsion(t_prime, q)


# ---------------------------------------------------------------------------
# generalized closed functors
# ---------------------------------------------------------------------------

def default_closed_functor_samples(b: Bimodule, t_left: TorsionData, t_right: TorsionData) -> dict:
    """Torsion modules, short exact sequences, closed right-modules, q-iso maps."""
    lc, rc = b.left_cat, b.right_cat
    torsion_modules = []
    ses = []
    for g in lc.objects:
        yg = yoneda(lc, g)
        j_sub = t_left.j_submodule(g)
        quot, _ = quotient_by(j_sub)
        if is_torsion(t_left, quot):
            torsion_modules.append(quot)
        sub_mod, incl = sub_to_module(j_sub)
        ses.append((sub_mod, incl, quot))
        from .torsion import torsion_submodule

        ts = torsion_submodule(t_left, yg)
        tm, _ = sub_to_module(ts)
        if tm.total_dim() and is_torsion(t_left, tm):
            torsion_modules.append(tm)
    closed_right = []
    for h in rc.objects:
        cm, _ = localize(t_right, yoneda(rc, h))
        closed_right.append(cm.module)
    qiso_maps = []
    for g in lc.objects:
        yg = yoneda(lc, g)
        cm, unit = localize(t_left, yg)
        qiso_maps.append(unit)
        qiso_maps.append(identity_map(yg))
    return {
        "torsion_modules": torsion_modules,
        "short_exact": ses,
        "closed_right_modules": closed_right,
        "qiso_maps": qiso_maps,
    }


def is_generalized_closed_functor(
    b: Bimodule,
    t_left: TorsionData,
    t_right: TorsionData | None = None,
    samples: dict | None = None,
) -> DecisionReport:
    """Check the three equivalent closedness conditions on sampled data.

    (i) tensoring kills sampled torsion modules and is exact against them;
    (ii) hom-restriction of sampled closed right-modules is a closed left-module;
    (iii) tensoring sends sampled q-isomorphisms to q-isomorphisms.
    """
    if t_right is None:
        t_right = whole_ideal(b.right_cat)
    if samples is None:
        samples = default_closed_functor_samples(b, t_left, t_right)

    cond_i = True
    for l_mod in samples["torsion_modules"]:
        tl = tensor_bimodule(l_mod, b)
        if not is_torsion(t_right, tl.module):
            cond_i = False
    for m_mod, incl, l_mod in samples["short_exact"]:
        if not is_torsion(t_left, l_mod):
            continue
        tincl = tensor_map(incl, b)
        if not q_iso(t_right, tincl):
            cond_i = False

    cond_ii = True
    for a_mod in samples["closed_right_modules"]:
        # the left module G -> Hom_right(b(G), a)
        if not is_closed(t_left, hom_diagram_module(b, a_mod)[0]):
            cond_ii = False

    cond_iii = True
    for f in samples["qiso_maps"]:
        if not q_iso(t_left, f):
            continue
        tf = tensor_map(f, b)
        if not q_iso(t_right, tf):
            cond_iii = False

    verdicts = {"tensor_kills_torsion": cond_i, "hom_restriction_closed": cond_ii,
                "factors_through_localization": cond_iii}
    return DecisionReport(
        "generalized-closed",
        cond_i and cond_ii and cond_iii,
        verdicts | {"coincide": cond_i == cond_ii == cond_iii},
    )

