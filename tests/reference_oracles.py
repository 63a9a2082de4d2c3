"""Reference oracles that only the tests compare with the deciders.

Like `laxepi.oracles`, each works against the raw presentations or a second
route rather than the decider it checks; unlike those, `laxepi corpus run`
does not reach them, so they live here, beside the tests that read them:

* full faithfulness of restriction, sampled on representables, their counit
  cokernels and kernels, against `decide.fully_faithful_restriction`;
* fullness of restriction on localized pairs from a bounded family, against
  `decide.is_conditioned_epi`;
* the sufficiency conditions (G) and (F) for a generalized lax epimorphism,
  read off the localized factorization: generation of the quotient category
  by the localized induced representables, and solvability of γ·T(u) = T(u')
  with covering images;
* the action test X·J = 0 for torsion, against `torsion.is_torsion`, which
  reads x(e) = 0 on E for J = AeA;
* the split test for projectivity, the section solve whatever the cover's
  kernel, against `modules.is_projective`;
* the closed-functor condition on tensor and Tor_1 modules, tested by the
  action, against `decide.is_generalized_closed_functor`, whose torsion
  test reads x(e) = 0 on E for J = AeA;
* the Hom out of a module solved from its presentation, also out of a sum
  of representables, against `modules.hom_modules`, which reads that one by
  Yoneda;
* `localize` built at once, its unit with it and every Hom solved, against
  `torsion.localize`, which builds its unit on first read and reads the Homs
  out of the corner's representables by Yoneda;
* the idempotency of an ideal swept at every hom pair, against
  `torsion.ideal_closure`, which tests it at the generators;
* postcomposition by a morphism composed with each basis morphism, against
  `category.postcompose_cells`, which walks the composition cells;
* the regular bimodule postcomposed with each S(i) straight off the cells,
  against `functors.regular_bimodule`, the hom bimodule restricted along s;
* Hom(V, T-) over the opposite category postcomposed with each T(i) straight
  off the cells, against `decide.is_flat`, which reads it off the regular
  bimodule's left action at V.
"""

from __future__ import annotations

from laxepi.category import LinearCategory, Morphism, compose, contract, postcompose_cells
from laxepi.decide import _generation_check, fully_faithful_restriction
from laxepi.errors import InternalInvariantError, PreconditionError
from laxepi.functors import Factorization, LinearFunctor, canonical_factorization_localized, counits
from laxepi.functors import restrict, tensor_bimodule
from laxepi.linalg import EchelonBasis, RationalMatrix, image_basis, kernel_basis, solve
from laxepi.modules import (
    Bimodule,
    Module,
    ModuleMap,
    cokernel,
    evaluation_matrix,
    fill_action,
    free_cover,
    hom_matrix,
    hom_modules,
    image,
    quotient_by,
    sub_to_module,
    submodule_sum,
    tops,
    tor1,
    validate_module_map,
    yoneda,
    zero_submodule,
)
from laxepi.oracles import bounded_quotient_family, restriction_hom_bijective, restriction_hom_ranks
from laxepi.torsion import TorsionData, is_torsion, localize, torsion_submodule


def restriction_hom_full(s, x: Module, y: Module) -> bool:
    _, down, rk = restriction_hom_ranks(s, x, y)
    return rk == down


def ffr_oracle_agrees(t: LinearFunctor) -> bool:
    """Hom-restriction bijectivity sampling, with constructed witnesses on failure."""
    report = fully_faithful_restriction(t)
    all_ok = True
    any_witness = False
    for eps in counits(t).values():
        yv = eps.target
        coker_mod, _ = cokernel(eps)
        pairs = [(yv, eps.source), (yv, coker_mod), (yv, yv)]
        for x, y in pairs:
            if not restriction_hom_bijective(t, x, y):
                all_ok = False
                any_witness = True
    return report.verdict == all_ok if report.verdict else any_witness


def conditioned_epi_fullness_oracle(s: LinearFunctor, t: TorsionData) -> bool:
    """Brute-force fullness of restriction on localized pairs from a bounded family."""
    localized = []
    seen = set()
    for m in bounded_quotient_family(s.target):
        cm, _ = localize(t, m)
        key = tuple(sorted(cm.module.dims.items()))
        if (key, cm.module.total_dim()) in seen and cm.module.total_dim() == 0:
            continue
        seen.add((key, cm.module.total_dim()))
        localized.append(cm.module)
    for x in localized:
        for y in localized:
            if not restriction_hom_full(s, x, y):
                return False
    return True


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
    fac: Factorization,
) -> tuple[bool, dict]:
    """Solvability γ·T(u) = T(u') on the maximal subspace, with covering images.

    For every source object V the subspace K_V of morphisms u: V -> U with
    γ∘T(u) in the image of T on Hom(V, U') is computed exactly; the condition
    holds when the joint image of T over all K_V covers T(U) up to torsion;
    `fac` is p's localized factorization.
    """
    loc = fac.localized_representables
    src = p.source
    if gamma.source != loc[u_obj].module or gamma.target != loc[u2_obj].module:
        err = PreconditionError(
            "gamma is not a map between the localized induced representables"
        )
        err.code = "E_INVALID_QUOTIENT_HOM"
        raise err
    if validate_module_map(gamma):
        err = PreconditionError("gamma is not natural")
        err.code = "E_INVALID_QUOTIENT_HOM"
        raise err

    certificate = {}
    trace = zero_submodule(loc[u_obj].module)
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
            # T(u) = I(S(u)): the combination of fac.hom_bases[(v, u_obj)] by S's coordinates
            covering_maps.append(fac.i.left_act(fac.s.apply(Morphism(v, u_obj, u_coords))))
        certificate[v] = {"K_basis": k_v.basis_vectors(), "solved": solved}
    for cm in covering_maps:
        trace = submodule_sum(trace, image(cm))
    q, _ = quotient_by(trace)
    ok = is_torsion(t_prime, q)
    return ok, certificate


def annihilated(t: TorsionData, x: Module) -> bool:
    """X·J = 0 read off the actions: every vector of the ideal's canonical
    bases acts on x by zero."""
    return all(x.act(Morphism(v, u, vec)).is_zero()
               for (v, u), s in t.ideal.items() for vec in s.basis_vectors())


def splits(x: Module) -> bool:
    """Does the cover of x's presentation split?  The section solve, whatever
    the kernel: σ is fixed by its values σ(e_{a_k}), drawn from Hom(x, P0),
    and it is a section when the cover sends each back to e_{a_k}."""
    cover, _ = free_cover(x)
    gens = x.presentation.generators
    cols = [[y for g, a in gens for y in cover.components[g].apply(s.components[g].col(a))]
            for s in hom_modules(x, cover.source)]
    rhs = [int(r == a) for g, a in gens for r in range(x.dims[g])]
    return solve(RationalMatrix.from_columns(cols, len(rhs)), rhs) is not None


def closed_functor_failures(b: Bimodule, t_left: TorsionData, t_right: TorsionData) -> list:
    """`decide.is_generalized_closed_functor`'s failures from the modules:
    the tensor and Tor_1 of each nonzero torsion part of a top, tested by
    the action."""
    failures = []
    for u, top in tops(b.left_cat).items():
        simples, _ = sub_to_module(torsion_submodule(t_left, top))
        if simples.is_zero():
            continue
        tens, tor = tensor_bimodule(simples, b).module, tor1(simples, b)
        if not (annihilated(t_right, tens) and annihilated(t_right, tor)):
            failures.append({"object": u, "tensor_dims": dict(tens.dims), "tor_dims": dict(tor.dims)})
    return failures


def solved_hom(x: Module, y: Module):
    """`hom_modules(x, y)` by the presentation solve: on a copy of x built
    without `free_on`, so Yoneda is never read."""
    return hom_modules(Module(x.over, x.dims, x.action), y)


def eager_localize(t: TorsionData, x: Module) -> tuple[Module, ModuleMap]:
    """The closed module Hom(D(-), y) with its action and the unit, all built at
    once, every Hom solved (`solved_hom`): through t's corner, D is the corner's
    coinduction bimodule and y = x|E; otherwise D = J and y is the torsion-free
    quotient (the Gabriel step), and the unit is composed with its projection."""
    c = t.cat
    if (inc := t.corner) is None:
        y, proj = quotient_by(torsion_submodule(t, x))
        d = t.j
        acts = {u: {w: [y.act_coords(w, u, a) for a in t.ideal[(w, u)].basis.sp]
                    for w in c.objects} for u in c.objects}
    else:
        y, proj, d = restrict(inc, x), None, inc.coinduction_bimodule
        acts = {g: {e: [x.action[(e, g, j)] for j in range(c.hom_dim(e, g))]
                    for e in inc.source.objects} for g in c.objects}
    bases = {g: solved_hom(d.values[g], y) for g in c.objects}
    dims = {g: len(b) for g, b in bases.items()}
    h = Module(c, dims, fill_action(c, dims, lambda v, u, i: hom_matrix(
        bases[u], bases[v], pre=d.left_action[(v, u, i)])))
    if proj is None:
        eta = {g: evaluation_matrix(bases[g], acts[g], x.dims[g]) for g in c.objects}
    else:
        eta = {g: evaluation_matrix(bases[g], acts[g], y.dims[g]) * proj.components[g]
               for g in c.objects}
    return h, ModuleMap(x, h, eta)


def idempotency_defect(t: TorsionData) -> tuple[str, str] | None:
    """The first hom pair (w, u) where the span of every J(v, u) ∘ J(w, v)
    differs from J(w, u), if any: J = J² tested at every pair."""
    c = t.cat
    for w in c.objects:
        for u in c.objects:
            span = EchelonBasis(c.hom_dim(w, u))
            for v in c.objects:
                tab = c.table(w, v, u)
                for a in t.ideal[(v, u)].basis.sp:
                    for a2 in t.ideal[(w, v)].basis.sp:
                        span.insert(contract(tab, a.items(), a2.items()))
            if span.to_subspace() != t.ideal[(w, u)]:
                return (w, u)
    return None


def postcomposition(c, m: Morphism) -> dict[str, RationalMatrix]:
    """h ↦ m ∘ h, Hom(w, v) -> Hom(w, u) at every w, for m: v -> u: column j is
    `compose` of m with the basis morphism j."""
    return {w: RationalMatrix.from_columns(
        [compose(c, m, c.basis_morphism(w, m.source, j)).coords for j in range(c.hom_dim(w, m.source))],
        c.hom_dim(w, m.target)) for w in c.objects}


def regular_bimodule(s: LinearFunctor) -> Bimodule:
    """value(U) = yoneda(SU), where the basis morphism i of the source acts by
    postcomposition with S(i), gathered from the target's cells at once."""
    tgt = s.target
    reps = {t: yoneda(tgt, t) for t in s.image_objects()}
    values = {u: reps[s.apply_obj(u)] for u in s.source.objects}
    action = {}
    for v, u in s.source.hom_pairs():
        sv, su = s.apply_obj(v), s.apply_obj(u)
        for i, col in enumerate(s.columns[(v, u)]):  # S(basis i)
            action[(v, u, i)] = ModuleMap(values[v], values[u], {
                w: RationalMatrix.from_columns(postcompose_cells(tgt, w, sv, su, col), d)
                for w, d in values[u].dims.items()})
    return Bimodule(s.source, tgt, values, action)


def hom_from_object_module(t: LinearFunctor, op: LinearCategory, v: str) -> Module:
    """Hom_target(v, T-) as a right module over op, the opposite of the source,
    postcomposed with each T(i) straight off the target's cells."""
    tgt = t.target
    dims = {u: tgt.hom_dim(v, t.apply_obj(u)) for u in op.objects}
    action = {}
    for a, b_obj in op.hom_pairs():  # op morphism a -> b_obj is a source morphism b_obj -> a
        tb, ta = t.apply_obj(b_obj), t.apply_obj(a)
        for i, timg in enumerate(t.columns[(b_obj, a)]):  # T(b_obj) -> T(a)
            # column j: timg ∘ h_j for the basis h_j of Hom(v, T(b_obj))
            cells = postcompose_cells(tgt, v, tb, ta, timg)
            action[(a, b_obj, i)] = RationalMatrix.from_columns(cells, dims[a])
    return Module(op, dims, action)
