"""Independent brute-force oracles.

Everything here is deliberately written against the raw presentations
(structure constants, span arithmetic, global hom systems) rather than the
induction/localization machinery it cross-checks:

* corner algebra eAe and the corner functor X -> Xe, the classical
  recollement equivalence used to certify quotient-category hom dimensions;
* the multiplication-map criterion for epimorphisms, via direct span
  computation of the middle tensor product in each hom component;
* restriction-hom bijectivity/fullness checked as one rank computation;
* a bounded, deterministic family of quotients of representables used as an
  enumeration corpus;
* cross-checks of the deciders that build their samples with the induction
  and localization under test: restriction-hom ranks, and the Hom side of
  the closed-functor condition (`hom_restriction_closed`);
* the sufficiency conditions (G) and (F) for a generalized lax epimorphism,
  read off the localized factorization: generation of the quotient category
  by the localized induced representables, and solvability of γ·T(u) = T(u')
  with covering images.  Like the cross-checks they use the machinery under
  test; the tests compare them with `decide.is_generalized_lax_epi`.
"""

from __future__ import annotations

from itertools import product

from .category import LinearCategory, Morphism, combine, compose
from .category import postcompose_cells, precompose_cells
from .errors import InternalInvariantError, PreconditionError
from .functors import (
    Factorization,
    LinearFunctor,
    canonical_factorization_localized,
    counits,
    restrict,
    restrict_map,
)
from .linalg import ONE, ZERO, EchelonBasis, RationalMatrix, Scalar, image_basis, kernel_basis
from .linalg import solve, solve_matrix
from .modules import (
    Bimodule,
    Module,
    ModuleMap,
    cokernel,
    cyclic_submodule,
    hom_diagram_module,
    hom_matrix,
    hom_modules,
    image,
    quotient_by,
    submodule_sum,
    validate_module_map,
    yoneda,
    zero_submodule,
)
from .torsion import TorsionData, is_closed, is_torsion, localize


# ---------------------------------------------------------------------------
# corner algebra (recollement) oracle
# ---------------------------------------------------------------------------

class CornerContext:
    """eAe for an idempotent e of a one-object category, with X -> Xe."""

    def __init__(self, cat: LinearCategory, e: Morphism):
        if len(cat.objects) != 1:
            raise ValueError("corner oracle expects a one-object category")
        obj = cat.objects[0]
        if compose(cat, e, e).coords != e.coords:
            raise ValueError("corner element is not idempotent")
        self.cat = cat
        self.obj = obj
        self.e = e
        d = cat.hom_dim(obj, obj)
        eb = EchelonBasis(d)
        for i in range(d):
            b = cat.basis_morphism(obj, obj, i)
            eb.insert(compose(cat, compose(cat, e, b), e).coords)
        self.span = eb.to_subspace()  # eAe inside End(obj)
        n = self.span.dim
        basis = [Morphism(obj, obj, v) for v in self.span.basis_vectors()]
        mult = []
        for x in basis:
            row = []
            for y in basis:
                coords = self.span.coordinates_of(compose(cat, x, y).coords)
                assert coords is not None, "corner span not closed under composition"
                row.append(list(coords))
            mult.append(row)
        unit = self.span.coordinates_of(e.coords)
        assert unit is not None
        from .category import from_algebra

        self.corner = from_algebra(mult, list(unit), object_name="*")

    def corner_module(self, x: Module) -> Module:
        """Xe with its eAe action, as a module over the corner algebra."""
        me = x.act(self.e)
        img = image_basis(me)  # Xe inside X
        incl = img.basis.transpose()
        action = {}
        for i, v in enumerate(self.span.basis_vectors()):
            z = Morphism(self.obj, self.obj, v)
            m = x.act(z) * incl
            coords = solve_matrix(incl, m)
            assert coords is not None, "Xe not stable under eAe"
            action[("*", "*", i)] = coords
        return Module(self.corner, {"*": img.dim}, action)

    def hom_dim(self, x: Module, y: Module) -> int:
        return len(hom_modules(self.corner_module(x), self.corner_module(y)))


# ---------------------------------------------------------------------------
# multiplication-map epimorphism oracle
# ---------------------------------------------------------------------------

def multiplication_map_iso(s) -> tuple[bool, dict]:
    """Is the middle tensor product's multiplication an iso in every hom component?

    Works directly with spans: the big space ⊕_U Hom(SU,H) ⊗ Hom(H',SU), its
    bilinearity relations over the source category, and composition down to
    Hom(H',H).  No module machinery involved.
    """
    src, tgt = s.source, s.target
    witness: dict = {}
    for hp in tgt.objects:
        for h in tgt.objects:
            slots = []
            offset = 0
            for u in src.objects:
                su = s.object_map[u]
                d1 = tgt.hom_dim(su, h)
                d2 = tgt.hom_dim(hp, su)
                slots.append((u, su, d1, d2, offset))
                offset += d1 * d2
            total = offset
            dh = tgt.hom_dim(hp, h)

            def pos(slot, i, j):
                _, _, d1, d2, off = slot
                return off + i * d2 + j

            # multiplication to Hom(H', H): the cell of g_i ∘ f_j at each position
            mult_cols: list[dict] = [{}] * total
            for slot in slots:
                for (i, j), cell in tgt.table(hp, slot[1], h).items():
                    mult_cols[pos(slot, i, j)] = cell
            mult_rank = EchelonBasis(dh)
            for col in mult_cols:
                mult_rank.insert(col)

            rel = EchelonBasis(total)
            slot_of = {sl[0]: sl for sl in slots}
            for v, u in src.hom_pairs():
                slot_u, slot_v = slot_of[u], slot_of[v]
                _, su, d1u, d2u, _ = slot_u
                _, sv, d1v, d2v, _ = slot_v
                for su_mor in s.columns[(v, u)]:  # S(u_k): SV -> SU
                    g_su = precompose_cells(tgt, sv, su, h, su_mor)  # g_i ∘ S(u_k): SV -> h
                    su_f = postcompose_cells(tgt, hp, sv, su, su_mor)  # S(u_k) ∘ f_j: hp -> SU
                    for i, j in product(range(d1u), range(d2v)):
                        row: dict[int, Scalar] = {}
                        for ii, cc in g_su[i].items():
                            row[pos(slot_v, ii, j)] = cc
                        for jj, cc in su_f[j].items():
                            p = pos(slot_u, i, jj)
                            row[p] = row.get(p, ZERO) - cc
                        row = {p: cc for p, cc in row.items() if cc}
                        if row:
                            # associativity: relations die under multiplication
                            assert not combine((cc, mult_cols[p]) for p, cc in row.items())
                            rel.insert(row)
            surjective = mult_rank.dim == dh
            exact_kernel = rel.dim == total - mult_rank.dim
            if not (surjective and exact_kernel):
                witness[(hp, h)] = {
                    "big_dim": total,
                    "relation_dim": rel.dim,
                    "mult_rank": mult_rank.dim,
                    "hom_dim": dh,
                }
    return (not witness), witness


# ---------------------------------------------------------------------------
# restriction-hom oracles
# ---------------------------------------------------------------------------

def restriction_hom_ranks(s, x: Module, y: Module) -> tuple[int, int, int]:
    """(dim Hom_target, dim Hom_source, rank of the restricted family)."""
    from .modules import flatten_map

    top = hom_modules(x, y)
    rx, ry = restrict(s, x), restrict(s, y)
    bottom = hom_modules(rx, ry)
    eb = EchelonBasis(sum(ry.dims[u] * rx.dims[u] for u in s.source.objects))
    for alpha in top:
        eb.insert(flatten_map(restrict_map(s, alpha, rx, ry)))
    return len(top), len(bottom), eb.dim


def restriction_hom_bijective(s, x: Module, y: Module) -> bool:
    up, down, rk = restriction_hom_ranks(s, x, y)
    return up == down == rk


def restriction_hom_full(s, x: Module, y: Module) -> bool:
    _, down, rk = restriction_hom_ranks(s, x, y)
    return rk == down


# ---------------------------------------------------------------------------
# bounded enumeration family
# ---------------------------------------------------------------------------

def bounded_quotient_family(c: LinearCategory, cap: int = 12) -> list[Module]:
    """Deterministic quotients of representables: by single-generator cyclic
    submodules and their pairwise sums, capped."""
    out: list[Module] = []
    seen: set[tuple] = set()

    def push(m: Module) -> None:
        key = (tuple(sorted(m.dims.items())), tuple(sorted(m.action.items(), key=lambda kv: kv[0])))
        kh = (key[0], hash(key[1]))
        if kh in seen or len(out) >= cap:
            return
        seen.add(kh)
        out.append(m)

    for u in c.objects:
        yu = yoneda(c, u)
        push(yu)
        gens = []
        for v in c.objects:
            for i in range(c.hom_dim(v, u)):
                vvec = [ONE if k == i else ZERO for k in range(c.hom_dim(v, u))]
                gens.append(cyclic_submodule(yu, v, vvec))
        for g in gens:
            q, _ = quotient_by(g)
            push(q)
        for a in range(len(gens)):
            for b in range(a + 1, len(gens)):
                q, _ = quotient_by(submodule_sum(gens[a], gens[b]))
                push(q)
    return out


# ---------------------------------------------------------------------------
# cross-checks of the deciders
# ---------------------------------------------------------------------------

def ffr_oracle_agrees(t: LinearFunctor) -> bool:
    """Hom-restriction bijectivity sampling, with constructed witnesses on failure."""
    from .decide import fully_faithful_restriction

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


def glax_falsification_oracle(p: LinearFunctor, t_prime: TorsionData) -> bool:
    """If the decision is true, no sampled pair of localized target modules may
    exhibit non-bijectivity of the total restriction hom map.  A false decision
    needs no samples; the first non-bijective pair settles a true one."""
    from .decide import is_generalized_lax_epi
    if not is_generalized_lax_epi(p, t_prime).verdict:
        return True
    closed = [localize(t_prime, m)[0].module for m in bounded_quotient_family(t_prime.cat, cap=6)]
    return all(restriction_hom_bijective(p, x, y) for x in closed for y in closed)


def hom_restriction_closed(b: Bimodule, t_left: TorsionData, t_right: TorsionData) -> bool:
    """The paper's condition (ii) on samples: Hom-restriction G ↦ Hom(b(G), a)
    sends the localization a of each representable of the right category to a
    t_left-closed module.  A failure is a closed module sent to one that is not
    closed, so `decide.is_generalized_closed_functor` must fail too."""
    for h in b.right_cat.objects:
        closed, _ = localize(t_right, yoneda(b.right_cat, h))
        if not is_closed(t_left, hom_diagram_module(b, closed.module)[0]):
            return False
    return True


# ---------------------------------------------------------------------------
# sufficiency conditions (G) and (F)
# ---------------------------------------------------------------------------

def condition_G(p: LinearFunctor, t_prime: TorsionData) -> bool:
    from .decide import _generation_check

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
