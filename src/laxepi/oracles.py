"""Independent brute-force oracles, and `cross_check`, the verify mode.

Everything here is deliberately written against the raw presentations
(structure constants, span arithmetic, global hom systems) rather than the
induction/localization machinery it cross-checks:

* corner algebra eAe and the corner functor X -> Xe, the classical
  recollement equivalence used to certify quotient-category hom dimensions;
* the multiplication-map criterion for epimorphisms, via direct span
  computation of the middle tensor product in each hom component;
* restriction-hom bijectivity checked as one rank computation;
* a bounded, deterministic family of quotients of representables used as an
  enumeration corpus;
* cross-checks of the deciders that build their samples with the induction
  and localization under test: restriction-hom ranks, and the Hom side of
  the closed-functor condition (`hom_restriction_closed`);
* the module routes that the deciders read as ranks, tested for torsion by
  the action: counit kernels (`conditioned_epi_by_counit_kernels`), K_g ⊗ i
  (`conditioned_check_by_counits`) and Tor_1 (`flat_quotient_by_tor_modules`);
* `cross_check`, which `laxepi corpus run` calls on each random bundle: every
  comparison of a decider with its independent route is one branch of it.
"""

from __future__ import annotations

from contextlib import suppress
from itertools import product

from . import decide
from .category import LinearCategory, Morphism, combine, compose
from .category import postcompose_cells, precompose_cells
from .errors import RepresentableNotClosed
from .functors import (
    Factorization,
    LinearFunctor,
    adjunction_check,
    canonical_factorization,
    canonical_factorization_localized,
    counits,
    regular_bimodule,
    restrict,
    restrict_map,
    tensor_bimodule,
)
from .linalg import ONE, ZERO, EchelonBasis, Scalar, image_basis, solve_matrix
from .modules import (
    Bimodule,
    Module,
    cokernel,
    cyclic_submodule,
    hom_diagram_module,
    hom_modules,
    kernel,
    quotient_by,
    submodule_sum,
    tops,
    tor1,
    yoneda,
)
from .torsion import TorsionData, gabriel_localize, is_annihilated, is_closed, is_torsion
from .torsion import localize, q_iso, whole_ideal


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

def glax_falsification_oracle(p: LinearFunctor, t_prime: TorsionData) -> bool:
    """If the decision is true, no sampled pair of localized target modules may
    exhibit non-bijectivity of the total restriction hom map.  A false decision
    needs no samples; the first non-bijective pair settles a true one."""
    if not decide.is_generalized_lax_epi(p, t_prime).verdict:
        return True
    closed = [localize(t_prime, m)[0].module for m in bounded_quotient_family(t_prime.cat, cap=6)]
    return all(restriction_hom_bijective(p, x, y) for x in closed for y in closed)


def conditioned_check_by_counits(fac: Factorization) -> tuple[bool, dict]:
    """`decide._conditioned_check` the long way: the counit ε_g: s_!s*y_g -> y_g
    over the mid category at each g, its kernel K_g, K_g's presentation and
    K_g ⊗ i, tested for torsion by the action."""
    failures = {}
    for g, eps in counits(fac.s).items():
        ker_mod, _ = kernel(eps)
        tens = tensor_bimodule(ker_mod, fac.i).module
        if not is_annihilated(fac.torsion, tens):
            failures[g] = {"kernel_dims": dict(ker_mod.dims), "tensor_dims": dict(tens.dims)}
    return not failures, failures


def conditioned_epi_by_counit_kernels(s: LinearFunctor, t: TorsionData) -> dict:
    """`decide.is_conditioned_epi`'s witnesses the long way: the kernel module
    of each counit, tested for torsion by the action."""
    kernels = {g: kernel(eps)[0] for g, eps in counits(s).items()}
    return {g: {"kernel_dims": dict(k.dims)} for g, k in kernels.items() if not is_annihilated(t, k)}


def flat_quotient_by_tor_modules(p: LinearFunctor, t: TorsionData) -> list:
    """`decide.is_flat_quotient`'s failures the long way: Tor_1 of each top as
    a module, tested for torsion by the action."""
    b = regular_bimodule(p)
    tors = {u: tor1(top, b) for u, top in tops(p.source).items()}
    return [{"object": u, "tor_dims": dict(x.dims)} for u, x in tors.items() if not is_annihilated(t, x)]


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


def cross_check(rb) -> list[str]:
    """Each disagreement, on one random bundle, of a decider with its
    independent route: `is_lax_epi` with full faithfulness of restriction,
    `is_epi` (on the surjective functor and the canonical factor) with the
    multiplication-map oracle, `localize` on every (module, ideal) pair with
    closedness, a q-iso unit and, through the corner, the Gabriel step,
    `is_torsion` on the module and the unit's kernel and cokernel with the
    action test, `is_flat_quotient` on both functors with the Tor_1 modules,
    `is_flat` (projectivity of each Hom(V, T-) over the opposite category) on
    the functor and the surjective functor with `is_flat_quotient` at the
    whole ideal (Tor_1 of the tops), the adjunction laws, and two one-way
    oracles that may fail only where their decider fails: the Hom side of
    `is_generalized_closed_functor`, and sampled restriction Hom maps for
    `is_generalized_lax_epi` on the functor, which may miss objects, with the
    second ideal and on the surjective functor with the first.  On the
    latter, `is_conditioned_epi`, where its hypothesis holds, and the
    conditioned check of the localized factorization are also compared with
    the counit routes."""
    problems = []
    lax = decide.is_lax_epi(rb.functor)
    if lax.verdict != decide.fully_faithful_restriction(rb.functor).verdict:
        problems.append(f"is_lax_epi says {lax.verdict}; restriction's full faithfulness disagrees")
    sf = rb.surjective_functor
    epis = {
        "surjective functor": (sf, decide.is_epi(sf).verdict),
        "canonical factor": (canonical_factorization(rb.functor).s, lax.details["canonical_epi"]),
    }
    for label, (s, verdict) in epis.items():
        if verdict != multiplication_map_iso(s)[0]:
            problems.append(f"is_epi on the {label} says {verdict}; the multiplication-map "
                            "oracle disagrees")
    for m in rb.modules:
        for t in rb.ideals:
            if t.cat is m.over or t.cat == m.over:
                cm, unit = localize(t, m)
                if not is_closed(t, cm.module):
                    problems.append("localize returned a module that is not closed")
                if not q_iso(t, unit):
                    problems.append("localize returned a unit that is not a q-isomorphism")
                if t.corner is not None and (cm, unit) != gabriel_localize(t, m):
                    problems.append("localize through the corner differs from the Gabriel step")
                if any(is_torsion(t, x) != is_annihilated(t, x)
                       for x in (m, kernel(unit)[0], cokernel(unit)[0])):
                    problems.append("is_torsion through the corner differs from the action test")
    for label, p, t in (("functor", rb.functor, rb.ideals[1]), ("surjective functor", sf, rb.ideals[0])):
        flat = decide.is_flat(p).verdict
        if flat != decide.is_flat_quotient(p, whole_ideal(p.target)).verdict:
            problems.append(f"is_flat on the {label} says {flat}; Tor_1 of the tops disagrees")
        if decide.is_flat_quotient(p, t).details["failures"] != flat_quotient_by_tor_modules(p, t):
            problems.append("is_flat_quotient's ranks differ from the Tor_1 modules")
        if not glax_falsification_oracle(p, t):
            problems.append(f"is_generalized_lax_epi on the {label} says True; a sampled "
                            "restriction hom map is not bijective")
    rep = adjunction_check(sf, rb.modules[:1], rb.modules[:1])
    if not rep["ok"]:
        problems.append(f"adjunction {rep['failures']}")
    closed = (regular_bimodule(rb.functor), *rb.ideals)
    if (decide.is_generalized_closed_functor(*closed).verdict
            and not hom_restriction_closed(*closed)):
        problems.append("is_generalized_closed_functor says True; Hom-restriction does not")
    t = rb.ideals[0]  # on sf's target: is_flat_quotient(sf, t) above required it
    with suppress(RepresentableNotClosed):  # the decider's hypothesis
        if sf.is_bijective_on_objects() and (decide.is_conditioned_epi(sf, t).details["witnesses"]
                                             != conditioned_epi_by_counit_kernels(sf, t)):
            problems.append("is_conditioned_epi's ranks differ from the counit kernels")
    fac = canonical_factorization_localized(sf, t)
    if decide._conditioned_check(fac) != conditioned_check_by_counits(fac):
        problems.append("the conditioned check differs from the counit route's K_g ⊗ i")
    return problems
