"""Decision procedures for the epimorphism-type properties of linear functors.

Each decider reduces an a-priori infinite condition (full faithfulness over a
module category) to the finite criteria that make it decidable at desk scale:
counits on representables, per-object torsion tests on counit kernels,
generation by trace submodules, projectivity of finitely many hom modules.
They read ranks in tensor coordinates, not modules: a counit is an iso when
each component is square of full rank, a kernel's dims are free columns less
rank, and `torsion.is_torsion_of` tests torsion on dims where J = AeA.
The glax conditioned check tests K_g ⊗ i, for K_g the kernel of the counit
ε_g: s_!s*y_g -> y_g, without building ε_g: it is onto since s is the
identity on objects, and Tor_1(y_g, i) = 0 since y_g is projective, so
K_g ⊗ i is the kernel of the evaluation s*y_g ⊗ (i∘s) -> i(g), read like
the counits by `TensorContext.evaluation`.  `is_flat` reads each Hom(V, T-)
off the regular bimodule's left action at V.
Each decider runs one route.  The module routes it reads as ranks (counit
kernels, K_g ⊗ i, Tor_1 modules) and the independent reference routes
(tensor multiplication spans, restriction-hom ranks, corner algebras) live in
`oracles`; the acceptance suite and `laxepi corpus run` (`oracles.cross_check`)
compare them with these deciders.  `CHECKS` names the
decider of each check kind that the CLI and the corpus tables accept.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .category import opposite
from .errors import NotSurjectiveOnObjects, PreconditionError, RepresentableNotClosed
from .functors import (
    Factorization,
    LinearFunctor,
    canonical_factorization,
    canonical_factorization_localized,
    counit_components,
    regular_bimodule,
    restrict_left,
    tensor_bimodule,
)
from .linalg import rank
from .modules import (
    Bimodule,
    Module,
    ModuleMap,
    is_projective,
    kernel,
    module_trace,
    quotient_by,
    sub_to_module,
    tops,
    tor1,
    tor1_dims,
    trace_span,
    yoneda,
)
from .torsion import (
    TorsionData,
    is_closed,
    is_torsion_of,
    localize,
    require_on,
    torsion_submodule,
)


@dataclass
class DecisionReport:
    kind: str
    verdict: bool
    details: dict = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.verdict


# Each check kind and the name of its decider in this module.  Callers look the
# decider up by name when they run it, so they see a decider rebound here.
CHECKS = {
    "epi": "is_epi",
    "lax-epi": "is_lax_epi",
    "flat": "is_flat",
    "flat-epi": "is_flat_epi",
    "cond-epi": "is_conditioned_epi",
    "glax": "is_generalized_lax_epi",
    "abelian-localization": "is_abelian_localization",
}
IDEAL_CHECKS = ("cond-epi", "glax", "abelian-localization")  # deciders that take an ideal


# ---------------------------------------------------------------------------
# full faithfulness of restriction / ordinary epimorphisms
# ---------------------------------------------------------------------------

def fully_faithful_restriction(t: LinearFunctor) -> DecisionReport:
    """Counit on every representable of the target; iso there propagates
    everywhere.  A counit is an iso when each component is square of full rank."""
    witnesses = {}
    for v, (ctx, y, comps) in counit_components(t).items():
        ranks = {u: rank(m) for u, m in comps.items()}
        if any(len(ctx.free[u]) != r or y.dims[u] != r for u, r in ranks.items()):
            witnesses[v] = {
                "source_dims": {u: len(free) for u, free in ctx.free.items()},
                "target_dims": dict(y.dims),
                "component_ranks": ranks,
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
    """Exactness of induction: every Hom(V, T-) is a projective left module.
    As a right module over the opposite of the source it is the regular
    bimodule's left action at V: Hom(V, TU) = reg(U)(V) at U, where the op
    morphism of the source's basis morphism i: U' -> U acts by reg(i) at V,
    postcomposition with T(i)."""
    reg = regular_bimodule(t)
    op = opposite(t.source)
    failures = []
    for v in t.target.objects:
        m = Module(op, {u: x.dims[v] for u, x in reg.values.items()}, {
            (u, u2, i): act.components[v] for (u2, u, i), act in reg.left_action.items()})
        if not is_projective(m)[0]:
            failures.append(v)
    return DecisionReport("flat", not failures, {"non_projective_at": failures})


def is_flat_quotient(p: LinearFunctor, t_prime: TorsionData) -> DecisionReport:
    """Ulmer flatness into the quotient: Tor_1(σ, B) is torsion for all simples σ.

    Tor_1(-, B) commutes with finite direct sums, a hereditary torsion class is
    closed under sums and summands, and every simple is a summand of a top, so
    testing the top at every object decides it.
    """
    require_on(t_prime, p.target, "the functor's target")
    b = regular_bimodule(p)
    failures = []
    for u, top in tops(p.source).items():
        dims = tor1_dims(top, b)
        if not is_torsion_of(t_prime, dims, lambda: tor1(top, b)):
            failures.append({"object": u, "tor_dims": dims})
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
    require_on(t, s.target, "the functor's target")
    for g in s.target.objects:
        if not is_closed(t, yoneda(s.target, g)):
            raise RepresentableNotClosed(
                f"hypothesis violated: representable at {g} is not closed"
            )
    witnesses = {}
    for g, (ctx, y, comps) in counit_components(s).items():
        dims = ctx.kernel_dims(comps)
        if not is_torsion_of(t, dims, lambda: kernel(ModuleMap(ctx.module, y, comps))[0]):
            witnesses[g] = {"kernel_dims": dims}
    return DecisionReport("cond-epi", not witnesses, {"witnesses": witnesses})


# ---------------------------------------------------------------------------
# generalized lax epimorphisms and abelian localizations
# ---------------------------------------------------------------------------

def _generation_check(fac: Factorization, p: LinearFunctor) -> tuple[bool, dict]:
    """Do the localized induced representables generate the quotient category?
    `fac` is p's localized factorization.  At an object v = p(u) the family
    holds loc[u], the localization of yoneda(v) itself, so the trace there is
    all of it (it holds the image of the identity) and needs no Hom solve;
    only the objects that p misses are localized and their traces taken."""
    t_prime: TorsionData = fac.torsion
    tgt_cat = t_prime.cat
    loc = fac.localized_representables
    family = [loc[u].module for u in fac.s.source.objects]
    missed = [v for v in tgt_cat.objects if v not in p.image_objects()]
    failures = {}
    for v in missed:
        cm, _ = localize(t_prime, yoneda(tgt_cat, v))
        tr = module_trace(family, cm.module)
        dims = {u: cm.module.dims[u] - tr.spaces[u].dim for u in tgt_cat.objects}
        if not is_torsion_of(t_prime, dims, lambda: quotient_by(tr)[0]):
            failures[v] = {"trace_dims": {u: tr.spaces[u].dim for u in tgt_cat.objects}}
    return not failures, failures


def _conditioned_check(fac: Factorization) -> tuple[bool, dict]:
    """Is K_g ⊗ i torsion at every mid object g, for K_g the kernel of the
    counit ε_g: s_!s*y_g -> y_g over the mid category?

    No counit is built.  ε_g is onto, as s is the identity on objects: at each
    object U, the class of e_a ⊗ id_U goes to a.  And y_g is projective, so
    Tor_1(y_g, i) = 0, and tensoring 0 -> K_g -> s_!s*y_g -> y_g -> 0 with i
    leaves it exact (Cartan–Eilenberg, *Homological Algebra*, VI).  With
    s_!s*y_g ⊗ i = s*y_g ⊗_U (i∘s) and y_g ⊗ i = i(g), K_g ⊗ i is the kernel
    of the evaluation s*y_g ⊗_U (i∘s) -> i(g), which sends the class of
    e_{a_k} ⊗ β to i(a_k)β for the generator's basis morphism a_k: u_k -> g.
    A failure reports that kernel's dims and K_g's, dims(s_!s*y_g) -
    dims(y_g), where s_!s*y_g = s*y_g ⊗ regular_bimodule(s) needs only its
    coordinates.
    """
    s, i = fac.s, fac.i
    i_s = restrict_left(s, i)
    reg = None  # built only for a failure's kernel_dims
    failures = {}
    for g in fac.mid.objects:
        x = yoneda(fac.mid, g, along=s)  # s*y_g
        ctx = tensor_bimodule(x, i_s)
        comps = ctx.evaluation(lambda h, u, a, j: i.left_action[(u, g, a)].components[h].col(j),
                               i.values[g].dims)
        dims = ctx.kernel_dims(comps)
        if not is_torsion_of(fac.torsion, dims,
                           lambda: kernel(ModuleMap(ctx.module, i.values[g], comps))[0]):
            reg = reg or regular_bimodule(s)
            induced = tensor_bimodule(x, reg).free
            failures[g] = {
                "kernel_dims": {u: len(free) - fac.mid.hom_dim(u, g)
                                for u, free in induced.items()},
                "tensor_dims": dims,
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


# ---------------------------------------------------------------------------
# generalized closed functors
# ---------------------------------------------------------------------------

def is_generalized_closed_functor(
    b: Bimodule, t_left: TorsionData, t_right: TorsionData
) -> DecisionReport:
    """The paper's three equivalent conditions on b, decided through (i).

    (i) says - ⊗ b kills t_left-torsion and is exact against it: for every
    0 -> M -> N -> L -> 0 with L torsion, M ⊗ b -> N ⊗ b is a q-isomorphism.
    Its cokernel is L ⊗ b and its kernel the image of Tor_1(L, b), all of it
    when N is projective, so (i) says L ⊗ b and Tor_1(L, b) are
    t_right-torsion for every torsion L.  Dévissage (Stenström, *Rings of
    Quotients*, 1975) reduces this to the torsion simples: a hereditary
    torsion class is closed under submodules, quotients and extensions, so
    every composition factor of L is a torsion simple, and in the long exact
    sequence Tor_1(L', b) -> Tor_1(L, b) -> Tor_1(L'', b) -> L' ⊗ b -> L ⊗ b
    -> L'' ⊗ b of 0 -> L' -> L -> L'' -> 0 the middle terms are torsion when
    the outer ones are.  Every torsion simple is a summand of S_u, the
    torsion part of the top at some object u, and - ⊗ b and Tor_1(-, b)
    commute with finite sums, so testing each nonzero S_u decides (i).  The
    paper's equivalence gives (ii), Hom-restriction keeps closed modules
    closed, and (iii), - ⊗ b keeps q-isomorphisms.  S_u ⊗ b and Tor_1(S_u, b)
    are read as dims (the tensor's free columns, `tor1_dims`); their modules
    are built only for an ideal without a corner (`is_torsion_of`).
    """
    require_on(t_left, b.left_cat, "the bimodule's left category")
    require_on(t_right, b.right_cat, "the bimodule's right category")
    failures = []
    for u, top in tops(b.left_cat).items():
        simples, _ = sub_to_module(torsion_submodule(t_left, top))
        if simples.is_zero():
            continue
        ctx, tor = tensor_bimodule(simples, b), tor1_dims(simples, b)
        tens = {h: len(free) for h, free in ctx.free.items()}
        if not (is_torsion_of(t_right, tens, lambda: ctx.module)
                and is_torsion_of(t_right, tor, lambda: tor1(simples, b))):
            failures.append({"object": u, "tensor_dims": tens, "tor_dims": tor})
    return DecisionReport("generalized-closed", not failures, {"failures": failures})
