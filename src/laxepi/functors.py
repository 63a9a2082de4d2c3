"""Linear functors, the induction/restriction/coinduction triple, bimodule
tensor products, and canonical factorizations.

There is one coequalizer, the tensor x ⊗ b of a module with a bimodule
(`modules.Bimodule`), and it is computed from x's presentation
(`modules.Presentation`): its generators (G_k, a_k) give a cover
P0 = ⊕_k yoneda(G_k) -> x with kernel K, and as tensoring is right exact and
yoneda(G) ⊗ b = b(G), x ⊗ b is ⊕_k b(G_k) modulo the image of K ⊗ b,
objectwise.  Induction along a functor is the tensor with its regular
bimodule.  Coinduction is its Hom-side twin, `modules.hom_diagram_module` on
D(G) = restrict(yoneda G), read off the target's cells (`coinduction_bimodule`).
Contexts carry the presentation, the projections and the quotient
coordinates, so units, counits and functoriality on maps are all computed in
matching coordinates.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, product
from typing import Mapping, Sequence, Union

from .category import LinearCategory, Morphism, combine, contract, full_image
from .category import postcompose_cells, precompose_cells
from .errors import InternalInvariantError
from .linalg import ONE, EchelonBasis, RationalMatrix, Scalar, nonzeros, rank, solve_matrix, zero_vec
from .modules import (
    Bimodule,
    HomBasis,
    Module,
    ModuleMap,
    Presentation,
    evaluation_matrix,
    fill_action,
    hom_diagram_module,
    hom_matrix,
    hom_modules,
    identity_map,
    map_compose,
    yoneda,
    yoneda_components,
)

Pair = tuple[str, str]


class LinearFunctor:
    """A morphism of rings with several objects: object map plus hom-space matrices."""

    def __init__(
        self,
        source: LinearCategory,
        target: LinearCategory,
        object_map: Mapping[str, str],
        hom_maps: Mapping[Pair, RationalMatrix],
    ):
        self.source = source
        self.target = target
        self.object_map = dict(object_map)
        for u in source.objects:
            if self.object_map.get(u) not in target.objects:
                raise ValueError(f"object map undefined or out of range at {u}")
        if extra := sorted(set(self.object_map) - set(source.objects)):
            raise ValueError(f"object map names objects outside the source: {extra}")
        if extra := sorted(k for k in hom_maps if not set(k) <= set(source.objects)):
            raise ValueError(f"hom maps name pairs outside the source: {extra}")
        self.hom_maps: dict[Pair, RationalMatrix] = {}
        for v, u in source.hom_pairs():
            m = hom_maps.get((v, u))
            sv, su = self.object_map[v], self.object_map[u]
            shape = (target.hom_dim(sv, su), source.hom_dim(v, u))
            if m is None:
                m = RationalMatrix.zeros(*shape)
            if (m.rows, m.cols) != shape:
                raise ValueError(f"hom map shape mismatch at {(v, u)}")
            self.hom_maps[(v, u)] = m

    @cached_property
    def columns(self) -> dict[Pair, list[dict[int, Scalar]]]:
        """Column i of each hom matrix, as nonzero coordinates: S(basis i)."""
        return {pair: m.transpose().sp for pair, m in self.hom_maps.items()}

    @cached_property
    def coinduction_bimodule(self) -> Bimodule:
        """D(G) = restrict(yoneda G), which `coinduce` reads, built once straight
        off the target's cells: D(G)(U) = Hom(SU, G), where the basis morphism i
        of the source acts by precomposition with S(i), and a basis g: G' -> G
        of the target acts D(G') -> D(G) by postcomposition, each map built on
        first read (`hom_diagram_module` reads those its action plan computes).
        When s is full with identity hom matrices (as `category.full_image`'s
        inclusions are), D(SU) = Hom(S-, SU) is the representable yoneda(U)."""
        src, tgt, obj = self.source, self.target, self.object_map
        full = all(m == RationalMatrix.identity(m.rows) for m in self.hom_maps.values()) and all(
            tgt.hom_dim(obj[v], obj[u]) == src.hom_dim(v, u)
            for v, u in product(src.objects, repeat=2))
        reps = {obj[u]: u for u in src.objects} if full else {}
        values = {}
        for g in tgt.objects:
            dims = {u: tgt.hom_dim(obj[u], g) for u in src.objects}
            values[g] = yoneda(src, reps[g]) if g in reps else Module(src, dims, fill_action(
                src, dims, lambda v, u, i: RationalMatrix.from_columns(
                    precompose_cells(tgt, obj[v], obj[u], g, self.columns[(v, u)][i]), dims[v])))
        left = {(g2, g1, i): ModuleMap(values[g2], values[g1], lambda g2=g2, g1=g1, i=i: {
            u: RationalMatrix.from_columns(postcompose_cells(tgt, obj[u], g2, g1, {i: ONE}), d)
            for u, d in values[g1].dims.items()
        }) for g2, g1 in tgt.hom_pairs() for i in range(tgt.hom_dim(g2, g1))}
        return Bimodule(tgt, src, values, left)

    def apply_obj(self, u: str) -> str:
        return self.object_map[u]

    def apply(self, m: Morphism) -> Morphism:
        sv, su = self.object_map[m.source], self.object_map[m.target]
        mat = self.hom_maps.get((m.source, m.target))
        if mat is None:
            return Morphism(sv, su, zero_vec(self.target.hom_dim(sv, su)))
        return Morphism(sv, su, mat.apply(m.coords))

    def is_surjective_on_objects(self) -> bool:
        return set(self.object_map.values()) == set(self.target.objects)

    def is_bijective_on_objects(self) -> bool:
        vals = list(self.object_map.values())
        return len(set(vals)) == len(vals) and self.is_surjective_on_objects()

    def image_objects(self) -> list[str]:
        seen = []
        for u in self.source.objects:
            t = self.object_map[u]
            if t not in seen:
                seen.append(t)
        return seen


def validate_functor(s: LinearFunctor) -> list[str]:
    """Identity preservation and compatibility with both composition tensors."""
    problems = []
    src, tgt = s.source, s.target
    for u in src.objects:
        if s.apply(src.identity(u)).coords != tgt.identity(s.apply_obj(u)).coords:
            problems.append(f"identity at {u} not preserved")
    cols = s.columns
    for w, v, u in product(src.objects, repeat=3):
        tab = src.table(w, v, u)
        t_tab = tgt.table(*(s.apply_obj(o) for o in (w, v, u)))
        for gi in range(src.hom_dim(v, u)):
            for fi in range(src.hom_dim(w, v)):
                cell = tab.get((gi, fi), {})  # S(g∘f) against S(g)∘S(f)
                lhs = combine((a, cols[(w, u)][k]) for k, a in cell.items())
                rhs = contract(t_tab, cols[(v, u)][gi].items(), cols[(w, v)][fi].items())
                if lhs != rhs:
                    problems.append(
                        f"functoriality fails at ({src.label_of(v, u, gi)}, "
                        f"{src.label_of(w, v, fi)})"
                    )
    return problems


def identity_functor(c: LinearCategory) -> LinearFunctor:
    return LinearFunctor(
        c,
        c,
        {u: u for u in c.objects},
        {(v, u): RationalMatrix.identity(c.hom_dim(v, u)) for v, u in c.hom_pairs()},
    )


# ---------------------------------------------------------------------------
# restriction
# ---------------------------------------------------------------------------

def restrict(s: LinearFunctor, x: Module) -> Module:
    """x ∘ s: space at U is x(SU); basis morphism i: V -> U acts as x(S(i)),
    read off column i of the functor's hom matrix."""
    src = s.source
    dims = {u: x.dims[s.apply_obj(u)] for u in src.objects}
    action = {}
    for v, u in src.hom_pairs():
        sv, su = s.apply_obj(v), s.apply_obj(u)
        for i, col in enumerate(s.columns[(v, u)]):
            action[(v, u, i)] = x.act_coords(sv, su, col)
    return Module(src, dims, action)


def restrict_map(s: LinearFunctor, f: ModuleMap, rx: Module, ry: Module) -> ModuleMap:
    """f ∘ s from rx = restrict(s, f.source) to ry = restrict(s, f.target)."""
    return ModuleMap(rx, ry, {u: f.components[s.apply_obj(u)] for u in s.source.objects})


def restrict_left(s: LinearFunctor, b: Bimodule) -> Bimodule:
    """b ∘ s, b with its left side restricted along s: value at U is b(SU);
    basis morphism i: V -> U acts as b(S(i)) = Σ_j S(i)_j b(j), read off
    column i of the functor's hom matrix."""
    src = s.source
    values = {u: b.values[s.apply_obj(u)] for u in src.objects}
    action = {}
    for v, u in src.hom_pairs():
        sv, su = s.apply_obj(v), s.apply_obj(u)
        for i, col in enumerate(s.columns[(v, u)]):
            action[(v, u, i)] = b.left_act_coords(sv, su, col)
    return Bimodule(src, b.right_cat, values, action)


# ---------------------------------------------------------------------------
# coinduction
# ---------------------------------------------------------------------------

@dataclass
class CoinducedContext:
    functor: LinearFunctor
    source_module: Module
    module: Module
    hom_bases: dict[str, HomBasis]


def coinduce(s: LinearFunctor, x: Module) -> CoinducedContext:
    """Right adjoint of restriction: Hom(D, x) for s's `coinduction_bimodule` D;
    along the inclusion of a corner, x's localization (`torsion.localize`)."""
    co, bases = hom_diagram_module(s.coinduction_bimodule, x)
    return CoinducedContext(s, x, co, bases)


def coinduce_counit(ctx: CoinducedContext) -> ModuleMap:
    """restrict(coinduce x) -> x: evaluate a hom at the identity of SU."""
    s, x = ctx.functor, ctx.source_module
    src, tgt = s.source, s.target
    rco = restrict(s, ctx.module)
    comps = {}
    for u in src.objects:
        su = s.apply_obj(u)
        cols = [alpha.components[u].apply(tgt.identities[su]) for alpha in ctx.hom_bases[su]]
        comps[u] = RationalMatrix.from_columns(cols, x.dims[u])
    return ModuleMap(rco, x, comps)


def coinduce_unit(ctx: CoinducedContext, y: Module) -> ModuleMap:
    """y -> coinduce(restrict y) for y over the target (ctx built on restrict y):
    at G, a ↦ (h ↦ y(h)a) for h in D(G)(U) = Hom(SU, G) in ctx's hom basis, on first read."""
    s = ctx.functor
    sus = {u: s.apply_obj(u) for u in s.source.objects}
    return ModuleMap(y, ctx.module, lambda: {g: evaluation_matrix(basis, {
        u: [y.action[(su, g, j)] for j in range(s.target.hom_dim(su, g))] for u, su in sus.items()
    }, y.dims[g]) for g, basis in ctx.hom_bases.items()})


def coinduce_map(
    ctx_src: CoinducedContext, ctx_tgt: CoinducedContext, f: ModuleMap
) -> ModuleMap:
    """Functoriality of coinduction: postcompose each hom by f."""
    comps = {
        g: hom_matrix(ctx_src.hom_bases[g], ctx_tgt.hom_bases[g], post=f)
        for g in ctx_src.functor.target.objects
    }
    return ModuleMap(ctx_src.module, ctx_tgt.module, comps)


# ---------------------------------------------------------------------------
# bimodules and the tensor functor
# ---------------------------------------------------------------------------

def regular_bimodule(s: LinearFunctor) -> Bimodule:
    """The bimodule computing induction along s: value(U) = yoneda(SU)."""
    tgt = s.target
    reps = {t: yoneda(tgt, t) for t in s.image_objects()}
    values = {u: reps[s.apply_obj(u)] for u in s.source.objects}
    action = {}
    for v, u in s.source.hom_pairs():
        sv, su = s.apply_obj(v), s.apply_obj(u)
        for i, col in enumerate(s.columns[(v, u)]):  # S(basis i)
            action[(v, u, i)] = ModuleMap(values[v], values[u], yoneda_components(tgt, sv, su, col))
    return Bimodule(s.source, tgt, values, action)


@dataclass
class TensorContext:
    """x ⊗ b in fixed coordinates, computed from x's presentation.

    At each right object h the big space is ⊕_k b(G_k)(h) over the
    presentation's generators (G_k, a_k), slot k starting at `offsets[h][k]`;
    `projections[h]` maps it onto (x ⊗ b)(h), whose coordinates are the
    big-space columns `free[h]`.  `module`, x ⊗ b with its action, is built
    on first read: many callers read only dims or map components.
    """

    bimodule: Bimodule
    source_module: Module
    presentation: Presentation
    offsets: dict[str, list[int]]
    projections: dict[str, RationalMatrix] = field(default_factory=dict)
    free: dict[str, list[int]] = field(default_factory=dict)

    @cached_property
    def module(self) -> Module:
        """b(G_k)'s own action in every slot, pushed down to the quotients only
        where right_cat's `action_plan` leaves it to compute; identities and
        composites are read off (`fill_action`)."""
        gens, offsets, rc = self.presentation.generators, self.offsets, self.bimodule.right_cat

        def act(h2: str, h1: str, i: int) -> RationalMatrix:
            cols = []
            for col in self.free[h1]:
                k, j = self.slot(h1, col)
                m = self.bimodule.values[gens[k][0]].action[(h2, h1, i)]  # b(G_k)(h1) -> b(G_k)(h2)
                cols.append({offsets[h2][k] + r: row[j] for r, row in enumerate(m.sp) if j in row})
            return _descend(self.projections[h2], cols)

        dims = {h: len(self.free[h]) for h in rc.objects}
        return Module(rc, dims, fill_action(rc, dims, act))

    def kernel_dims(self, comps: Mapping[str, RationalMatrix]) -> dict[str, int]:
        """dim ker at each h of the map out of x ⊗ b with these components."""
        return {h: len(free) - rank(comps[h]) for h, free in self.free.items()}

    def slot(self, h: str, col: int) -> tuple[int, int]:
        """(k, j): big-space column col at h is basis vector j of b(G_k)(h)."""
        k = bisect_right(self.offsets[h], col) - 1
        return k, col - self.offsets[h][k]

    def preimage(self, g: str, v: Mapping[int, Scalar]) -> dict[int, Scalar]:
        """An element of P0(g) over v in x(g), both as nonzero coordinates."""
        return combine((c, self.presentation.preimages[g][a]) for a, c in v.items())

    def lifted(self, g: str, c: Mapping[int, Scalar], h: str) -> list[dict[int, Scalar]]:
        """Column β: the big-space vector Σ_p c_p b(f_p) e_β at h of the element
        c of P0(g) tensored with basis vector β of b(g)(h)."""
        b, offsets = self.bimodule, self.offsets[h]
        cols: list[dict[int, Scalar]] = [{} for _ in range(b.values[g].dims[h])]
        terms = self.presentation.evaluate(  # slot k: b(f) from b(g)(h) to b(G_k)(h)
            g, c, lambda gk, f: b.left_action[(g, gk, f)].components[h])
        for (k, r, beta), y in terms.items():
            cols[beta][offsets[k] + r] = y
        return cols

    def represent(
        self, g: str, v: Mapping[int, Scalar], h: str, beta: Mapping[int, Scalar]
    ) -> dict[int, Scalar]:
        """A big-space vector at h of v ⊗ β, for v in x(g) and β in b(g)(h)."""
        cols = self.lifted(g, self.preimage(g, v), h)
        return combine((y, cols[j]) for j, y in beta.items())


def tensor_bimodule(x: Module, b: Bimodule) -> TensorContext:
    """x ⊗ b as the cokernel of K ⊗ b -> P0 ⊗ b = ⊕_k b(G_k), objectwise over
    right_cat: the big space, the projections onto the quotients and their
    free columns, so that len(ctx.free[h]) = dim (x ⊗ b)(h); the module is
    built on first read of `ctx.module`.

    K is the kernel of the cover P0 -> x of x's presentation.  Tensoring is
    right exact and yoneda(G) ⊗ b = b(G), so the relations at h are the vectors
    Σ_k b(κ_k) β for κ in a basis of K(G) and β in a basis of b(G)(h).
    """
    lc, rc = b.left_cat, b.right_cat
    if not (x.over is lc or x.over == lc):
        raise ValueError("module is not over the bimodule's left category")
    pres = x.presentation
    gens = pres.generators
    offsets = {h: list(accumulate((b.values[gk].dims[h] for gk, _ in gens), initial=0))
               for h in rc.objects}
    ctx = TensorContext(b, x, pres, offsets)
    for h in rc.objects:
        rels = EchelonBasis(offsets[h][-1])
        for g in lc.objects:
            if b.values[g].dims[h]:
                for kappa in pres.kernels[g]:
                    for row in ctx.lifted(g, kappa, h):
                        if row:
                            rels.insert(row)
        ctx.projections[h] = rels.quotient_maps()[0]
        ctx.free[h] = rels.free_columns()
    return ctx


def _descend(proj: RationalMatrix, cols: Sequence[Mapping[int, Scalar]]) -> RationalMatrix:
    """proj * B for the big-space matrix B with these columns, given as nonzero entries."""
    return proj * RationalMatrix.from_columns(cols, proj.cols)


def tensor_map(f: ModuleMap, ctx_src: TensorContext, ctx_tgt: TensorContext) -> ModuleMap:
    """f ⊗ b on the quotients, for the contexts of f.source ⊗ b and f.target ⊗ b:
    the class of e_{a_k} ⊗ β goes to the class of f(e_{a_k}) ⊗ β, lifted to the
    target's big space by its preimage solve."""
    gens = ctx_src.presentation.generators
    pre = [ctx_tgt.preimage(g, dict(nonzeros(f.components[g].col(a)))) for g, a in gens]
    comps = {}
    for h in ctx_src.bimodule.right_cat.objects:
        lifts: dict[int, list[dict[int, Scalar]]] = {}
        cols = []
        for col in ctx_src.free[h]:
            k, j = ctx_src.slot(h, col)
            if k not in lifts:
                lifts[k] = ctx_tgt.lifted(gens[k][0], pre[k], h)
            cols.append(lifts[k][j])
        comps[h] = _descend(ctx_tgt.projections[h], cols)
    return ModuleMap(ctx_src.module, ctx_tgt.module, comps)


# ---------------------------------------------------------------------------
# induction: the tensor with the regular bimodule
# ---------------------------------------------------------------------------

def induction_unit(s: LinearFunctor, ctx: TensorContext) -> ModuleMap:
    """x -> restrict(s, x ⊗ regular_bimodule(s)), for ctx the context of that
    tensor: e_a at U goes to the class of e_a ⊗ id_SU."""
    x = ctx.source_module
    comps = {}
    for u in s.source.objects:
        su = s.apply_obj(u)
        idc = dict(nonzeros(s.target.identities[su]))
        reps = [ctx.represent(u, {a: ONE}, su, idc) for a in range(x.dims[u])]
        comps[u] = _descend(ctx.projections[su], reps)
    return ModuleMap(x, restrict(s, ctx.module), comps)


def induction_counit(s: LinearFunctor, ctx: TensorContext, y: Module) -> ModuleMap:
    """Evaluation restrict(s, y) ⊗ regular_bimodule(s) -> y, for ctx the context
    of that tensor: the class of e_{a_k} ⊗ h, for h: T -> S G_k, goes to y(h) e_{a_k}."""
    return ModuleMap(ctx.module, y, _counit_at(s, ctx, y))


def _counit_at(s: LinearFunctor, ctx: TensorContext, y: Module) -> dict[str, RationalMatrix]:
    """`induction_counit`'s components, read in ctx's coordinates."""
    comps = {}
    for t_obj in s.target.objects:
        cols = []
        for col in ctx.free[t_obj]:
            k, j = ctx.slot(t_obj, col)
            u, a = ctx.presentation.generators[k]
            cols.append(y.action[(t_obj, s.apply_obj(u), j)].col(a))
        comps[t_obj] = RationalMatrix.from_columns(cols, y.dims[t_obj])
    return comps


def counit_components(s: LinearFunctor) -> dict[str, tuple[TensorContext, Module, dict]]:
    """At every representable y_v of the target: the context of restrict(s, y_v)
    ⊗ regular_bimodule(s), y_v and the counit's components there.  One regular
    bimodule serves them all; its representables are those at s's image."""
    reg = regular_bimodule(s)
    reps = {s.apply_obj(u): m for u, m in reg.values.items()}
    out = {}
    for v in s.target.objects:
        y = reps[v] if v in reps else yoneda(s.target, v)
        ctx = tensor_bimodule(restrict(s, y), reg)
        out[v] = ctx, y, _counit_at(s, ctx, y)
    return out


def counits(s: LinearFunctor) -> dict[str, ModuleMap]:
    """The counit at every representable of the target, by object."""
    return {v: ModuleMap(ctx.module, y, comps) for v, (ctx, y, comps) in counit_components(s).items()}


# ---------------------------------------------------------------------------
# adjunction checks
# ---------------------------------------------------------------------------

def adjunction_check(
    s: LinearFunctor,
    source_samples: Sequence[Module],
    target_samples: Sequence[Module],
) -> dict:
    """Triangle identities and Hom-dimension adjointness on the given samples."""
    from .modules import flatten_map

    report = {
        "triangle_left_adjoint": True,
        "triangle_right_adjoint": True,
        "triangle_coinduction": True,
        "hom_dim_induction": True,
        "hom_dim_coinduction": True,
        "failures": [],
    }
    reg = regular_bimodule(s)
    induced, coinduced, restricted = [], [], []

    for x in source_samples:
        ind_x = tensor_bimodule(x, reg)
        r_ind = restrict(s, ind_x.module)
        ctx2 = tensor_bimodule(r_ind, reg)
        eps = induction_counit(s, ctx2, ind_x.module)
        t1 = map_compose(eps, tensor_map(induction_unit(s, ind_x), ind_x, ctx2))
        if flatten_map(t1) != flatten_map(identity_map(ind_x.module)):
            report["triangle_left_adjoint"] = False
            report["failures"].append(("triangle1", x.dims))
        co_x = coinduce(s, x)
        induced.append(ind_x.module)
        coinduced.append(co_x.module)
        r_co = restrict(s, co_x.module)
        ctx_rc = coinduce(s, r_co)
        eps2 = coinduce_counit(co_x)
        t2 = map_compose(coinduce_map(ctx_rc, co_x, eps2), coinduce_unit(ctx_rc, co_x.module))
        if flatten_map(t2) != flatten_map(identity_map(co_x.module)):
            report["triangle_coinduction"] = False
            report["failures"].append(("triangle_coind", x.dims))

    for y in target_samples:
        ry = restrict(s, y)
        restricted.append(ry)
        ind_ry = tensor_bimodule(ry, reg)
        eps_y = induction_counit(s, ind_ry, y)
        unit = induction_unit(s, ind_ry)
        t2 = map_compose(restrict_map(s, eps_y, unit.target, ry), unit)
        if flatten_map(t2) != flatten_map(identity_map(ry)):
            report["triangle_right_adjoint"] = False
            report["failures"].append(("triangle2", y.dims))
        co_ry = coinduce(s, ry)
        eps3 = coinduce_counit(co_ry)
        # (restrict ⊣ coinduce) triangle: counit'_{ry} ∘ restrict(unit'_y) = id_{ry}
        t3 = map_compose(eps3, restrict_map(s, coinduce_unit(co_ry, y), ry, restrict(s, co_ry.module)))
        if flatten_map(t3) != flatten_map(identity_map(ry)):
            report["triangle_coinduction"] = False
            report["failures"].append(("triangle_coind2", y.dims))

    for x, ind_mod, co_mod in zip(source_samples, induced, coinduced):
        for y, ry in zip(target_samples, restricted):
            lhs = len(hom_modules(ind_mod, y))
            rhs = len(hom_modules(x, ry))
            if lhs != rhs:
                report["hom_dim_induction"] = False
                report["failures"].append(("hom_dim_ind", x.dims, y.dims, lhs, rhs))
            lhs2 = len(hom_modules(ry, x))
            rhs2 = len(hom_modules(y, co_mod))
            if lhs2 != rhs2:
                report["hom_dim_coinduction"] = False
                report["failures"].append(("hom_dim_coind", x.dims, y.dims, lhs2, rhs2))

    report["ok"] = not report["failures"]
    return report


# ---------------------------------------------------------------------------
# canonical factorizations
# ---------------------------------------------------------------------------

@dataclass
class Factorization:
    """T = I ∘ S with S bijective on objects and I fully faithful embedding data."""

    mid: LinearCategory
    s: LinearFunctor
    i: Union[LinearFunctor, Bimodule]
    torsion: object | None = None  # TorsionData on the target, for localized targets
    localized_representables: dict | None = None  # obj -> ClosedModule
    hom_bases: dict | None = None  # (V, U) -> HomBasis


def canonical_factorization(t: LinearFunctor) -> Factorization:
    """Mid category has the source's objects and the target's homs between images."""
    i = full_image(t.target, {u: t.apply_obj(u) for u in t.source.objects})  # in source order
    s = LinearFunctor(t.source, i.source, {u: u for u in t.source.objects}, dict(t.hom_maps))
    return Factorization(mid=i.source, s=s, i=i)


def canonical_factorization_localized(p: LinearFunctor, torsion_prime) -> Factorization:
    """Factor U -> Md(U')/L' through the category of localized induced representables.

    Mid homs are quotient-category homs between the localizations a(y_PU);
    i is the bimodule sending each mid object to that closed module.  Each
    Hom basis is solved once and kept in `hom_bases`.  Every map
    α: a(y_PV) -> a(y_PU) is read at e_V, the unit's image of id_PV: a closed
    Z has Hom(a(y_PV), Z) ≅ Hom(y_PV, Z) ≅ Z(PV) (Stenström, *Rings of
    Quotients*, 1975, Ch. IX), so the matrix E_(V, U) of α ↦ α_PV(e_V) on
    `hom_bases[(V, U)]` is square and invertible.  A composite g ∘ f, an
    identity and S's image of a basis morphism b are then the coordinates
    E⁻¹·z of their values z at e: g_PW·f_PW·e_W, e_U and η_PU(p(b)).
    """
    from .torsion import localize, require_on

    src = p.source
    tgt_cat = p.target
    require_on(torsion_prime, tgt_cat, "the functor's target")
    # one localization and unit per image object, shared by the objects that p sends there
    by_image = {g: localize(torsion_prime, yoneda(tgt_cat, g)) for g in p.image_objects()}
    loc = {u: by_image[p.apply_obj(u)][0] for u in src.objects}
    unit = {u: by_image[p.apply_obj(u)][1] for u in src.objects}
    e = {u: unit[u].components[p.apply_obj(u)].apply(tgt_cat.identities[p.apply_obj(u)])
         for u in src.objects}
    bases = {
        (v, u): hom_modules(loc[v].module, loc[u].module)
        for v in src.objects
        for u in src.objects
    }
    ev, inv = {}, {}  # E_(v, u): column k is basis map k at e_v; and E⁻¹
    for (v, u), basis in bases.items():
        pv = p.apply_obj(v)
        m = RationalMatrix.from_columns(
            [a.components[pv].apply(e[v]) for a in basis], loc[u].module.dims[pv])
        m_inv = solve_matrix(m, RationalMatrix.identity(m.rows)) if m.rows == m.cols else None
        if m_inv is None:
            raise InternalInvariantError(f"evaluation at e_{v} is not invertible at {(v, u)}")
        ev[(v, u)], inv[(v, u)] = m, m_inv
    hom_dims = {pair: len(basis) for pair, basis in bases.items() if basis}
    comp = {}
    for w, v, u in product(src.objects, repeat=3):
        if bases[(v, u)] and bases[(w, v)] and bases[(w, u)]:
            # column fi of E⁻¹·g_gi·E_(w, v): basis g_gi ∘ basis f_fi in Hom(w, u)
            pw = p.apply_obj(w)
            comp[(w, v, u)] = {
                (gi, fi): cell
                for gi, g in enumerate(bases[(v, u)])
                for fi, cell in enumerate(
                    (inv[(w, u)] * g.components[pw] * ev[(w, v)]).transpose().sp)
            }
    ids = {u: inv[(u, u)].apply(e[u]) for u in src.objects}
    mid = LinearCategory(src.objects, hom_dims, comp, ids)
    s_hom = {
        (v, u): inv[(v, u)] * unit[u].components[p.apply_obj(v)] * p.hom_maps[(v, u)]
        for v, u in src.hom_pairs()
    }
    s = LinearFunctor(src, mid, {u: u for u in src.objects}, s_hom)

    values = {u: loc[u].module for u in src.objects}
    left_action = {}
    for v, u in mid.hom_pairs():
        for i in range(mid.hom_dim(v, u)):
            left_action[(v, u, i)] = bases[(v, u)][i]
    i_bim = Bimodule(mid, tgt_cat, values, left_action)
    return Factorization(
        mid=mid,
        s=s,
        i=i_bim,
        torsion=torsion_prime,
        localized_representables=loc,
        hom_bases=bases,
    )
