"""Linear functors, the induction/restriction/coinduction triple, bimodule
tensor products, and canonical factorizations.

Induction along a functor is computed as an explicit finite coequalizer: the
relation span ("act on the module" minus "map and compose") is quotiented out
of a finite sum of hom spaces, objectwise.  The same shape computes the tensor
with a bimodule, which is how induction into a quotient category is reached.
Coinduction is a hom-space module.  Contexts carry the chosen projections,
quotient coordinates and hom bases so units, counits and functoriality on
maps are all computed in matching coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Mapping, Sequence, Union

from .category import LinearCategory, Morphism, combine, contract, postcompose_cells
from .errors import InternalInvariantError
from .linalg import ONE, ZERO, EchelonBasis, RationalMatrix, zero_vec
from .modules import (
    Module,
    ModuleMap,
    coordinates_in_hom_basis,
    evaluation_matrix,
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
    cols = {pair: m.transpose().sp for pair, m in s.hom_maps.items()}  # S(basis morphism)
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


def compose_functors(g: LinearFunctor, f: LinearFunctor) -> LinearFunctor:
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


def functors_equal(a: LinearFunctor, b: LinearFunctor) -> bool:
    return (
        a.source == b.source
        and a.target == b.target
        and a.object_map == b.object_map
        and a.hom_maps == b.hom_maps
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
        for i, col in enumerate(s.hom_maps[(v, u)].transpose().sp):
            action[(v, u, i)] = x.act_coords(sv, su, col)
    return Module(src, dims, action)


def restrict_map(
    s: LinearFunctor, f: ModuleMap, rx: Module | None = None, ry: Module | None = None
) -> ModuleMap:
    rx = rx if rx is not None else restrict(s, f.source)
    ry = ry if ry is not None else restrict(s, f.target)
    return ModuleMap(rx, ry, {u: f.components[s.apply_obj(u)] for u in s.source.objects})


# ---------------------------------------------------------------------------
# induction (coequalizer presentation)
# ---------------------------------------------------------------------------

@dataclass
class InducedContext:
    """Everything needed to work with induce(s, x) in fixed coordinates."""

    functor: LinearFunctor
    source_module: Module
    module: Module
    unit: ModuleMap  # x -> restrict(s, module)
    slots: dict[str, list[tuple[str, int]]]  # per target object: (source obj U, offset)
    projections: dict[str, RationalMatrix]
    # big-space columns that serve as quotient coordinates; the section of
    # each projection is the unit columns at these
    free: dict[str, list[int]]

    def big_dim(self, t_obj: str) -> int:
        return self.projections[t_obj].cols

    def slot_offset(self, t_obj: str, u: str) -> int:
        for uu, off in self.slots[t_obj]:
            if uu == u:
                return off
        raise KeyError(u)


def induce(s: LinearFunctor, x: Module) -> InducedContext:
    """Left Kan extension along s, as cokernel of the standard relation map.

    Value at T is (⊕_U x(U) ⊗ Hom(T, SU)) / span of "act on x minus compose
    in the target" relations.
    """
    src, tgt = s.source, s.target
    slots: dict[str, list[tuple[str, int]]] = {}
    rels: dict[str, EchelonBasis] = {}
    for t_obj in tgt.objects:
        off = 0
        slot = []
        for u in src.objects:
            slot.append((u, off))
            off += x.dims[u] * tgt.hom_dim(t_obj, s.apply_obj(u))
        slots[t_obj] = slot
        rels[t_obj] = EchelonBasis(off)

    for t_obj in tgt.objects:
        if rels[t_obj].width == 0:
            continue
        offset = dict(slots[t_obj])
        for v, u in src.hom_pairs():
            sv, su = s.apply_obj(v), s.apply_obj(u)
            dh, du = tgt.hom_dim(t_obj, sv), tgt.hom_dim(t_obj, su)
            if dh == 0 or x.dims[u] == 0:
                continue
            for i, s_mor in enumerate(s.hom_maps[(v, u)].transpose().sp):  # S(u_i): SV -> SU
                act = x.action[(v, u, i)]  # x(U) -> x(V)
                # S(u_i) ∘ h : T -> SU for each basis morphism h : T -> SV
                shs = [cell.items() for cell in postcompose_cells(tgt, t_obj, sv, su, s_mor)]
                for a, col in enumerate(act.transpose().sp):
                    for j in range(dh):
                        row: dict[int, Fraction] = {}
                        for b, cb in col.items():
                            k = offset[v] + b * dh + j
                            row[k] = row.get(k, ZERO) + cb
                        for jj, cc in shs[j]:
                            k = offset[u] + a * du + jj
                            row[k] = row.get(k, ZERO) - cc
                        if any(row.values()):
                            rels[t_obj].insert(row)

    projections, free = _quotients(rels)
    dims = {t_obj: len(free[t_obj]) for t_obj in tgt.objects}

    # action of the induced module: precomposition inside each hom slot
    action = {}
    for t2, t1 in tgt.hom_pairs():  # basis morphisms t2 -> t1 act ind(t1) -> ind(t2)
        for i, big in enumerate(_precompose_entries(s, x, slots, t2, t1)):
            action[(t2, t1, i)] = _descend(projections[t2], free[t1], big)
    ind = Module(tgt, dims, action)

    # unit x -> restrict(s, ind): e_a at U goes to class of e_a ⊗ id_SU
    unit_comps = {}
    for u in src.objects:
        su = s.apply_obj(u)
        cols = []
        for a in range(x.dims[u]):
            big = [ZERO] * rels[su].width
            base = dict(slots[su])[u] + a * tgt.hom_dim(su, su)
            for jj, cc in enumerate(tgt.identities[su]):
                if cc:
                    big[base + jj] += cc
            cols.append(projections[su].apply(big))
        unit_comps[u] = RationalMatrix.from_columns(cols, dims[su])
    rind = restrict(s, ind)
    unit = ModuleMap(x, rind, unit_comps)
    return InducedContext(s, x, ind, unit, slots, projections, free)


def _quotients(rels: Mapping[str, EchelonBasis]):
    """Projection and free columns of each big space modulo its relations."""
    projections = {obj: eb.quotient_maps()[0] for obj, eb in rels.items()}
    free = {obj: eb.free_columns() for obj, eb in rels.items()}
    return projections, free


def _descend(
    proj: RationalMatrix, free: Sequence[int], entries: Sequence[tuple[int, int, Fraction]]
) -> RationalMatrix:
    """proj * B * S for the big-space map B with the given (row, column, value)
    entries, S being the section whose columns are the units at `free`.

    B * S is B restricted to those columns, so only they are built.
    """
    where = {j: k for k, j in enumerate(free)}
    out: list[dict[int, Fraction]] = [{} for _ in range(proj.cols)]
    for r, c, x in entries:
        k = where.get(c)
        if k is not None:
            out[r][k] = out[r].get(k, ZERO) + x
    rows = [{k: x for k, x in row.items() if x} for row in out]
    return proj * RationalMatrix.from_sparse_rows(rows, len(free))


def _precompose_entries(s, x, slots, t2, t1) -> list[list[tuple[int, int, Fraction]]]:
    """⊕_U id_{x(U)} ⊗ (precompose by basis morphism i: t2 -> t1) on the big
    spaces, as (row, column, value) entries, for each i in order."""
    tgt = s.target
    out = [[] for _ in range(tgt.hom_dim(t2, t1))]
    for (u, off1), (_, off2) in zip(slots[t1], slots[t2]):
        su = s.apply_obj(u)
        d1, d2 = tgt.hom_dim(t1, su), tgt.hom_dim(t2, su)
        for (j, i), cell in tgt.table(t2, t1, su).items():  # h_j ∘ b_i: t2 -> su
            for a in range(x.dims[u]):
                c1 = off1 + a * d1 + j
                out[i] += [(off2 + a * d2 + jj, c1, cc) for jj, cc in cell.items()]
    return out


def induce_map(
    s: LinearFunctor, f: ModuleMap, ctx_src: InducedContext, ctx_tgt: InducedContext
) -> ModuleMap:
    """Functoriality of induction: ⊕ f_U ⊗ id descends to the quotients."""
    tgt = s.target
    comps = {}
    for t_obj in tgt.objects:
        big = []
        for u, off_s in ctx_src.slots[t_obj]:
            off_t = ctx_tgt.slot_offset(t_obj, u)
            dh = tgt.hom_dim(t_obj, s.apply_obj(u))
            for b, row in enumerate(f.components[u].sp):
                for a, cc in row.items():
                    big += [(off_t + b * dh + j, off_s + a * dh + j, cc) for j in range(dh)]
        comps[t_obj] = _descend(ctx_tgt.projections[t_obj], ctx_src.free[t_obj], big)
    return ModuleMap(ctx_src.module, ctx_tgt.module, comps)


def counit_from_context(ctx: InducedContext, y: Module) -> ModuleMap:
    """Evaluation induce(restrict y) -> y, given the context of induce(restrict y)."""
    s = ctx.functor
    tgt = s.target
    comps = {}
    for t_obj in tgt.objects:
        cols_big = []
        for u, off in ctx.slots[t_obj]:
            su = s.apply_obj(u)
            dh = tgt.hom_dim(t_obj, su)
            for a in range(y.dims[su]):
                for j in range(dh):
                    cols_big.append(y.action[(t_obj, su, j)].col(a))
        # big * section is big restricted to the free columns
        cols = [cols_big[j] for j in ctx.free[t_obj]]
        comps[t_obj] = RationalMatrix.from_columns(cols, y.dims[t_obj])
    return ModuleMap(ctx.module, y, comps)


def counit(s: LinearFunctor, y: Module) -> ModuleMap:
    """The adjunction counit induce(restrict(y)) -> y."""
    ctx = induce(s, restrict(s, y))
    eps = counit_from_context(ctx, y)
    if s.is_surjective_on_objects() and not eps.is_epi():
        raise InternalInvariantError("counit must be epi for surjective-on-objects functors")
    return eps


# ---------------------------------------------------------------------------
# coinduction
# ---------------------------------------------------------------------------

@dataclass
class CoinducedContext:
    functor: LinearFunctor
    source_module: Module
    module: Module
    restricted_representables: dict[str, Module]
    hom_bases: dict[str, list[ModuleMap]]


def coinduce(s: LinearFunctor, x: Module) -> CoinducedContext:
    """Right adjoint of restriction: value at G is Hom(restrict(yoneda G), x)."""
    tgt = s.target
    reps = {g: restrict(s, yoneda(tgt, g)) for g in tgt.objects}
    maps = {}
    for g2, g1 in tgt.hom_pairs():  # basis g: g2 -> g1 acts co(g1) -> co(g2)
        for i in range(tgt.hom_dim(g2, g1)):
            comps = yoneda_components(tgt, g2, g1, {i: ONE})
            maps[(g2, g1, i)] = ModuleMap(
                reps[g2], reps[g1], {u: comps[s.apply_obj(u)] for u in s.source.objects}
            )
    co, bases = hom_diagram_module(tgt, reps, maps, x)
    return CoinducedContext(s, x, co, reps, bases)


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
    """y -> coinduce(restrict y) for y over the target (ctx built on restrict y)."""
    s = ctx.functor
    src, tgt = s.source, s.target
    comps = {}
    for g in tgt.objects:
        acts = {}
        for u in src.objects:
            su = s.apply_obj(u)
            acts[u] = [y.action[(su, g, j)] for j in range(tgt.hom_dim(su, g))]
        comps[g] = evaluation_matrix(ctx.hom_bases[g], acts, y.dims[g])
    return ModuleMap(y, ctx.module, comps)


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

class Bimodule:
    """A functor from left_cat into modules over right_cat."""

    def __init__(
        self,
        left_cat: LinearCategory,
        right_cat: LinearCategory,
        values: Mapping[str, Module],
        left_action: Mapping[tuple[str, str, int], ModuleMap],
    ):
        self.left_cat = left_cat
        self.right_cat = right_cat
        self.values = dict(values)
        for g in left_cat.objects:
            if g not in self.values:
                raise ValueError(f"bimodule value missing at {g}")
        self.left_action = dict(left_action)
        for v, u in left_cat.hom_pairs():
            for i in range(left_cat.hom_dim(v, u)):
                if (v, u, i) not in self.left_action:
                    raise ValueError(f"bimodule left action missing at {(v, u, i)}")

    def left_act(self, m: Morphism) -> ModuleMap:
        """Bilinear extension: value(source) -> value(target)."""
        from .modules import map_add, map_scale, zero_map

        out = zero_map(self.values[m.source], self.values[m.target])
        for i, c in enumerate(m.coords):
            if c:
                out = map_add(out, map_scale(c, self.left_action[(m.source, m.target, i)]))
        return out


def validate_bimodule(b: Bimodule) -> list[str]:
    from .modules import flatten_map, validate_module, validate_module_map

    problems = []
    for g, val in b.values.items():
        problems += [f"value at {g}: {p}" for p in validate_module(val)]
    for key, act in b.left_action.items():
        problems += [f"left action at {key}: {p}" for p in validate_module_map(act)]
    lc = b.left_cat
    for g in lc.objects:
        if flatten_map(b.left_act(lc.identity(g))) != flatten_map(identity_map(b.values[g])):
            problems.append(f"left action of identity at {g} is not the identity")
    for w, v, u in product(lc.objects, repeat=3):
        for gi in range(lc.hom_dim(v, u)):
            for fi in range(lc.hom_dim(w, v)):
                lhs = b.left_act(Morphism(w, u, lc.comp_coords(w, v, u, gi, fi)))
                rhs = map_compose(b.left_action[(v, u, gi)], b.left_action[(w, v, fi)])
                if flatten_map(lhs) != flatten_map(rhs):
                    problems.append(f"left action not functorial at ({(v, u, gi)}, {(w, v, fi)})")
    return problems


def regular_bimodule(s: LinearFunctor) -> Bimodule:
    """The bimodule computing induction along s: value(U) = yoneda(SU)."""
    tgt = s.target
    values = {u: yoneda(tgt, s.apply_obj(u)) for u in s.source.objects}
    action = {}
    for v, u in s.source.hom_pairs():
        sv, su = s.apply_obj(v), s.apply_obj(u)
        for i, col in enumerate(s.hom_maps[(v, u)].transpose().sp):  # S(basis i)
            action[(v, u, i)] = ModuleMap(values[v], values[u], yoneda_components(tgt, sv, su, col))
    return Bimodule(s.source, tgt, values, action)


@dataclass
class TensorContext:
    bimodule: Bimodule
    source_module: Module
    module: Module
    slots: dict[str, list[tuple[str, int]]]
    projections: dict[str, RationalMatrix]
    # big-space columns that serve as quotient coordinates; the section of
    # each projection is the unit columns at these
    free: dict[str, list[int]]

    def big_dim(self, h_obj: str) -> int:
        return self.projections[h_obj].cols

    def slot_offset(self, h_obj: str, g: str) -> int:
        for gg, off in self.slots[h_obj]:
            if gg == g:
                return off
        raise KeyError(g)


def tensor_bimodule(x: Module, b: Bimodule) -> TensorContext:
    """x ⊗ b: coequalizer of the two evaluation routes, objectwise over right_cat."""
    lc, rc = b.left_cat, b.right_cat
    if not (x.over is lc or x.over == lc):
        raise ValueError("module is not over the bimodule's left category")
    slots: dict[str, list[tuple[str, int]]] = {}
    rels: dict[str, EchelonBasis] = {}
    for h in rc.objects:
        off = 0
        slot = []
        for g in lc.objects:
            slot.append((g, off))
            off += x.dims[g] * b.values[g].dims[h]
        slots[h] = slot
        rels[h] = EchelonBasis(off)

    for h in rc.objects:
        if rels[h].width == 0:
            continue
        offset = dict(slots[h])
        for gp, g in lc.hom_pairs():  # gamma: G' -> G
            dp, d = b.values[gp].dims[h], b.values[g].dims[h]
            for i in range(lc.hom_dim(gp, g)):
                act = x.action[(gp, g, i)]  # x(G) -> x(G')
                lact = b.left_action[(gp, g, i)].components[h]  # b(G')(h) -> b(G)(h)
                lcols = lact.transpose().sp
                for a, col in enumerate(act.transpose().sp):
                    for j in range(dp):
                        row: dict[int, Fraction] = {}
                        for bb, cb in col.items():
                            k = offset[gp] + bb * dp + j
                            row[k] = row.get(k, ZERO) + cb
                        for jj, cc in lcols[j].items():
                            k = offset[g] + a * d + jj
                            row[k] = row.get(k, ZERO) - cc
                        if any(row.values()):
                            rels[h].insert(row)

    projections, free = _quotients(rels)
    dims = {h: len(free[h]) for h in rc.objects}

    action = {}
    for h2, h1 in rc.hom_pairs():
        for i in range(rc.hom_dim(h2, h1)):
            big = []
            for (g, off1), (_, off2) in zip(slots[h1], slots[h2]):
                m = b.values[g].action[(h2, h1, i)]  # b(g)(h1) -> b(g)(h2)
                d1, d2 = b.values[g].dims[h1], b.values[g].dims[h2]
                entries = [(jj, j, cc) for jj, r in enumerate(m.sp) for j, cc in r.items()]
                for a in range(x.dims[g]):
                    big += [
                        (off2 + a * d2 + jj, off1 + a * d1 + j, cc) for jj, j, cc in entries
                    ]
            action[(h2, h1, i)] = _descend(projections[h2], free[h1], big)
    out = Module(rc, dims, action)
    return TensorContext(b, x, out, slots, projections, free)


def tensor_map(
    f: ModuleMap,
    b: Bimodule,
    ctx_src: TensorContext | None = None,
    ctx_tgt: TensorContext | None = None,
) -> ModuleMap:
    """f ⊗ b on the quotients."""
    ctx_src = ctx_src if ctx_src is not None else tensor_bimodule(f.source, b)
    ctx_tgt = ctx_tgt if ctx_tgt is not None else tensor_bimodule(f.target, b)
    rc = b.right_cat
    comps = {}
    for h in rc.objects:
        big = []
        for g, off_s in ctx_src.slots[h]:
            off_t = ctx_tgt.slot_offset(h, g)
            d = b.values[g].dims[h]
            for bb, row in enumerate(f.components[g].sp):
                for a, cc in row.items():
                    big += [(off_t + bb * d + j, off_s + a * d + j, cc) for j in range(d)]
        comps[h] = _descend(ctx_tgt.projections[h], ctx_src.free[h], big)
    return ModuleMap(ctx_src.module, ctx_tgt.module, comps)


def tensor_yoneda_iso(g_obj: str, b: Bimodule, ctx: TensorContext | None = None) -> ModuleMap:
    """The canonical map b(G) -> yoneda(G) ⊗ b; an isomorphism (checked by callers)."""
    lc = b.left_cat
    yg = yoneda(lc, g_obj)
    ctx = ctx if ctx is not None else tensor_bimodule(yg, b)
    comps = {}
    for h in b.right_cat.objects:
        cols = []
        idc = lc.identities[g_obj]
        for j in range(b.values[g_obj].dims[h]):
            big = [ZERO] * ctx.big_dim(h)
            off = ctx.slot_offset(h, g_obj)
            d = b.values[g_obj].dims[h]
            for a, ca in enumerate(idc):
                if ca:
                    big[off + a * d + j] += ca
            cols.append(ctx.projections[h].apply(big))
        comps[h] = RationalMatrix.from_columns(cols, ctx.module.dims[h])
    return ModuleMap(b.values[g_obj], ctx.module, comps)


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

    for x in source_samples:
        ind_x = induce(s, x)
        r_ind = restrict(s, ind_x.module)
        ctx2 = induce(s, r_ind)
        eps = counit_from_context(ctx2, ind_x.module)
        t1 = map_compose(eps, induce_map(s, ind_x.unit, ind_x, ctx2))
        if flatten_map(t1) != flatten_map(identity_map(ind_x.module)):
            report["triangle_left_adjoint"] = False
            report["failures"].append(("triangle1", x.dims))
        co_x = coinduce(s, x)
        r_co = restrict(s, co_x.module)
        ctx_rc = coinduce(s, r_co)
        eps2 = coinduce_counit(co_x)
        t2 = map_compose(coinduce_map(ctx_rc, co_x, eps2), coinduce_unit(ctx_rc, co_x.module))
        if flatten_map(t2) != flatten_map(identity_map(co_x.module)):
            report["triangle_coinduction"] = False
            report["failures"].append(("triangle_coind", x.dims))

    for y in target_samples:
        ry = restrict(s, y)
        ind_ry = induce(s, ry)
        eps_y = counit_from_context(ind_ry, y)
        t2 = map_compose(restrict_map(s, eps_y, restrict(s, ind_ry.module), ry), ind_ry.unit)
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

    for x in source_samples:
        for y in target_samples:
            ind_x = induce(s, x)
            lhs = len(hom_modules(ind_x.module, y))
            rhs = len(hom_modules(x, restrict(s, y)))
            if lhs != rhs:
                report["hom_dim_induction"] = False
                report["failures"].append(("hom_dim_ind", x.dims, y.dims, lhs, rhs))
            co = coinduce(s, x)
            lhs2 = len(hom_modules(restrict(s, y), x))
            rhs2 = len(hom_modules(y, co.module))
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
    localized_representables: dict | None = None  # obj -> (ClosedModule, unit)
    hom_bases: dict | None = None  # (V, U) -> list[ModuleMap]


def canonical_factorization(t: LinearFunctor) -> Factorization:
    """Mid category has the source's objects and the target's homs between images."""
    src, tgt = t.source, t.target
    images = {pair: tuple(map(t.apply_obj, pair)) for pair in product(src.objects, repeat=2)}
    hom_dims = {pair: tgt.hom_dim(*im) for pair, im in images.items() if tgt.hom_dim(*im)}
    labels = {pair: tgt.basis_labels[images[pair]] for pair in hom_dims}
    ids = {u: tgt.identities[t.apply_obj(u)] for u in src.objects}
    mid = LinearCategory(src.objects, hom_dims, {}, ids, labels)
    for w, v, u in product(src.objects, repeat=3):  # mid's homs are the target's: share its tables
        if tab := tgt.table(*(t.apply_obj(o) for o in (w, v, u))):
            mid.cells[(w, v, u)] = tab
    s = LinearFunctor(src, mid, {u: u for u in src.objects}, dict(t.hom_maps))
    identities = {pair: RationalMatrix.identity(d) for pair, d in hom_dims.items()}
    i = LinearFunctor(mid, tgt, {u: t.apply_obj(u) for u in src.objects}, identities)
    return Factorization(mid=mid, s=s, i=i)


def canonical_factorization_localized(p: LinearFunctor, torsion_prime) -> Factorization:
    """Factor U -> Md(U')/L' through the category of localized induced representables.

    Mid homs are quotient-category homs between localizations of yoneda(PU);
    i is the bimodule sending each mid object to that closed module.
    """
    from .torsion import localize, localize_morphism

    src = p.source
    tgt_cat = p.target
    if not (torsion_prime.cat is tgt_cat or torsion_prime.cat == tgt_cat):
        raise ValueError("torsion data must live on the functor's target")
    # one localization per image object, shared by the objects that p sends there
    by_image = {g: localize(torsion_prime, yoneda(tgt_cat, g)) for g in p.image_objects()}
    loc = {u: by_image[p.apply_obj(u)] for u in src.objects}
    bases = {
        (v, u): hom_modules(loc[v][0].module, loc[u][0].module)
        for v in src.objects
        for u in src.objects
    }
    hom_dims = {pair: len(basis) for pair, basis in bases.items() if basis}
    comp = {}
    for w, v, u in product(src.objects, repeat=3):
        if bases[(v, u)] and bases[(w, v)] and bases[(w, u)]:
            # column gi of by_f[fi]: basis g_gi ∘ basis f_fi in Hom(w, u)
            by_f = [hom_matrix(bases[(v, u)], bases[(w, u)], pre=f) for f in bases[(w, v)]]
            comp[(w, v, u)] = {
                (gi, fi): cell
                for fi, m in enumerate(by_f)
                for gi, cell in enumerate(m.transpose().sp)
            }
    ids = {}
    for u in src.objects:
        cc = coordinates_in_hom_basis(identity_map(loc[u][0].module), bases[(u, u)])
        if cc is None:
            raise InternalInvariantError("identity escapes quotient hom basis")
        ids[u] = cc
    mid = LinearCategory(src.objects, hom_dims, comp, ids)

    s_hom = {}
    for v, u in src.hom_pairs():
        cols = []
        for i in range(src.hom_dim(v, u)):
            m = p.apply(src.basis_morphism(v, u, i))
            lpm = localize_morphism(torsion_prime, m, loc[v][0], loc[u][0])
            cc = coordinates_in_hom_basis(lpm, bases[(v, u)])
            if cc is None:
                raise InternalInvariantError("localized image escapes quotient hom basis")
            cols.append(cc)
        s_hom[(v, u)] = RationalMatrix.from_columns(cols, len(bases[(v, u)]))
    s = LinearFunctor(src, mid, {u: u for u in src.objects}, s_hom)

    values = {u: loc[u][0].module for u in src.objects}
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
