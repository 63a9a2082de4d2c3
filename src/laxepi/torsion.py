"""Hereditary torsion theories presented by idempotent two-sided ideals.

An ideal assigns a subspace of every hom space, closed under composition on
both sides; idempotency (the span of pairwise composites recovers the ideal)
makes the annihilated modules a hereditary torsion class.  `ideal_closure`
takes the ideal that its generators generate from `category.ideal_spans`,
two-sided by construction, and checks that it is idempotent.

Localization takes one of two routes.  When J = AeA, that is, each J(w, u) is
spanned by composites through the objects E whose identities lie in J
(`TorsionData.corner`), Mod(A)/Ker j* ≃ Mod(eAe) and a = j_* j*: `localize`
restricts x to the full subcategory on E and coinduces it back (Geigle and
Lenzing 1991; Psaroudakis 2014).  Any other ideal, such as `corner_T2`'s
e11, whose J = {e11, e12} holds no identity, takes the Gabriel step
(`gabriel_localize`): kill torsion, then apply Hom(J_-, ·) once, on the
bimodule `TorsionData.j` (U ↦ J_U, read off the ideal's bases and the cells);
for the minimal dense J_U that already gives the module of quotients
(Stenström, *Rings of Quotients*, 1975, Ch. IX).  For J = AeA, `is_torsion`
reads x(e) = 0 on E (`q_iso` reads dims off ranks); other ideals take the
action test X·J = 0.  On either route the unit x -> a(x) is built on first
read; at e in E, D(e) is the corner's representable, so that Hom is read by
Yoneda.  The unit of a torsion-free module is injective, so `is_closed`
compares dims of a(x) and x.  The two routes agree entry for entry; the
tests and `laxepi corpus run` compare them.  No map is localized: a closed Z
has Hom(a(y_V), Z) ≅ Z(V), so `functors.canonical_factorization_localized`
reads each map between localized representables at the unit's image of the
identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping, Sequence

from .category import LinearCategory, Morphism, contract, full_subcategory, ideal_spans
from .errors import IdealNotIdempotent, InternalInvariantError, PreconditionError
from .functors import coinduce, coinduce_unit, restrict
from .linalg import ONE, EchelonBasis, RationalMatrix, Scalar, Subspace, kernel_basis, rank
from .modules import (
    Bimodule,
    HomBasis,
    Module,
    ModuleMap,
    Submodule,
    evaluation_matrix,
    fill_action,
    hom_diagram_module,
    hom_modules,
    kernel,
    cokernel,
    map_compose,
    quotient_by,
)

Pair = tuple[str, str]


class TorsionData:
    """An idempotent two-sided ideal, presenting a localizing subcategory.

    One comes from `ideal_closure`, `whole_ideal` or `zero_ideal`: the first
    closes its generators on both sides and checks idempotency, and the other
    two are two-sided and idempotent by construction.
    """

    def __init__(
        self,
        cat: LinearCategory,
        ideal: dict[Pair, Subspace],
        generators: Sequence[Morphism] = (),
    ):
        self.cat = cat
        self.ideal: dict[Pair, Subspace] = {}
        for v, u in [(v, u) for v in cat.objects for u in cat.objects]:
            d = cat.hom_dim(v, u)
            s = ideal.get((v, u), Subspace.zero(d))
            if s.ambient_dim != d:
                raise ValueError(f"ideal component at {(v, u)} has wrong ambient dimension")
            self.ideal[(v, u)] = s
        self.generators = tuple(generators)

    # -- structure ----------------------------------------------------------

    def idempotency_defect(self) -> Pair | None:
        """First hom pair where span{a ∘ a'} differs from the ideal, if any."""
        c = self.cat
        for w in c.objects:
            for u in c.objects:
                span = EchelonBasis(c.hom_dim(w, u))
                for v in c.objects:
                    tab = c.table(w, v, u)
                    for a in self.ideal[(v, u)].basis.sp:
                        for a2 in self.ideal[(w, v)].basis.sp:
                            span.insert(contract(tab, a.items(), a2.items()))
                if span.to_subspace() != self.ideal[(w, u)]:
                    return (w, u)
        return None

    @property
    def is_degenerate(self) -> bool:
        """Zero ideal: every module is annihilated, the quotient category is zero."""
        return all(s.is_zero() for s in self.ideal.values())

    @property
    def is_trivial(self) -> bool:
        """Whole-category ideal: only the zero module is torsion."""
        return all(s.is_full() for s in self.ideal.values())

    @cached_property
    def j(self) -> Bimodule:
        """U ↦ J_U, the minimal dense submodules of the representables, read off
        the ideal's canonical bases: J_U(W) = ideal(W, U), the basis morphism
        b_i: W' -> W acts on J_U by h ↦ h ∘ b_i, and b_i: V -> U acts J_V -> J_U
        by h ↦ b_i ∘ h.  In J_U, only the actions that the category's
        `action_plan` leaves to compute are contracted; identities and
        composites are read off (`fill_action`)."""
        c, ideal = self.cat, self.ideal

        def composites(w, v, u, pairs):
            # coordinates of each g ∘ f: w -> v -> u in ideal(w, u)'s basis, as columns
            tab = c.table(w, v, u)
            cols = [ideal[(w, u)].coordinates_of(contract(tab, g, f)) for g, f in pairs]
            if None in cols:
                raise InternalInvariantError(f"ideal not closed under composition at {(w, u)}")
            return RationalMatrix.from_columns(cols, ideal[(w, u)].dim)

        hs = {vu: [h.items() for h in s.basis.sp] for vu, s in ideal.items()}
        values = {}
        for u in c.objects:
            dims = {w: ideal[(w, u)].dim for w in c.objects}
            values[u] = Module(c, dims, fill_action(c, dims, lambda w2, w, i: composites(
                w2, w, u, [(h, ((i, ONE),)) for h in hs[(w, u)]])))
        action = {
            (v, u, i): ModuleMap(values[v], values[u], {
                w: composites(w, v, u, [(((i, ONE),), h) for h in hs[(w, v)]])
                for w in c.objects if hs[(w, v)]
            })
            for v, u in c.hom_pairs() for i in range(c.hom_dim(v, u))
        }
        return Bimodule(c, c, values, action)

    @cached_property
    def corner(self):
        """The inclusion of the full subcategory on E = {e : id_e in J} when J =
        AeA, that is, each J(w, u) is spanned by the composites w -> e -> u; else None."""
        c = self.cat
        objs = [u for u in c.objects if self.ideal[(u, u)].contains(c.identities[u])]
        for (w, u), s in self.ideal.items():
            span = EchelonBasis(s.ambient_dim)
            if s.dim and not any(span.insert(cell) and span.dim == s.dim
                                 for e in objs for cell in c.table(w, e, u).values()):
                return None
        return full_subcategory(c, objs)


def require_on(t: TorsionData, cat: LinearCategory, where: str) -> None:
    """Refuse torsion data that does not live on cat, named `where`."""
    if not (t.cat is cat or t.cat == cat):
        raise PreconditionError(f"torsion data must live on {where}")


def whole_ideal(c: LinearCategory) -> TorsionData:
    """Trivial torsion theory: ideal = every hom space, torsion class = {0}."""
    return TorsionData(
        c, {(v, u): Subspace.full(c.hom_dim(v, u)) for v in c.objects for u in c.objects}
    )


def zero_ideal(c: LinearCategory) -> TorsionData:
    """Degenerate: every module is torsion and the quotient category is zero."""
    return TorsionData(c, {})


def ideal_closure(c: LinearCategory, generators: Sequence[Morphism]) -> TorsionData:
    """Smallest two-sided ideal containing the generators; errors if not idempotent."""
    t = TorsionData(c, ideal_spans(c, generators), generators=generators)
    bad = t.idempotency_defect()
    if bad is not None:
        raise IdealNotIdempotent(f"ideal is not idempotent: defect at hom pair {bad}")
    return t


# ---------------------------------------------------------------------------
# torsion tests
# ---------------------------------------------------------------------------

def torsion_submodule(t: TorsionData, x: Module) -> Submodule:
    """Largest submodule annihilated by the ideal."""
    c = t.cat
    spaces = {}
    for u in c.objects:
        rows: list[dict[int, Scalar]] = []
        for v in c.objects:
            for a in t.ideal[(v, u)].basis.sp:
                rows.extend(x.act_coords(v, u, a).sp)
        if rows:
            spaces[u] = kernel_basis(RationalMatrix.from_sparse_rows(rows, x.dims[u]))
        else:
            spaces[u] = Subspace.full(x.dims[u])
    return Submodule(x, spaces)


def is_torsion(t: TorsionData, x: Module) -> bool:
    """X·J = 0, by `is_torsion_of` x's dims."""
    return is_torsion_of(t, x.dims, lambda: x)


def is_torsion_of(t: TorsionData, dims: Mapping[str, int], module: Callable[[], Module]) -> bool:
    """Is the module with these dims torsion?  For J = AeA, when x(e) = 0 at each
    e in E: id_e in J acts on x(e) as 1, and J factors through the x(e).  Any
    other ideal builds `module()` for the action test."""
    if (inc := t.corner) is not None:
        return not any(dims[e] for e in inc.source.objects)
    return is_annihilated(t, module())


def is_annihilated(t: TorsionData, x: Module) -> bool:
    """X·J = 0 by the action: every basis element of every ideal component acts by zero."""
    return all(
        x.act_coords(v, u, a).is_zero()
        for (v, u), s in t.ideal.items() if x.dims[v] and x.dims[u]
        for a in s.basis.sp
    )


def is_torsion_free(t: TorsionData, x: Module) -> bool:
    return torsion_submodule(t, x).is_zero()


# ---------------------------------------------------------------------------
# closedness and localization
# ---------------------------------------------------------------------------

def is_closed(t: TorsionData, x: Module) -> bool:
    """Torsion-free, and the unit x -> a(x) of `localize` is an isomorphism.
    Torsion is tested first: it is cheap, and many modules fail there.  Then
    the unit is injective, so it is an iso when a(x) has x's dims: those of
    Hom_E(D(h), x|E) at a corner, of Hom(J_h, x) on the Gabriel step."""
    if not is_torsion_free(t, x):
        return False
    d, y = (t.j, x) if (inc := t.corner) is None else (inc.coinduction_bimodule, restrict(inc, x))
    return all(len(hom_modules(dh, y)) == x.dims[h] for h, dh in d.values.items())


@dataclass
class ClosedModule:
    """A localization: the closed module R(Q(x)) that `localize` returns."""

    module: Module


def _gabriel_step(t: TorsionData, y: Module) -> tuple[Module, ModuleMap]:
    """H(y) = Hom(J_-, y) with its action, and the unit y -> H(y), which
    restricts y(U) = Hom(yoneda(U), y) to Hom(J_U, y), built on first read."""
    h, bases = hom_diagram_module(t.j, y)
    return h, ModuleMap(y, h, lambda: {u: evaluation_matrix(bases[u], {
        w: [y.act_coords(w, u, a) for a in t.ideal[(w, u)].basis.sp] for w in t.cat.objects
    }, y.dims[u]) for u in t.cat.objects})


def localize(t: TorsionData, x: Module) -> tuple[ClosedModule, ModuleMap]:
    """R(Q(x)) and the unit x -> R(Q(x)): for J = AeA, j_* j* x, which restricts x
    to the corner and coinduces it back; otherwise `gabriel_localize`."""
    if (inc := t.corner) is None:
        return gabriel_localize(t, x)
    ctx = coinduce(inc, restrict(inc, x))
    return ClosedModule(ctx.module), coinduce_unit(ctx, x)


def gabriel_localize(t: TorsionData, x: Module) -> tuple[ClosedModule, ModuleMap]:
    """`localize` by one Gabriel step on the torsion-free quotient, for any ideal."""
    y0, proj = quotient_by(torsion_submodule(t, x))
    h, eta = _gabriel_step(t, y0)
    return ClosedModule(h), ModuleMap(x, h, lambda: map_compose(eta, proj).components)


def quotient_hom(t: TorsionData, x: Module, y: Module) -> HomBasis:
    """Basis of Hom in the quotient category: maps between the localizations."""
    lx, _ = localize(t, x)
    ly, _ = localize(t, y)
    return hom_modules(lx.module, ly.module)


def q_iso(t: TorsionData, f: ModuleMap) -> bool:
    """Does f become an isomorphism in the quotient category?  ker f and coker f
    have dims cols - rank and rows - rank; `is_torsion_of` builds them if it must."""
    rk = {u: rank(m) for u, m in f.components.items()}
    ker = {u: m.cols - rk[u] for u, m in f.components.items()}
    coker = {u: m.rows - rk[u] for u, m in f.components.items()}
    return (is_torsion_of(t, ker, lambda: kernel(f)[0])
            and is_torsion_of(t, coker, lambda: cokernel(f)[0]))
