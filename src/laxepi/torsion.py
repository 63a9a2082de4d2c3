"""Hereditary torsion theories presented by idempotent two-sided ideals.

An ideal assigns a subspace of every hom space, closed under composition on
both sides; idempotency (the span of pairwise composites recovers the ideal)
makes the annihilated modules a hereditary torsion class.  Each representable
then contains a minimal "dense" submodule J_U (the ideal's components into U),
and localization is the Gabriel construction: kill torsion, then apply
Hom(J_-, ·) once.  For a torsion-free module and the minimal dense J_U, that
one step already gives the module of quotients (Stenström, *Rings of
Quotients*, 1975, Ch. IX); the result is asserted closed.  The helpers expose
enough structure (units, functoriality on maps) for the quotient category to
be computed as homs between closed modules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .category import LinearCategory, Morphism, compose
from .errors import IdealNotIdempotent, InternalInvariantError
from .linalg import EchelonBasis, RationalMatrix, Subspace, kernel_basis
from .modules import (
    Module,
    ModuleMap,
    Submodule,
    coordinates_in_hom_basis,
    hom_modules,
    kernel,
    cokernel,
    map_compose,
    quotient_by,
    sub_to_module,
    yoneda,
)

Pair = tuple[str, str]


class TorsionData:
    """An idempotent two-sided ideal, presenting a localizing subcategory."""

    def __init__(
        self,
        cat: LinearCategory,
        ideal: dict[Pair, Subspace],
        generators: Sequence[Morphism] = (),
        check: bool = True,
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
        self._j_cache: dict[str, tuple[Module, ModuleMap]] = {}
        self._rho_cache: dict[tuple[str, str, int], ModuleMap] = {}
        if check:
            bad = self._two_sided_defect()
            if bad is not None:
                raise ValueError(f"not a two-sided ideal: fails at hom pair {bad}")
            bad = self.idempotency_defect()
            if bad is not None:
                raise IdealNotIdempotent(
                    f"ideal is not idempotent: defect at hom pair {bad}"
                )

    # -- structure ----------------------------------------------------------

    def _two_sided_defect(self) -> Pair | None:
        c = self.cat
        for (v, u), s in self.ideal.items():
            for a_coords in s.basis_vectors():
                a = Morphism(v, u, a_coords)
                for w in c.objects:
                    for g in c.basis_morphisms(u, w):
                        if not self.ideal[(v, w)].contains(compose(c, g, a).coords):
                            return (v, w)
                    for f in c.basis_morphisms(w, v):
                        if not self.ideal[(w, u)].contains(compose(c, a, f).coords):
                            return (w, u)
        return None

    def idempotency_defect(self) -> Pair | None:
        """First hom pair where span{a ∘ a'} differs from the ideal, if any."""
        c = self.cat
        for w in c.objects:
            for u in c.objects:
                span = EchelonBasis(c.hom_dim(w, u))
                for v in c.objects:
                    for a_coords in self.ideal[(v, u)].basis_vectors():
                        a = Morphism(v, u, a_coords)
                        for a2_coords in self.ideal[(w, v)].basis_vectors():
                            a2 = Morphism(w, v, a2_coords)
                            span.insert(compose(c, a, a2).coords)
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

    def j_module(self, u: str) -> tuple[Module, ModuleMap]:
        """The minimal dense submodule of yoneda(u) as a module with inclusion."""
        if u not in self._j_cache:
            yu = yoneda(self.cat, u)
            sub = Submodule(yu, {v: self.ideal[(v, u)] for v in self.cat.objects})
            self._j_cache[u] = sub_to_module(sub)
        return self._j_cache[u]

    def j_submodule(self, u: str) -> Submodule:
        yu = yoneda(self.cat, u)
        return Submodule(yu, {v: self.ideal[(v, u)] for v in self.cat.objects})

    def rho(self, v: str, u: str, i: int) -> ModuleMap:
        """Postcomposition by the i-th basis morphism of Hom(v, u): J_v -> J_u."""
        key = (v, u, i)
        if key not in self._rho_cache:
            c = self.cat
            b = c.basis_morphism(v, u, i)
            jv, _ = self.j_module(v)
            ju, _ = self.j_module(u)
            comps = {}
            for w in c.objects:
                cols = []
                for h_coords in self.ideal[(w, v)].basis_vectors():
                    img = compose(c, b, Morphism(w, v, h_coords)).coords
                    coords = self.ideal[(w, u)].coordinates_of(img)
                    if coords is None:
                        raise InternalInvariantError("ideal not closed under postcomposition")
                    cols.append(coords)
                comps[w] = RationalMatrix.from_columns(cols, ju.dims[w])
            self._rho_cache[key] = ModuleMap(jv, ju, comps)
        return self._rho_cache[key]


def whole_ideal(c: LinearCategory) -> TorsionData:
    """Trivial torsion theory: ideal = every hom space, torsion class = {0}."""
    return TorsionData(
        c, {(v, u): Subspace.full(c.hom_dim(v, u)) for v in c.objects for u in c.objects},
        check=False,
    )


def zero_ideal(c: LinearCategory) -> TorsionData:
    """Degenerate: every module is torsion and the quotient category is zero."""
    return TorsionData(c, {}, check=False)


def ideal_closure(c: LinearCategory, generators: Sequence[Morphism]) -> TorsionData:
    """Smallest two-sided ideal containing the generators; errors if not idempotent."""
    spans: dict[Pair, EchelonBasis] = {
        (v, u): EchelonBasis(c.hom_dim(v, u)) for v in c.objects for u in c.objects
    }
    pending: list[Morphism] = [
        Morphism(g.source, g.target, tuple(g.coords)) for g in generators
    ]
    while pending:
        m = pending.pop()
        if not spans[(m.source, m.target)].insert(m.coords):
            continue
        for w in c.objects:
            for g in c.basis_morphisms(m.target, w):
                nm = compose(c, g, m)
                if not nm.is_zero():
                    pending.append(nm)
            for f in c.basis_morphisms(w, m.source):
                nm = compose(c, m, f)
                if not nm.is_zero():
                    pending.append(nm)
    ideal = {pair: eb.to_subspace() for pair, eb in spans.items()}
    return TorsionData(c, ideal, generators=generators, check=True)


# ---------------------------------------------------------------------------
# torsion tests
# ---------------------------------------------------------------------------

def torsion_submodule(t: TorsionData, x: Module) -> Submodule:
    """Largest submodule annihilated by the ideal."""
    c = t.cat
    spaces = {}
    for u in c.objects:
        rows: list[dict[int, Fraction]] = []
        for v in c.objects:
            for a_coords in t.ideal[(v, u)].basis_vectors():
                rows.extend(x.act(Morphism(v, u, a_coords)).sp)
        if rows:
            spaces[u] = kernel_basis(RationalMatrix.from_sparse_rows(rows, x.dims[u]))
        else:
            spaces[u] = Subspace.full(x.dims[u])
    return Submodule(x, spaces)


def is_torsion(t: TorsionData, x: Module) -> bool:
    return torsion_submodule(t, x).total_dim() == x.total_dim()


def is_torsion_free(t: TorsionData, x: Module) -> bool:
    return torsion_submodule(t, x).is_zero()


# ---------------------------------------------------------------------------
# closedness and localization
# ---------------------------------------------------------------------------

def _restriction_to_j(t: TorsionData, x: Module, u: str, basis=None):
    """Matrix of X(u) = Hom(yoneda(u), x) -> Hom(J_u, x) in the given hom basis."""
    c = t.cat
    jmod, _ = t.j_module(u)
    if basis is None:
        basis = hom_modules(jmod, x)
    acts = {
        w: [x.act(Morphism(w, u, h)) for h in t.ideal[(w, u)].basis_vectors()]
        for w in c.objects
    }
    cols = []
    for a in range(x.dims[u]):
        comps = {}
        for w in c.objects:
            cc = [m.col(a) for m in acts[w]]
            comps[w] = RationalMatrix.from_columns(cc, x.dims[w])
        alpha = ModuleMap(jmod, x, comps)
        coords = coordinates_in_hom_basis(alpha, basis)
        if coords is None:
            raise InternalInvariantError("restriction map escapes the hom basis")
        cols.append(coords)
    mat = RationalMatrix.from_columns(cols, len(basis))
    return mat, basis


def is_closed(t: TorsionData, x: Module) -> tuple[bool, dict]:
    """Torsion-free and X(U) ≅ Hom(J_U, x) under restriction, for every U."""
    if not is_torsion_free(t, x):
        return False, {"reason": "not torsion-free"}
    from .linalg import is_iso as _is_iso

    cert = {}
    for u in t.cat.objects:
        mat, _ = _restriction_to_j(t, x, u)
        if not _is_iso(mat):
            return False, {"reason": f"restriction to J is not an isomorphism at {u}"}
        cert[u] = mat
    return True, cert


@dataclass
class ClosedModule:
    """A module certified closed, with the per-object restriction isomorphisms."""

    module: Module
    certificate: dict
    # (torsion-free quotient, its projection, hom bases), set by localize for localize_map
    _steps: tuple | None = field(default=None, repr=False, compare=False)


def _gabriel_step(t: TorsionData, y: Module):
    """H(y) = Hom(J_-, y) with its action, the unit y -> H(y), and hom bases."""
    c = t.cat
    bases = {u: hom_modules(t.j_module(u)[0], y) for u in c.objects}
    dims = {u: len(bases[u]) for u in c.objects}
    action = {}
    for v, u in c.hom_pairs():
        for i in range(c.hom_dim(v, u)):
            rho = t.rho(v, u, i)
            cols = []
            for alpha in bases[u]:
                coords = coordinates_in_hom_basis(map_compose(alpha, rho), bases[v])
                if coords is None:
                    raise InternalInvariantError("Gabriel step action escapes hom basis")
                cols.append(coords)
            action[(v, u, i)] = RationalMatrix.from_columns(cols, dims[v])
    h = Module(c, dims, action)
    unit_comps = {}
    for u in c.objects:
        mat, _ = _restriction_to_j(t, y, u, bases[u])
        unit_comps[u] = mat
    unit = ModuleMap(y, h, unit_comps)
    return h, unit, bases


def localize(t: TorsionData, x: Module) -> tuple[ClosedModule, ModuleMap]:
    """R(Q(x)) and the unit x -> R(Q(x)); asserts the result closed."""
    tx = torsion_submodule(t, x)
    y0, proj = quotient_by(tx)
    h, eta, bases = _gabriel_step(t, y0)
    unit = map_compose(eta, proj)
    ok, cert = is_closed(t, h)
    if not ok:
        raise InternalInvariantError(
            f"one Gabriel step on the torsion-free quotient did not close the module: "
            f"{cert.get('reason')}"
        )
    ker_mod, _ = kernel(unit)
    coker_mod, _ = cokernel(unit)
    if not (is_torsion(t, ker_mod) and is_torsion(t, coker_mod)):
        raise InternalInvariantError("localization unit does not have torsion kernel/cokernel")
    return ClosedModule(h, cert, (y0, proj, bases)), unit


def localize_map(
    t: TorsionData,
    f: ModuleMap,
    loc_src: ClosedModule,
    loc_tgt: ClosedModule,
) -> ModuleMap:
    """The induced map localize(source f) -> localize(target f)."""
    c = t.cat
    x0, proj_x, bx = loc_src._steps
    y0, proj_y, by = loc_tgt._steps
    # induced map on the torsion-free quotients
    sec_x = {u: _section_of(proj_x.components[u]) for u in c.objects}
    f0 = ModuleMap(
        x0, y0, {u: proj_y.components[u] * f.components[u] * sec_x[u] for u in c.objects}
    )
    return _h_functor(t, f0, bx, by, loc_src.module, loc_tgt.module)


def _section_of(proj: RationalMatrix) -> RationalMatrix:
    from .linalg import solve_matrix

    sec = solve_matrix(proj, RationalMatrix.identity(proj.rows))
    if sec is None:
        raise InternalInvariantError("projection has no section")
    return sec


def _h_functor(t, g: ModuleMap, src_bases, tgt_bases, h_src: Module, h_tgt: Module) -> ModuleMap:
    """Hom(J_-, g): postcomposition by g in the chosen hom bases."""
    comps = {}
    for u in t.cat.objects:
        cols = []
        for alpha in src_bases[u]:
            coords = coordinates_in_hom_basis(map_compose(g, alpha), tgt_bases[u])
            if coords is None:
                raise InternalInvariantError("H-functor image escapes hom basis")
            cols.append(coords)
        comps[u] = RationalMatrix.from_columns(cols, h_tgt.dims[u])
    return ModuleMap(h_src, h_tgt, comps)


def quotient_hom(t: TorsionData, x: Module, y: Module) -> list[ModuleMap]:
    """Basis of Hom in the quotient category: maps between the localizations."""
    lx, _ = localize(t, x)
    ly, _ = localize(t, y)
    return hom_modules(lx.module, ly.module)


def q_iso(t: TorsionData, f: ModuleMap) -> bool:
    """Does f become an isomorphism in the quotient category?"""
    ker_mod, _ = kernel(f)
    coker_mod, _ = cokernel(f)
    return is_torsion(t, ker_mod) and is_torsion(t, coker_mod)


# ---------------------------------------------------------------------------
# Gabriel filter predicates
# ---------------------------------------------------------------------------

def filter_membership(t: TorsionData, sub: Submodule) -> bool:
    """Is the submodule dense, i.e. is the quotient torsion?"""
    q, _ = quotient_by(sub)
    return is_torsion(t, q)


def preimage_submodule(c: LinearCategory, sub: Submodule, u_mor: Morphism) -> Submodule:
    """(X : u) for X ≤ yoneda(U) and u: V -> U, as a submodule of yoneda(V)."""
    yv = yoneda(c, u_mor.source)
    spaces = {}
    for w in c.objects:
        d = c.hom_dim(w, u_mor.source)
        cols = [compose(c, u_mor, b).coords for b in c.basis_morphisms(w, u_mor.source)]
        m = RationalMatrix.from_columns(cols, c.hom_dim(w, u_mor.target))
        proj, _ = sub.spaces[w].quotient_maps()
        spaces[w] = kernel_basis(proj * m)
    return Submodule(yv, spaces)
