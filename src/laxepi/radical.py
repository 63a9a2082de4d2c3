"""Radical of the category algebra and the simple modules.

The radical is the kernel of the trace form of the regular representation
(valid in characteristic zero), computed blockwise in the Peirce
decomposition by objects.  Simples are the simple summands of the tops
yoneda(U) / yoneda(U)·rad; tops are semisimple and get split by a
deterministic search for proper submodules (cyclic submodules first, then
idempotents of the endomorphism algebra found by factoring minimal
polynomials).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Sequence

from .category import LinearCategory
from .linalg import (
    ONE,
    ZERO,
    EchelonBasis,
    RationalMatrix,
    Scalar,
    Subspace,
    block_diag,
    kernel_basis,
    solve,
)
from .modules import (
    Module,
    ModuleMap,
    Submodule,
    cyclic_submodule,
    hom_modules,
    identity_map,
    kernel,
    map_add,
    map_compose,
    map_scale,
    quotient_by,
    sub_to_module,
    yoneda,
    zero_map,
)


def radical_subspaces(c: LinearCategory) -> dict[tuple[str, str], Subspace]:
    """Radical component inside each hom space, via the trace-form criterion."""
    # trace[u][m]: trace of left multiplication by basis endomorphism m of u on
    # the category algebra, the sum of coordinate k of m ∘ (basis k) over its cells
    trace = {u: [ZERO] * c.hom_dim(u, u) for u in c.objects}
    for (w, v, u), tab in c.cells.items():
        if v == u:
            for (m, k), cell in tab.items():
                trace[u][m] += cell.get(k, ZERO)
    rad: dict[tuple[str, str], Subspace] = {}
    for v, u in product(c.objects, repeat=2):
        d, dy = c.hom_dim(v, u), c.hom_dim(u, v)
        if not (d and dy):
            rad[(v, u)] = Subspace.full(d)  # QQ^0 when d = 0
            continue
        # entry (y, x): the trace form at x ∘ y, for x: v -> u and y: u -> v
        tab = c.table(u, v, u)
        tr = trace[u]
        rows = [
            [sum((a * tr[m] for m, a in tab.get((xi, yi), {}).items()), ZERO) for xi in range(d)]
            for yi in range(dy)
        ]
        rad[(v, u)] = kernel_basis(RationalMatrix(rows, dy, d))
    return rad


def radical_submodule(x: Module, rad: dict[tuple[str, str], Subspace]) -> Submodule:
    """x·rad as a submodule of x."""
    c = x.over
    spaces = {}
    for w in c.objects:
        eb = EchelonBasis(x.dims[w])
        for v in c.objects:
            for r in rad[(w, v)].basis.sp:
                for col in x.act_coords(w, v, r).transpose().sp:
                    eb.insert(col)
        spaces[w] = eb.to_subspace()
    return Submodule(x, spaces)


def _min_poly(f: ModuleMap) -> list[Scalar]:
    """Monic minimal polynomial coefficients [c0, ..., c_{k-1}, 1] of f."""
    d = block_diag([f.components[u] for u in f.source.over.objects])
    n = d.rows
    if n == 0:
        return [ONE]
    powers = [RationalMatrix.identity(n)]
    flat = lambda m: [e for row in m.data for e in row]
    eb_rows: list[list[Scalar]] = []
    while True:
        cand = flat(powers[-1])
        # dependence test: solve for cand in span of previous powers
        if eb_rows:
            coeffs = solve(RationalMatrix.from_columns(eb_rows, n * n), cand)
            if coeffs is not None:
                k = len(eb_rows)
                return [-coeffs[i] for i in range(k)] + [ONE]
        eb_rows.append(cand)
        powers.append(powers[-1] * d)


def _poly_of_map(coeffs: Sequence[Scalar], f: ModuleMap) -> ModuleMap:
    out = zero_map(f.source, f.source)
    power = identity_map(f.source)
    for i, c in enumerate(coeffs):
        if c:
            out = map_add(out, map_scale(c, power))
        if i + 1 < len(coeffs):
            power = map_compose(power, f)
    return out


def _splitting_idempotent(f: ModuleMap) -> ModuleMap | None:
    """An idempotent polynomial in f when its minimal polynomial factors."""
    import sympy

    mu = _min_poly(f)
    if len(mu) <= 1:
        return None
    x = sympy.Symbol("x")
    poly = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(mu)], x)
    factors = poly.factor_list()[1]
    if len(factors) < 2:
        return None
    a = factors[0][0] ** factors[0][1]
    b = sympy.prod([p ** e for p, e in factors[1:]])
    u, v, g = sympy.gcdex(sympy.Poly(a, x), sympy.Poly(b, x))
    if not g.is_one:
        return None
    vb = sympy.Poly(v * b, x)
    coeffs = [Fraction(c.p, c.q) for c in reversed(vb.all_coeffs())]
    e = _poly_of_map(coeffs, f)
    if e.is_zero() or e == identity_map(f.source):
        return None
    return e


def split_semisimple(m: Module) -> list[Module]:
    """Simple summands of a semisimple module (deterministic search)."""
    if m.total_dim() == 0:
        return []
    # cheap route: a proper cyclic submodule splits m into sub and quotient
    for u in m.over.objects:
        for a in range(m.dims[u]):
            v = [ONE if j == a else ZERO for j in range(m.dims[u])]
            sub = cyclic_submodule(m, u, v)
            td = sub.total_dim()
            if 0 < td < m.total_dim():
                inner, _ = sub_to_module(sub)
                quot, _ = quotient_by(sub)
                return split_semisimple(inner) + split_semisimple(quot)
    endos = hom_modules(m, m)
    if len(endos) <= 1:
        return [m]
    idm = identity_map(m)
    candidates = [e for e in endos if e != idm]
    pair_sums = [
        map_add(candidates[i], candidates[j])
        for i in range(len(candidates))
        for j in range(i + 1, len(candidates))
    ]
    pair_mixed = [
        map_add(candidates[i], map_scale(2, candidates[j]))
        for i in range(len(candidates))
        for j in range(len(candidates))
        if i != j
    ]
    for f in candidates + pair_sums + pair_mixed:
        e = _splitting_idempotent(f)
        if e is None:
            continue
        k0, _ = kernel(e)
        k1, _ = kernel(map_add(identity_map(m), map_scale(-1, e)))
        if 0 < k0.total_dim() < m.total_dim():
            return split_semisimple(k0) + split_semisimple(k1)
    return [m]


def radical_and_simples(c: LinearCategory) -> tuple[dict[tuple[str, str], Subspace], list[Module]]:
    """(radical components, pairwise non-isomorphic simple modules)."""
    rad = radical_subspaces(c)
    simples: list[Module] = []
    for u in c.objects:
        yu = yoneda(c, u)
        top, _ = quotient_by(radical_submodule(yu, rad))
        for s in split_semisimple(top):
            if all(not hom_modules(s, t) for t in simples):
                simples.append(s)
    return rad, simples
