"""Radical of the category algebra and the tops of the representables.

The radical is the kernel of the trace form of the regular representation
(valid in characteristic zero), computed blockwise in the Peirce
decomposition by objects.  The top yoneda(U) / yoneda(U)·rad is semisimple,
and every simple module is a summand of the top at some object where it is
nonzero.  So a test that commutes with finite direct sums and whose passing
class is closed under sums and summands holds on every simple exactly when
it holds on every top; the simples themselves are never split out.
"""

from __future__ import annotations

from itertools import product

from .category import LinearCategory
from .linalg import ZERO, EchelonBasis, RationalMatrix, Subspace, kernel_basis
from .modules import Module, Submodule, quotient_by, yoneda


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


def tops(c: LinearCategory) -> dict[str, Module]:
    """The top yoneda(u) / yoneda(u)·rad of the representable at every object u."""
    rad = radical_subspaces(c)
    return {u: quotient_by(radical_submodule(yoneda(c, u), rad))[0] for u in c.objects}
