"""Right modules over a linear category and the abelian-category toolkit.

A module assigns a finite-dimensional rational vector space to every object
and a matrix to every basis morphism, contravariantly: for f: V -> U the
matrix X(f) maps X(U) to X(V), and X(g∘f) = X(f)·X(g).  Natural
transformations are solved as one global linear system, kernels and cokernels
are computed objectwise, and Ext^1 comes from a single syzygy of the canonical
cover by representables.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import product
from typing import Mapping, Sequence

from .category import LinearCategory, Morphism, combine
from .errors import InternalInvariantError
from .linalg import (
    ONE,
    ZERO,
    EchelonBasis,
    RationalMatrix,
    Scalar,
    Subspace,
    block_diag,
    image_basis,
    kernel_basis,
    nonzeros,
    solve,
    vec,
)

ActionKey = tuple[str, str, int]  # (V, U, basis index of Hom(V, U))


class Module:
    """A right module: spaces X(U) plus action matrices X(b): X(U) -> X(V)."""

    def __init__(
        self,
        over: LinearCategory,
        dims: Mapping[str, int],
        action: Mapping[ActionKey, RationalMatrix],
    ):
        self.over = over
        self.dims = {u: int(dims.get(u, 0)) for u in over.objects}
        self.action: dict[ActionKey, RationalMatrix] = {}
        for v, u in over.hom_pairs():
            for i in range(over.hom_dim(v, u)):
                m = action.get((v, u, i))
                if m is None:
                    m = RationalMatrix.zeros(self.dims[v], self.dims[u])

                if (m.rows, m.cols) != (self.dims[v], self.dims[u]):
                    raise ValueError(f"action matrix shape mismatch at {(v, u, i)}")
                self.action[(v, u, i)] = m

    def dim(self, u: str) -> int:
        return self.dims[u]

    def total_dim(self) -> int:
        return sum(self.dims.values())

    def is_zero(self) -> bool:
        return self.total_dim() == 0

    def act(self, m: Morphism) -> RationalMatrix:
        """Matrix of X(m): X(target) -> X(source), by bilinearity."""
        return self.act_coords(m.source, m.target, dict(nonzeros(m.coords)))

    def act_coords(self, v: str, u: str, coords: Mapping[int, Scalar]) -> RationalMatrix:
        """Matrix of X(m) for the morphism m: v -> u with these nonzero coordinates."""
        if len(coords) == 1:
            ((i, c),) = coords.items()
            if c == 1:  # a basis morphism
                return self.action[(v, u, i)]
        out = RationalMatrix.zeros(self.dims[v], self.dims[u])
        for i, c in coords.items():
            out = out + self.action[(v, u, i)].scale(c)
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Module)
            and (self.over is other.over or self.over == other.over)
            and self.dims == other.dims
            and self.action == other.action
        )

    def __repr__(self):
        return f"Module(dims={self.dims})"


class ModuleMap:
    """A natural transformation between modules over the same category."""

    def __init__(self, source: Module, target: Module, components: Mapping[str, RationalMatrix]):
        if not (source.over is target.over or source.over == target.over):
            raise ValueError("module map endpoints live over different categories")
        self.source = source
        self.target = target
        self.components: dict[str, RationalMatrix] = {}
        for u in source.over.objects:
            m = components.get(u)
            if m is None:
                m = RationalMatrix.zeros(target.dims[u], source.dims[u])
            if (m.rows, m.cols) != (target.dims[u], source.dims[u]):
                raise ValueError(f"component shape mismatch at {u}")
            self.components[u] = m

    def component(self, u: str) -> RationalMatrix:
        return self.components[u]

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self.components.values())

    def is_iso(self) -> bool:
        from .linalg import is_iso as _is_iso

        return all(_is_iso(m) for m in self.components.values())

    def is_epi(self) -> bool:
        return all(image_basis(m).dim == m.rows for m in self.components.values())

    def is_mono(self) -> bool:
        return all(kernel_basis(m).is_zero() for m in self.components.values())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ModuleMap)
            and self.source == other.source
            and self.target == other.target
            and self.components == other.components
        )

    def __repr__(self):
        shapes = {u: (m.rows, m.cols) for u, m in self.components.items()}
        return f"ModuleMap({shapes})"


@dataclass
class Submodule:
    """Per-object subspaces of a module, stable under the action."""

    of: Module
    spaces: dict[str, Subspace]

    def dim(self, u: str) -> int:
        return self.spaces[u].dim

    def total_dim(self) -> int:
        return sum(s.dim for s in self.spaces.values())

    def is_zero(self) -> bool:
        return self.total_dim() == 0

    def is_full(self) -> bool:
        return all(s.is_full() for s in self.spaces.values())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Submodule)
            and self.of == other.of
            and self.spaces == other.spaces
        )


def zero_submodule(x: Module) -> Submodule:
    return Submodule(x, {u: Subspace.zero(x.dims[u]) for u in x.over.objects})


def submodule_sum(a: Submodule, b: Submodule) -> Submodule:
    if a.of is not b.of and a.of != b.of:
        raise ValueError("submodules of different modules")
    return Submodule(a.of, {u: a.spaces[u].sum(b.spaces[u]) for u in a.spaces})


def validate_module(x: Module) -> list[str]:
    """Identity actions and contravariance on all composable basis pairs."""
    c = x.over
    problems = []
    for u in c.objects:
        if x.act(c.identity(u)) != RationalMatrix.identity(x.dims[u]):
            problems.append(f"identity does not act as identity at {u}")
    for w, v, u in product(c.objects, repeat=3):
        tab = c.table(w, v, u)
        for gi in range(c.hom_dim(v, u)):
            for fi in range(c.hom_dim(w, v)):
                gf = x.act_coords(w, u, tab.get((gi, fi), {}))
                if gf != x.action[(w, v, fi)] * x.action[(v, u, gi)]:
                    problems.append(
                        f"contravariance fails at g={c.label_of(v, u, gi)}, "
                        f"f={c.label_of(w, v, fi)}"
                    )
    return problems


def validate_module_map(f: ModuleMap) -> list[str]:
    """Naturality squares on all basis morphisms."""
    c = f.source.over
    problems = []
    for v, u in c.hom_pairs():
        for i in range(c.hom_dim(v, u)):
            lhs = f.target.action[(v, u, i)] * f.components[u]
            rhs = f.components[v] * f.source.action[(v, u, i)]
            if lhs != rhs:
                problems.append(f"naturality fails at {c.label_of(v, u, i)}")
    return problems


def validate_submodule(s: Submodule) -> list[str]:
    """Stability of the subspaces under every basis action."""
    x = s.of
    problems = []
    for v, u in x.over.hom_pairs():
        for i in range(x.over.hom_dim(v, u)):
            m = x.action[(v, u, i)]
            tgt = s.spaces[v]
            for bv in s.spaces[u].basis_vectors():
                if not tgt.contains(m.apply(bv)):
                    problems.append(
                        f"subspace at {u} not stable under {x.over.label_of(v, u, i)}"
                    )
                    break
    return problems


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def zero_module(c: LinearCategory) -> Module:
    return Module(c, {}, {})


def yoneda(c: LinearCategory, u: str) -> Module:
    """The representable Hom(-, u) with precomposition action."""
    if u not in c.objects:
        raise ValueError(f"unknown object {u}")
    dims = {v: c.hom_dim(v, u) for v in c.objects}
    action: dict[ActionKey, RationalMatrix] = {}
    for w, v in c.hom_pairs():
        # entry (k, j) of the action of basis f_i: w -> v is coordinate k of g_j ∘ f_i
        rows = [[{} for _ in range(dims[w])] for _ in range(c.hom_dim(w, v))]
        for (j, i), cell in c.table(w, v, u).items():
            for k, x in cell.items():
                rows[i][k][j] = x
        for i, r in enumerate(rows):
            action[(w, v, i)] = RationalMatrix.from_sparse_rows(r, dims[v])
    return Module(c, dims, action)


def yoneda_map(c: LinearCategory, m: Morphism) -> ModuleMap:
    """Postcomposition by m as a map of representables yoneda(source) -> yoneda(target)."""
    comps = yoneda_components(c, m.source, m.target, dict(nonzeros(m.coords)))
    return ModuleMap(yoneda(c, m.source), yoneda(c, m.target), comps)


def yoneda_components(
    c: LinearCategory, v: str, u: str, g: Mapping[int, Scalar]
) -> dict[str, RationalMatrix]:
    """Postcomposition h ↦ g ∘ h, Hom(w, v) -> Hom(w, u) at every w, for g: v -> u
    given by its nonzero coordinates; column j is the cell of g ∘ (basis j)."""
    out = {}
    for w in c.objects:
        rows: list[dict[int, Scalar]] = [{} for _ in range(c.hom_dim(w, u))]
        for (i, j), cell in c.table(w, v, u).items():
            if a := g.get(i):
                for k, x in cell.items():
                    y = rows[k].get(j)
                    rows[k][j] = a * x if y is None else y + a * x
        out[w] = RationalMatrix.from_sparse_rows(
            [{j: x for j, x in r.items() if x} for r in rows], c.hom_dim(w, v)
        )
    return out


def identity_map(x: Module) -> ModuleMap:
    return ModuleMap(x, x, {u: RationalMatrix.identity(x.dims[u]) for u in x.over.objects})


def zero_map(x: Module, y: Module) -> ModuleMap:
    return ModuleMap(x, y, {})


def map_compose(g: ModuleMap, f: ModuleMap) -> ModuleMap:
    if g.source != f.target:
        raise ValueError("module maps not composable")
    return ModuleMap(
        f.source, g.target, {u: g.components[u] * f.components[u] for u in f.components}
    )


def map_add(f: ModuleMap, g: ModuleMap) -> ModuleMap:
    return ModuleMap(
        f.source, f.target, {u: f.components[u] + g.components[u] for u in f.components}
    )


def map_scale(c, f: ModuleMap) -> ModuleMap:
    return ModuleMap(f.source, f.target, {u: f.components[u].scale(c) for u in f.components})


def flatten_map(f: ModuleMap) -> tuple[Scalar, ...]:
    """All component entries in fixed object order (for rank computations)."""
    out: list[Scalar] = []
    for u in f.source.over.objects:
        for row in f.components[u].data:
            out.extend(row)
    return tuple(out)


def direct_sum(xs: Sequence[Module], over: LinearCategory | None = None):
    """(sum module, inclusion maps, projection maps)."""
    if not xs:
        if over is None:
            raise ValueError("empty direct sum needs an explicit category")
        z = zero_module(over)
        return z, [], []
    c = xs[0].over
    dims = {u: sum(x.dims[u] for x in xs) for u in c.objects}
    action = {}
    for v, u in c.hom_pairs():
        for i in range(c.hom_dim(v, u)):
            action[(v, u, i)] = block_diag([x.action[(v, u, i)] for x in xs])
    total = Module(c, dims, action)
    inclusions, projections = [], []
    for k, x in enumerate(xs):
        incl, proj = {}, {}
        for u in c.objects:
            before = sum(y.dims[u] for y in xs[:k])
            proj[u] = RationalMatrix.from_sparse_rows(
                [{before + r: ONE} for r in range(x.dims[u])], dims[u]
            )
            incl[u] = proj[u].transpose()
        inclusions.append(ModuleMap(x, total, incl))
        projections.append(ModuleMap(total, x, proj))
    return total, inclusions, projections


# ---------------------------------------------------------------------------
# hom spaces
# ---------------------------------------------------------------------------

class HomBasis(list):
    """The basis maps from `hom_modules`, with the space their flattenings span.

    `space` is the span of the flattened maps (`flatten_map` order) as a
    canonical `Subspace`; the maps are its basis rows, in order.  `source`
    and `target` are the modules the maps run between.
    """

    def __init__(self, maps: Sequence[ModuleMap], space: Subspace, source: Module, target: Module):
        super().__init__(maps)
        self.space = space
        self.source = source
        self.target = target


def _offsets(x: Module, y: Module) -> tuple[dict[str, int], int]:
    """Where each object's component starts in a flattened map x -> y, and the length."""
    offsets: dict[str, int] = {}
    n = 0
    for u in x.over.objects:
        offsets[u] = n
        n += y.dims[u] * x.dims[u]
    return offsets, n


def _blocks(flat_rows: Sequence[Mapping[int, Scalar]], x: Module, y: Module):
    """Each flattened map x -> y as {object: {row index: {column: value}}}, nonzeros only."""
    objs = x.over.objects
    offsets, _ = _offsets(x, y)
    starts = [offsets[u] for u in objs]
    for flat in flat_rows:
        blocks: dict[str, dict[int, dict[int, Scalar]]] = {}
        for j, val in flat.items():
            k = bisect_right(starts, j) - 1
            r, cc = divmod(j - starts[k], x.dims[objs[k]])
            blocks.setdefault(objs[k], {}).setdefault(r, {})[cc] = val
        yield blocks


def hom_modules(x: Module, y: Module) -> HomBasis:
    """Basis of the natural transformations x -> y (one global linear system)."""
    if not (x.over is y.over or x.over == y.over):
        raise ValueError("hom between modules over different categories")
    c = x.over
    offsets, n = _offsets(x, y)
    if n == 0:
        return HomBasis([], Subspace.zero(0), x, y)
    rows: list[dict[int, Scalar]] = []
    for v, u in c.hom_pairs():
        base_u, base_v = offsets[u], offsets[v]
        du, dv = x.dims[u], x.dims[v]
        for i in range(c.hom_dim(v, u)):
            ym = y.action[(v, u, i)].sp  # y(U) -> y(V)
            xm_cols = x.action[(v, u, i)].transpose().sp  # x(U) -> x(V), by columns
            # equation (r, cc): sum_s ym[r,s]·a_U[s,cc] - sum_s a_V[r,s]·xm[s,cc] = 0
            for r, ym_r in enumerate(ym):
                for cc, xm_cc in enumerate(xm_cols):
                    row = {base_u + s * du + cc: coef for s, coef in ym_r.items()}
                    for s, coef in xm_cc.items():
                        k = base_v + r * dv + s
                        z = row.get(k)
                        if z is None:
                            row[k] = -coef
                        elif z == coef:  # only when U = V
                            del row[k]
                        else:
                            row[k] = z - coef
                    if row:
                        rows.append(row)
    space = kernel_basis(RationalMatrix.from_sparse_rows(rows, n)) if rows else Subspace.full(n)
    out = []
    for blocks in _blocks(space.basis.sp, x, y):
        comps = {
            u: RationalMatrix.from_sparse_rows([rs.get(r, {}) for r in range(y.dims[u])], x.dims[u])
            for u, rs in blocks.items()
        }
        out.append(ModuleMap(x, y, comps))
    return HomBasis(out, space, x, y)


def _flatten_sparse(f: ModuleMap) -> dict[int, Scalar]:
    """The nonzero entries of `flatten_map(f)`, by position."""
    out: dict[int, Scalar] = {}
    base = 0
    for u in f.source.over.objects:
        m = f.components[u]
        for r, row in enumerate(m.sp):
            off = base + r * m.cols
            for j, val in row.items():
                out[off + j] = val
        base += m.rows * m.cols
    return out


def coordinates_in_hom_basis(f: ModuleMap, basis: HomBasis) -> tuple[Scalar, ...] | None:
    """Coefficients of f in a basis returned by `hom_modules`, or None if f is outside its span.

    The basis is the canonical basis of `basis.space`, so the coefficients
    are read at its pivots without an elimination.
    """
    return basis.space.coordinates_of(_flatten_sparse(f))


def _scatter(terms) -> dict[int, dict[int, Scalar]]:
    """Σ a·row into row i over the (i, a, row) terms; entries that cancel stay as zeros."""
    out: dict[int, dict[int, Scalar]] = {}
    for i, a, row in terms:
        acc = out.setdefault(i, {})
        for j, b in row.items():
            acc[j] = acc.get(j, ZERO) + a * b
    return out


def _composites(src: HomBasis, pre: ModuleMap | None, post: ModuleMap | None):
    """`_flatten_sparse(post ∘ α ∘ pre)` for each basis map α of src, in order.

    Each composite is contracted from α's flattened row, object by object:
    α's entry (r, s) adds its multiple of row s of pre to row r, then each
    row r adds its multiples to the rows of post's column r.
    """
    x, y = src.source, src.target
    x2, y2 = (x if pre is None else pre.source), (y if post is None else post.target)
    post_cols = {u: m.transpose().sp for u, m in post.components.items()} if post else None
    offsets, _ = _offsets(x2, y2)
    for blocks in _blocks(src.space.basis.sp, x, y):
        out: dict[int, Scalar] = {}
        for u, rows in blocks.items():
            if pre is not None:
                m = pre.components[u].sp
                rows = _scatter((r, a, m[s]) for r, row in rows.items() for s, a in row.items())
            if post is not None:
                cols = post_cols[u]
                rows = _scatter((q, a, row) for r, row in rows.items() for q, a in cols[r].items())
            base, width = offsets[u], x2.dims[u]
            for r, row in rows.items():
                out.update((base + r * width + cc, val) for cc, val in row.items() if val)
        yield out


def _coordinate_columns(basis: HomBasis, flat_maps) -> RationalMatrix:
    """The matrix whose columns are the coordinates in `basis` of the flattened maps."""
    cols = []
    for v in flat_maps:
        coords = basis.space.coordinates_of(v)
        if coords is None:
            raise InternalInvariantError("map escapes the hom basis")
        cols.append(coords)
    return RationalMatrix.from_columns(cols, len(basis))


def hom_matrix(
    src: HomBasis, tgt: HomBasis, pre: ModuleMap | None = None, post: ModuleMap | None = None
) -> RationalMatrix:
    """The matrix of α ↦ post ∘ α ∘ pre from the span of src to that of tgt.

    Column k holds the coordinates in tgt of the composite with src[k], each
    checked for membership: one outside tgt's span raises
    InternalInvariantError, so a non-natural pre or post is caught.
    """
    inner = (pre.target if pre else src.source, post.source if post else src.target)
    outer = (pre.source if pre else src.source, post.target if post else src.target)
    wanted = (src.source, src.target, tgt.source, tgt.target)
    if [m.dims for m in inner + outer] != [m.dims for m in wanted]:
        raise ValueError("maps and hom bases do not compose")
    return _coordinate_columns(tgt, _composites(src, pre, post))


def evaluation_matrix(
    basis: HomBasis, acts: Mapping[str, Sequence[RationalMatrix]], n: int
) -> RationalMatrix:
    """Coordinates in `basis` of the maps α_a, a in range(n), whose component
    at w has the columns m·e_a for m in acts[w], in order.

    With acts[w] the actions X(h) for a basis h of D(w) ⊆ Hom(w, u), this is
    the evaluation X(u) -> Hom(D, X), a ↦ (h ↦ X(h)a).
    Each α_a is written as a flattened row straight from the rows of acts.
    """
    offsets, _ = _offsets(basis.source, basis.target)
    rows: list[dict[int, Scalar]] = [{} for _ in range(n)]
    for w, ms in acts.items():
        base, width = offsets[w], basis.source.dims[w]
        for k, m in enumerate(ms):
            for r, mrow in enumerate(m.sp):
                for a, val in mrow.items():
                    rows[a][base + r * width + k] = val
    return _coordinate_columns(basis, rows)


def hom_diagram_module(
    c: LinearCategory,
    values: Mapping[str, Module],
    maps: Mapping[ActionKey, ModuleMap],
    y: Module,
) -> tuple[Module, dict[str, HomBasis]]:
    """G ↦ Hom(values[G], y), acting by precomposition, and its hom bases.

    maps[(G', G, i)] is the diagram's map values[G'] -> values[G] for the
    i-th basis morphism G' -> G, which acts Hom(values[G], y) -> Hom(values[G'], y).
    """
    bases = {g: hom_modules(values[g], y) for g in c.objects}
    action = {}
    for v, u in c.hom_pairs():
        for i in range(c.hom_dim(v, u)):
            action[(v, u, i)] = hom_matrix(bases[u], bases[v], pre=maps[(v, u, i)])
    return Module(c, {g: len(bases[g]) for g in c.objects}, action), bases


# ---------------------------------------------------------------------------
# kernels, cokernels, images, quotients
# ---------------------------------------------------------------------------

def kernel(f: ModuleMap) -> tuple[Module, ModuleMap]:
    """Objectwise kernel with the induced action and its inclusion."""
    x = f.source
    c = x.over
    bases = {u: kernel_basis(f.components[u]) for u in c.objects}
    return _module_from_subspaces(x, bases)


def _module_from_subspaces(x: Module, bases: Mapping[str, Subspace]) -> tuple[Module, ModuleMap]:
    """The submodule on the canonical bases and its inclusion.

    A basis row is the only one nonzero at its pivot, where it is ONE, so the
    coordinates of an image are its rows at the target's pivots. The image
    lies in the subspace exactly when its row at every other coordinate j is
    the combination of those rows by the basis entries at j: the residue that
    `Subspace.contains` tests, for all columns at once.
    """
    c = x.over
    dims = {u: bases[u].dim for u in c.objects}
    incl = {u: bases[u].basis.transpose() for u in c.objects}
    pivots = {u: [min(r) for r in bases[u].basis.sp] for u in c.objects}
    free = {u: sorted(set(range(x.dims[u])) - set(pivots[u])) for u in c.objects}
    action = {}
    for v, u in c.hom_pairs():
        for i in range(c.hom_dim(v, u)):
            img = x.action[(v, u, i)] * incl[u]
            rows = [img.sp[p] for p in pivots[v]]
            for j in free[v]:
                if combine((a, rows[k]) for k, a in incl[v].sp[j].items()) != img.sp[j]:
                    raise ValueError("subspaces are not action-stable")
            action[(v, u, i)] = RationalMatrix.from_sparse_rows(rows, dims[u])
    sub = Module(c, dims, action)
    return sub, ModuleMap(sub, x, incl)


def sub_to_module(s: Submodule) -> tuple[Module, ModuleMap]:
    return _module_from_subspaces(s.of, s.spaces)


def cokernel(f: ModuleMap) -> tuple[Module, ModuleMap]:
    """Objectwise cokernel with the induced action and its projection."""
    return quotient_by(image(f))


def image(f: ModuleMap) -> Submodule:
    return Submodule(
        f.target, {u: image_basis(f.components[u]) for u in f.target.over.objects}
    )


def quotient_by(s: Submodule) -> tuple[Module, ModuleMap]:
    x = s.of
    c = x.over
    maps = {u: s.spaces[u].quotient_maps() for u in c.objects}
    dims = {u: maps[u][0].rows for u in c.objects}
    action = {}
    for v, u in c.hom_pairs():
        for i in range(c.hom_dim(v, u)):
            action[(v, u, i)] = maps[v][0] * x.action[(v, u, i)] * maps[u][1]
    quot = Module(c, dims, action)
    proj = ModuleMap(x, quot, {u: maps[u][0] for u in c.objects})
    return quot, proj


def cyclic_submodule(x: Module, u: str, v: Sequence) -> Submodule:
    """The submodule generated by the element v of X(u)."""
    v = vec(v)
    c = x.over
    spaces = {}
    for w in c.objects:
        eb = EchelonBasis(x.dims[w])
        for i in range(c.hom_dim(w, u)):
            eb.insert(x.action[(w, u, i)].apply(v))
        spaces[w] = eb.to_subspace()
    return Submodule(x, spaces)


# ---------------------------------------------------------------------------
# covers, Ext^1, projectivity
# ---------------------------------------------------------------------------

def free_cover(x: Module) -> tuple[ModuleMap, list[str]]:
    """Canonical epi from a finite sum of representables, one per basis element."""
    c = x.over
    objs = [u for u in c.objects for _ in range(x.dims[u])]
    reps = {u: yoneda(c, u) for u in set(objs)}
    total, _, _ = direct_sum([reps[u] for u in objs], over=c)
    # the summand of e_a in x(u) sends the basis morphism h: v -> u to x(h)·e_a
    cols = {v: [] for v in c.objects}
    for u in c.objects:
        for a in range(x.dims[u]):
            for v in c.objects:
                cols[v] += [x.action[(v, u, j)].col(a) for j in range(c.hom_dim(v, u))]
    comps = {v: RationalMatrix.from_columns(cols[v], x.dims[v]) for v in c.objects}
    return ModuleMap(total, x, comps), objs


def ext1(l: Module, x: Module) -> int:
    """dim Ext^1(l, x) from one syzygy: coker(Hom(P, x) -> Hom(K, x))."""
    cover, _ = free_cover(l)
    return _ext1_from_cover(cover, x)


def _ext1_from_cover(cover: ModuleMap, x: Module) -> int:
    syz, incl = kernel(cover)
    hom_kx = hom_modules(syz, x)
    if not hom_kx:
        return 0
    hom_px = hom_modules(cover.source, x)
    eb = EchelonBasis(sum(syz.dims[u] * x.dims[u] for u in syz.over.objects))
    for row in _composites(hom_px, incl, None):
        eb.insert(row)
    return len(hom_kx) - eb.dim


def is_projective(x: Module) -> tuple[bool, ModuleMap | None]:
    """Does the canonical cover split?  Returns the section when it does."""
    if x.is_zero():
        return True, identity_map(x)
    cover, _ = free_cover(x)
    sections = hom_modules(x, cover.source)
    if not sections:
        return False, None
    cols = [flatten_map(map_compose(cover, s)) for s in sections]
    target = flatten_map(identity_map(x))
    sol = solve(RationalMatrix.from_columns(cols, len(target)), target)
    if sol is None:
        return False, None
    sigma = zero_map(x, cover.source)
    for c, s in zip(sol, sections):
        if c:
            sigma = map_add(sigma, map_scale(c, s))
    return True, sigma


def trace_span(c: LinearCategory, through: Sequence[str], v: str) -> Subspace:
    """Span of all composites v -> g -> v with g drawn from `through`."""
    eb = EchelonBasis(c.hom_dim(v, v))
    for g in through:
        for cell in c.table(v, g, v).values():  # basis b ∘ basis a, the nonzero ones
            eb.insert(cell)
    return eb.to_subspace()


def module_trace(family: Sequence[Module], x: Module) -> Submodule:
    """Sum of the images of all maps from the family members into x."""
    out = zero_submodule(x)
    for a in family:
        for f in hom_modules(a, x):
            out = submodule_sum(out, image(f))
    return out


def tor1(x: Module, b) -> Module:
    """Tor_1(x, b) = ker( K ⊗ b -> P ⊗ b ) for the canonical presentation of x."""
    from .functors import tensor_map

    cover, _ = free_cover(x)
    syz, incl = kernel(cover)
    tincl = tensor_map(incl, b)
    tor, _ = kernel(tincl)
    return tor
