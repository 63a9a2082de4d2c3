"""Right modules over a linear category and the abelian-category toolkit.

A module assigns a finite-dimensional rational vector space to every object
and a matrix to every basis morphism, contravariantly: for f: V -> U the
matrix X(f) maps X(U) to X(V), and X(g∘f) = X(f)·X(g).  Each module has one
`Presentation`, computed on first use: generators taken greedily outside
X·rad, the cover P0 = ⊕_k yoneda(G_k) -> X they give, its kernel K and a
preimage of each basis vector.  Natural transformations X -> Y are read off
it as the values in ⊕_k Y(G_k) that kill K; the free cover, Ext^1, Tor_1,
projectivity and the tensor with a bimodule all use the same cover.  A
`Bimodule` is a diagram of modules; `hom_bimodule(c)` is c(-, -), the
representables under postcomposition, and `hom_diagram_module(b, y)` is
G ↦ Hom(b(G), y).  Kernels and cokernels are computed objectwise.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, product
from typing import Callable, Mapping, Sequence

from .category import LinearCategory, Morphism, combine, postcompose_cells
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
    null_vectors,
    row_space,
    rref,
    solve,
    vec,
)

ActionKey = tuple[str, str, int]  # (V, U, basis index of Hom(V, U))


class _Zeros(dict):
    """Zero matrices by (rows, cols), each built once and shared: matrices are immutable."""

    def __missing__(self, shape: tuple[int, int]) -> RationalMatrix:
        self[shape] = m = RationalMatrix.zeros(*shape)
        return m


def fill_action(c: LinearCategory, dims: Mapping, compute) -> dict[ActionKey, RationalMatrix]:
    """A module's action along `c.action_plan`: an identity acts as the identity,
    a composite g ∘ f = x·b_k as X(f)·X(g)/x, and `compute(v, u, k)` gives the rest."""
    action: dict[ActionKey, RationalMatrix] = {}
    for key, how in c.action_plan.items():
        if how is None:
            action[key] = compute(*key)
        elif how == "id":
            action[key] = RationalMatrix.identity(dims[key[1]])
        else:
            m, x = action[how[0]] * action[how[1]], how[2]
            action[key] = m if x == ONE else m.scale(Fraction(1, x))
    return action


class Module:
    """A right module: spaces X(U) plus action matrices X(b): X(U) -> X(V).

    `free_on` is (G_1, ..., G_m) on the module ⊕_k yoneda(G_k) that `yoneda`
    and `direct_sum` build, which `hom_modules` reads by Yoneda; None elsewhere."""

    def __init__(
        self,
        over: LinearCategory,
        dims: Mapping[str, int],
        action: Mapping[ActionKey, RationalMatrix],
        free_on: tuple[str, ...] | None = None,
    ):
        self.over = over
        self.dims = {u: int(dims.get(u, 0)) for u in over.objects}
        self.free_on = free_on
        self.action: dict[ActionKey, RationalMatrix] = {}
        zeros = _Zeros()
        for v, u in over.hom_pairs():
            for i in range(over.hom_dim(v, u)):
                m = action.get((v, u, i))
                if m is None:
                    m = zeros[(self.dims[v], self.dims[u])]
                if (m.rows, m.cols) != (self.dims[v], self.dims[u]):
                    raise ValueError(f"action matrix shape mismatch at {(v, u, i)}")
                self.action[(v, u, i)] = m

    def total_dim(self) -> int:
        return sum(self.dims.values())

    def is_zero(self) -> bool:
        return self.total_dim() == 0

    @cached_property
    def presentation(self) -> "Presentation":
        """The module's presentation (`present`), computed on first use."""
        return present(self)

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
    """A natural transformation between modules over the same category.

    `components` is a mapping, shape-checked here, or a zero-argument function
    that returns one, called and checked on first read of `.components`."""

    def __init__(self, source: Module, target: Module,
                 components: Mapping[str, RationalMatrix] | Callable[[], Mapping]):
        if not (source.over is target.over or source.over == target.over):
            raise ValueError("module map endpoints live over different categories")
        self.source = source
        self.target = target
        if callable(components):
            self._build = components
        else:  # in the instance dict, so the property below is never consulted
            self.components = self._checked(components)

    @cached_property
    def components(self) -> dict[str, RationalMatrix]:
        comps = self._checked(self._build())  # a function that raises is kept for the next read
        del self._build
        return comps

    def _checked(self, components: Mapping[str, RationalMatrix]) -> dict[str, RationalMatrix]:
        out: dict[str, RationalMatrix] = {}
        zeros = _Zeros()
        for u in self.source.over.objects:
            m = components.get(u)
            if m is None:
                m = zeros[(self.target.dims[u], self.source.dims[u])]
            if (m.rows, m.cols) != (self.target.dims[u], self.source.dims[u]):
                raise ValueError(f"component shape mismatch at {u}")
            out[u] = m
        return out

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self.components.values())

    def is_iso(self) -> bool:
        from .linalg import is_iso as _is_iso

        return all(_is_iso(m) for m in self.components.values())

    def is_epi(self) -> bool:
        return all(image_basis(m).dim == m.rows for m in self.components.values())

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
    return Module(c, dims, action, free_on=(u,))


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


def flatten_map(f: ModuleMap) -> dict[int, Scalar]:
    """The nonzero entries of f by position, components in object order, row-major."""
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
    gens = [x.free_on for x in xs]
    total = Module(c, dims, action, None if None in gens else sum(gens, ()))
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
# bimodules: diagrams of modules
# ---------------------------------------------------------------------------

class Bimodule:
    """A functor from left_cat into modules over right_cat: a module `values[G]` at
    each G, and the map `left_action[(G', G, i)]` of the i-th basis morphism G' -> G."""

    def __init__(
        self,
        left_cat: LinearCategory,
        right_cat: LinearCategory,
        values: Mapping[str, Module],
        left_action: Mapping[ActionKey, ModuleMap],
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
        return self.left_act_coords(m.source, m.target, dict(nonzeros(m.coords)))

    def left_act_coords(self, v: str, u: str, coords: Mapping[int, Scalar]) -> ModuleMap:
        """The map value(v) -> value(u) of the morphism v -> u with these nonzero
        coordinates: a basis morphism's own map, else the basis maps summed row
        by row on first read."""
        if len(coords) == 1:
            ((i, c),) = coords.items()
            if c == 1:
                return self.left_action[(v, u, i)]
        src, tgt = self.values[v], self.values[u]
        maps = [(c, self.left_action[(v, u, i)]) for i, c in coords.items()]
        return ModuleMap(src, tgt, lambda: {h: RationalMatrix.from_sparse_rows(
            [combine((c, m.components[h].sp[r]) for c, m in maps) for r in range(d)], src.dims[h])
            for h, d in tgt.dims.items()})


def hom_bimodule(c: LinearCategory) -> Bimodule:
    """The hom bimodule c(-, -): yoneda(c, G) at each G, where the basis
    morphism i: G' -> G acts yoneda(G') -> yoneda(G) by postcomposition, each
    map built on first read."""
    values = {g: yoneda(c, g) for g in c.objects}
    left = {(g2, g1, i): ModuleMap(values[g2], values[g1], lambda g2=g2, g1=g1, i=i: {
        w: RationalMatrix.from_columns(postcompose_cells(c, w, g2, g1, {i: ONE}), d)
        for w, d in values[g1].dims.items()
    }) for g2, g1 in c.hom_pairs() for i in range(c.hom_dim(g2, g1))}
    return Bimodule(c, c, values, left)


def validate_bimodule(b: Bimodule) -> list[str]:
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


# ---------------------------------------------------------------------------
# hom spaces
# ---------------------------------------------------------------------------

class HomBasis:
    """A basis of the natural transformations source -> target, from `hom_modules`.

    Its length, the dimension, is known from the solve.  `space`, the canonical
    span of the rows `flatten()` returns (`flatten_map` order), and `maps`, its
    basis rows as maps, are built on first use: many callers read less.
    """

    def __init__(self, source: Module, target: Module, dim: int, flatten):
        self.source, self.target, self._dim, self._flatten = source, target, dim, flatten

    @cached_property
    def space(self) -> Subspace:
        n = _offsets(self.source, self.target)[1]
        if not self._dim:  # a zero Hom needs no elimination
            return Subspace.zero(n)
        space = row_space(RationalMatrix.from_sparse_rows(self._flatten(), n))
        if space.dim != self._dim:
            raise InternalInvariantError("hom basis flattenings span the wrong dimension")
        return space

    @cached_property
    def maps(self) -> list[ModuleMap]:
        x, y = self.source, self.target
        return [ModuleMap(x, y, {
            u: RationalMatrix.from_sparse_rows([rs.get(r, {}) for r in range(y.dims[u])], x.dims[u])
            for u, rs in blocks.items()
        }) for blocks in _blocks(self.space.basis.sp, x, y)]

    def __len__(self) -> int:
        return self._dim

    def __iter__(self):
        return iter(self.maps)

    def __getitem__(self, i):
        return self.maps[i]

    def __eq__(self, other) -> bool:
        return list(self) == list(other) if isinstance(other, (HomBasis, list)) else NotImplemented


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
    """Basis of the natural transformations x -> y, read off x's presentation.

    A map α is fixed by its values z_k = α(e_{a_k}) in y(G_k).  Any z in
    ⊕_k y(G_k) gives the map P0 -> y that is E_G(z) at G, sending coordinate
    (k, f) of P0(G) to y(f) z_k; it factors through x exactly when E_G(z)
    kills K(G) at every G, and then α_G = E_G(z)·Pre_G.  The dimension is the
    number of null vectors z; the flattened maps and their span are left to
    the `HomBasis` to build on first use.

    Out of x = ⊕_k yoneda(G_k) (`free_on`), Hom(x, y) ≅ ⊕_k y(G_k) by Yoneda:
    no solve, and the basis vector b of y(G_k) gives f ↦ y(f)b on slot k.
    """
    if not (x.over is y.over or x.over == y.over):
        raise ValueError("hom between modules over different categories")
    c = x.over
    offsets, n = _offsets(x, y)
    if n == 0:
        return HomBasis(x, y, 0, list)
    if (gens := x.free_on) is not None:
        shifts = list(accumulate((y.dims[g] for g in gens), initial=0))
        return HomBasis(x, y, shifts[-1], lambda: _evaluations(x, y, {w: [
            (s, y.action[(w, g, f)]) for g, s in zip(gens, shifts) for f in range(c.hom_dim(w, g))
        ] for w in c.objects}, shifts[-1]))
    pres = x.presentation
    starts = list(accumulate((y.dims[g] for g, _ in pres.generators), initial=0))

    def evaluation(g: str, v: Mapping[int, Scalar]) -> list[dict[int, Scalar]]:
        """Row r of the linear map z ↦ E_g(z)·v, for v in P0(g), at each r in y(g)."""
        rows: list[dict[int, Scalar]] = [{} for _ in range(y.dims[g])]
        for (k, r, s), val in pres.evaluate(g, v, lambda gk, f: y.action[(g, gk, f)]).items():
            rows[r][starts[k] + s] = val
        return rows

    eqs = [row for g in c.objects for kappa in pres.kernels[g] for row in evaluation(g, kappa)]
    reduced, pivots = rref(RationalMatrix.from_sparse_rows(eqs, starts[-1]))
    zs = null_vectors(reduced.sp, pivots, starts[-1])

    def flatten() -> list[dict[int, Scalar]]:
        # column j of z ↦ flatten(α): entry (r, a) of α_g is row r of E_g(z)·Pre_g[a]
        cols: list[dict[int, Scalar]] = [{} for _ in range(starts[-1])]
        for g in c.objects:
            base, width = offsets[g], x.dims[g]
            for a, pre in enumerate(pres.preimages[g]):
                for r, row in enumerate(evaluation(g, pre)):
                    for j, val in row.items():
                        cols[j][base + r * width + a] = val
        return [combine((a, cols[j]) for j, a in z.items()) for z in zs]

    return HomBasis(x, y, len(zs), flatten)


def _scatter(terms) -> dict[int, dict[int, Scalar]]:
    """Σ a·row into row i over the (i, a, row) terms; entries that cancel stay as zeros."""
    out: dict[int, dict[int, Scalar]] = {}
    for i, a, row in terms:
        acc = out.setdefault(i, {})
        for j, b in row.items():
            acc[j] = acc.get(j, ZERO) + a * b
    return out


def _composites(src: HomBasis, pre: ModuleMap | None, post: ModuleMap | None):
    """`flatten_map(post ∘ α ∘ pre)` for each basis map α of src, in order.

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
    """
    acts = {w: [(0, m) for m in ms] for w, ms in acts.items()}
    return _coordinate_columns(basis, _evaluations(basis.source, basis.target, acts, n))


def _evaluations(x: Module, y: Module, acts: Mapping[str, Sequence[tuple[int, RationalMatrix]]],
                 n: int) -> list[dict[int, Scalar]]:
    """The flattened maps α_a: x -> y, a in range(n), where acts[w][k] = (s, m)
    gives column k of α_a at w as m·e_{a-s} (zero off m's columns), each row
    written straight from the rows of m."""
    offsets, _ = _offsets(x, y)
    rows: list[dict[int, Scalar]] = [{} for _ in range(n)]
    for w, ms in acts.items():
        base, width = offsets[w], x.dims[w]
        for k, (s, m) in enumerate(ms):
            for r, mrow in enumerate(m.sp):
                for a, val in mrow.items():
                    rows[s + a][base + r * width + k] = val
    return rows


def hom_diagram_module(b: Bimodule, y: Module) -> tuple[Module, dict[str, HomBasis]]:
    """G ↦ Hom(b.values[G], y), acting by precomposition, and its hom bases.

    The Hom-side twin of the tensor x ⊗ b: the basis morphism i: G' -> G
    acts Hom(b.values[G], y) -> Hom(b.values[G'], y) by b.left_action[(G', G, i)].
    Its actions are `hom_matrix` solves where `action_plan` leaves them to compute.
    """
    c = b.left_cat
    bases = {g: hom_modules(b.values[g], y) for g in c.objects}
    dims = {g: len(bases[g]) for g in c.objects}
    action = fill_action(c, dims, lambda v, u, i: hom_matrix(
        bases[u], bases[v], pre=b.left_action[(v, u, i)]))
    return Module(c, dims, action), bases


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
    """The submodule on the canonical bases and its inclusion."""
    c = x.over
    dims = {u: bases[u].dim for u in c.objects}
    incl = {u: bases[u].basis.transpose() for u in c.objects}
    action = {(v, u, i): subspace_coords(x.action[(v, u, i)] * incl[u], bases[v], incl[v])
              for v, u in c.hom_pairs() for i in range(c.hom_dim(v, u))}
    sub = Module(c, dims, action)
    return sub, ModuleMap(sub, x, incl)


def subspace_coords(img: RationalMatrix, s: Subspace, incl: RationalMatrix) -> RationalMatrix:
    """The coordinates of img's columns in s's canonical basis, whose transpose is incl.

    A basis row is the only one nonzero at its pivot, where it is ONE, so the
    coordinates of a column are its entries at the pivots. The columns lie in s
    exactly when img's row at every other coordinate j is the combination of
    the pivot rows by the basis entries at j: the residue that
    `Subspace.contains` tests, for all columns at once.  Raises ValueError when
    they do not.
    """
    pivots = [min(r) for r in s.basis.sp]
    rows = [img.sp[p] for p in pivots]
    skip = set(pivots)
    for j, r in enumerate(img.sp):
        if j not in skip and combine((a, rows[k]) for k, a in incl.sp[j].items()) != r:
            raise ValueError("subspaces are not action-stable")
    return RationalMatrix.from_sparse_rows(rows, img.cols)


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
    """x / s and its projection; the actions that the category's `action_plan`
    leaves to compute are proj·x(b)·section, the rest are read off (`fill_action`)."""
    x = s.of
    c = x.over
    maps = {u: s.spaces[u].quotient_maps() for u in c.objects}
    dims = {u: maps[u][0].rows for u in c.objects}
    action = fill_action(c, dims, lambda v, u, i: maps[v][0] * x.action[(v, u, i)] * maps[u][1])
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
# the presentation, the radical and tops
# ---------------------------------------------------------------------------

def _radical_spans(x: Module) -> dict[str, EchelonBasis]:
    """(x·rad)(w) = Σ x(r) x(v) over the radical basis r: w -> v, at every w."""
    spans = {w: EchelonBasis(d) for w, d in x.dims.items()}
    for (w, v), rows in x.over.radical.items():
        if x.dims[w] and x.dims[v]:
            for r in rows:
                for col in x.act_coords(w, v, r).transpose().sp:
                    spans[w].insert(col)
    return spans


def radical_submodule(x: Module) -> Submodule:
    """x·rad as a submodule of x."""
    return Submodule(x, {w: eb.to_subspace() for w, eb in _radical_spans(x).items()})


def tops(c: LinearCategory) -> dict[str, Module]:
    """The top yoneda(u) / yoneda(u)·rad of the representable at every object u.

    A top is semisimple, and every simple module is a summand of the top at
    some object where it is nonzero.  So a test that commutes with finite
    direct sums and whose passing class is closed under sums and summands
    holds on every simple exactly when it holds on every top.
    """
    return {u: quotient_by(radical_submodule(yoneda(c, u)))[0] for u in c.objects}


@dataclass(slots=True)
class Presentation:
    """A cover P0 = ⊕_k yoneda(G_k) -> x by generators, and its kernel K.

    The generators (G_k, a_k) are basis vectors e_{a_k} of x(G_k).  At each
    object G, P0(G) = ⊕_k Hom(G, G_k), and slot k starts at coordinate
    `offsets[G][k]`: coordinate offsets[G][k] + f is basis f: G -> G_k of
    slot k, which the cover sends to x(f) e_{a_k}; `offsets[G][-1]` is
    dim P0(G).  `kernels[G]` is a basis of K(G), and `preimages[G][a]` is an
    element of P0(G) over e_a, both given by their nonzero coordinates.
    """

    generators: tuple[tuple[str, int], ...]
    offsets: dict[str, tuple[int, ...]]
    kernels: dict[str, tuple[dict[int, Scalar], ...]]
    preimages: dict[str, tuple[dict[int, Scalar], ...]]

    def evaluate(self, g: str, v: Mapping[int, Scalar], action) -> dict[tuple[int, ...], Scalar]:
        """Σ_p v_p·action(G_k, f) over the coordinates p = (k, f) of v in P0(g),
        summed per generator: the nonzero entries (k, r, s) of slot k's matrix.

        With action(G_k, f) = y(f), slot k is y(G_k) -> y(g) and this is the
        Yoneda evaluation of v; the tensor passes b(f) at an object instead."""
        out: dict[tuple[int, ...], Scalar] = {}
        offsets = self.offsets[g]
        for p, cp in v.items():
            k = bisect_right(offsets, p) - 1
            f = p - offsets[k]
            for r, row in enumerate(action(self.generators[k][0], f).sp):
                for s, val in row.items():
                    key = (k, r, s)
                    out[key] = out.get(key, ZERO) + cp * val
        return {key: val for key, val in out.items() if val}


def present(x: Module) -> Presentation:
    """The presentation of x by greedy generators outside x·rad.

    A basis vector becomes a generator only when it lies outside x·rad plus
    the submodule generated by the earlier generators, whose value at each
    object is spanned by the images x(f) e_{a_k}.  So the generators span
    x modulo x·rad, and by Nakayama they generate x.
    """
    c, dims = x.over, x.dims
    spans = _radical_spans(x)
    gens: list[tuple[str, int]] = []
    images: dict[str, list[dict[int, Scalar]]] = {g: [] for g in c.objects}
    for g in c.objects:
        for a in range(dims[g]):
            if spans[g].contains({a: ONE}):
                continue
            gens.append((g, a))
            for gp in c.objects:
                for i in range(c.hom_dim(gp, g)):
                    img = {r: row[a] for r, row in enumerate(x.action[(gp, g, i)].sp) if a in row}
                    images[gp].append(img)
                    if img and spans[gp].dim < dims[gp]:
                        spans[gp].insert(img)
    offsets = {g: tuple(accumulate((c.hom_dim(g, gk) for gk, _ in gens), initial=0))
               for g in c.objects}
    kernels, preimages = {}, {}
    for g in c.objects:
        kernels[g], preimages[g] = _solve_presentation(images[g], dims[g])
    return Presentation(tuple(gens), offsets, kernels, preimages)


def _solve_presentation(images: Sequence[Mapping[int, Scalar]], n: int):
    """For the map P0(G) -> x(G) with these image columns and n = dim x(G): a
    basis of its kernel and a preimage of each e_a, from one elimination of [M | I]."""
    w = len(images)
    if not n:
        return tuple({q: ONE} for q in range(w)), ()
    rows: list[dict[int, Scalar]] = [{w + r: ONE} for r in range(n)]
    for p, col in enumerate(images):
        for r, y in col.items():
            rows[r][p] = y
    reduced, pivots = rref(RationalMatrix.from_sparse_rows(rows, w + n))
    if len(pivots) != n or (pivots and pivots[-1] >= w):
        raise InternalInvariantError("generators do not generate the module")
    pre: list[dict[int, Scalar]] = [{} for _ in range(n)]
    for row, p in zip(reduced.sp, pivots):
        for j, y in row.items():
            if j >= w:
                pre[j - w][p] = y
    return tuple(null_vectors(reduced.sp, pivots, w)), tuple(pre)


# ---------------------------------------------------------------------------
# covers, Ext^1, Tor_1, projectivity
# ---------------------------------------------------------------------------

def free_cover(x: Module) -> tuple[ModuleMap, list[str]]:
    """The cover ⊕_k yoneda(G_k) -> x of x's presentation, and the objects G_k;
    its components are built on first read."""
    c, gens = x.over, x.presentation.generators
    objs = [g for g, _ in gens]
    reps = {u: yoneda(c, u) for u in set(objs)}
    total, _, _ = direct_sum([reps[u] for u in objs], over=c)
    return ModuleMap(total, x, lambda: {v: RationalMatrix.from_columns(
        [x.action[(v, g, f)].col(a) for g, a in gens for f in range(c.hom_dim(v, g))], x.dims[v])
        for v in c.objects}), objs


def syzygy(x: Module) -> tuple[Module, ModuleMap]:
    """The kernel K of `free_cover(x)` and its inclusion into P0: K(G) is the span
    of the kernel vectors that x's presentation solved for, so the cover's
    components are neither built nor eliminated again."""
    p0 = free_cover(x)[0].source
    return _module_from_subspaces(p0, {g: row_space(RationalMatrix.from_sparse_rows(
        ks, p0.dims[g])) for g, ks in x.presentation.kernels.items()})


def ext1(l: Module, x: Module) -> int:
    """dim Ext^1(l, x) from the exact sequence
    0 -> Hom(l, x) -> Hom(P0, x) -> Hom(K, x) -> Ext^1(l, x) -> 0
    of l's presentation, where Hom(P0, x) = ⊕_k x(G_k)."""
    p0 = sum(x.dims[g] for g, _ in l.presentation.generators)  # dim Hom(P0, x)
    return len(hom_modules(syzygy(l)[0], x)) - p0 + len(hom_modules(l, x))


def is_projective(x: Module) -> tuple[bool, ModuleMap | None]:
    """Does the cover of x's presentation split?  Returns the section when it does.

    With a zero kernel the cover is an iso, whose inverse sends e_a to its
    preimage.  Else a map out of x is fixed by its values at the generators,
    so σ: x -> P0 is a section when the cover sends each σ(e_{a_k}) back to
    e_{a_k}.  A nonzero kernel does not rule this out: the cover need not be
    a projective cover when the category is not basic or an endomorphism ring
    is not local.
    """
    cover, _ = free_cover(x)
    pres = x.presentation
    if not any(pres.kernels.values()):
        return True, ModuleMap(x, cover.source, {g: RationalMatrix.from_columns(
            pres.preimages[g], cover.source.dims[g]) for g in x.over.objects})
    sections, gens = hom_modules(x, cover.source), pres.generators
    cols = [
        [y for g, a in gens for y in cover.components[g].apply(s.components[g].col(a))]
        for s in sections
    ]
    sol = solve(RationalMatrix.from_columns(cols, sum(x.dims[g] for g, _ in gens)),
                [int(r == a) for g, a in gens for r in range(x.dims[g])])
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


def tor1(x: Module, b: Bimodule) -> Module:
    """Tor_1(x, b) = ker( K ⊗ b -> P0 ⊗ b ) for the cover of x's presentation."""
    from .functors import tensor_bimodule, tensor_map

    syz, incl = syzygy(x)
    return kernel(tensor_map(incl, tensor_bimodule(syz, b), tensor_bimodule(incl.target, b)))[0]


def tor1_dims(x: Module, b: Bimodule) -> dict[str, int]:
    """dim Tor_1(x, b) at each object, with no tensor module built.  In the
    exact K ⊗ b -> P0 ⊗ b -> x ⊗ b -> 0, the first map's rank at h is the
    number of relations of x's tensor, dim (P0 ⊗ b)(h) - dim (x ⊗ b)(h)."""
    from .functors import tensor_bimodule

    syz, _ = syzygy(x)
    ks, xs = tensor_bimodule(syz, b), tensor_bimodule(x, b)
    return {h: len(ks.free[h]) - xs.offsets[h][-1] + len(xs.free[h]) for h in b.right_cat.objects}
