"""Finite k-linear categories presented by structure constants.

A category here is a "ring with several objects": finitely many objects,
finite-dimensional hom spaces with chosen bases, a composition tensor giving
g∘f on basis pairs, and identity coordinates.  `ideal_spans` closes a set of
morphisms to the two-sided ideal they generate; it is the one closure, which
torsion ideals use too.  A quiver with relations (`from_quiver`) is its
truncated path category modulo the ideal that the relations generate.

The composition tensor is stored sparse, as `cells`: for each triple
(W, V, U) a table mapping a basis pair (g: V -> U, f: W -> V), by index, to
the cell `{k: value}` of the nonzero coordinates of g∘f in Hom(W, U).  Only
nonzero cells are stored and a table without one is not stored, so equal
categories have equal cells; within one category, equal cells and equal
tables are stored once.  Composites of basis morphisms, and of morphisms
given by their nonzero coordinates, are contracted straight from the cells
(`contract`, `postcompose_cells`, `precompose_cells`); serialization reads
them densely through `comp_coords`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Iterable, Mapping, Sequence

from .linalg import ONE, ZERO, EchelonBasis, RationalMatrix, Scalar, Subspace, frac, nonzeros
from .linalg import null_vectors, rref, vec, zero_vec

Pair = tuple[str, str]
Triple = tuple[str, str, str]
Cell = dict[int, Scalar]  # nonzero coordinates of one composite
Table = Mapping[tuple[int, int], Cell]  # (g index, f index) -> nonzero cell of g∘f


@dataclass(frozen=True)
class Morphism:
    """A morphism as coordinates in the chosen basis of Hom(source, target)."""

    source: str
    target: str
    coords: tuple[Scalar, ...]

    def is_zero(self) -> bool:
        return not any(self.coords)


def _table_cells(table, dg: int, df: int, dr: int, where: Triple, seen: dict) -> dict:
    """The nonzero cells of a table, given dense ([g][f] -> coordinates) or as
    (g index, f index) -> {k: value}; a cell equal to one in `seen` is reused."""
    if isinstance(table, Mapping):
        items = table.items()
    else:
        rows = [list(row) for row in table]
        if len(rows) != dg or any(len(row) != df for row in rows):
            raise ValueError(f"composition table shape mismatch at {where}")
        items = (((gi, fi), cell) for gi, row in enumerate(rows) for fi, cell in enumerate(row))
    out = {}
    for (gi, fi), cell in items:
        if not (0 <= gi < dg and 0 <= fi < df):
            raise ValueError(f"composition table shape mismatch at {where}")
        if isinstance(cell, Mapping):
            nz = {k: frac(x) for k, x in cell.items() if x}
            fits = all(0 <= k < dr for k in nz)
        else:
            cv = vec(cell)
            nz, fits = dict(nonzeros(cv)), len(cv) == dr
        if not fits:
            raise ValueError(f"composition value length mismatch at {where}")
        if nz:
            out[(gi, fi)] = seen.setdefault(tuple(nz.items()), nz)
    return out


class LinearCategory:
    """Objects, hom dimensions, composition structure constants, identities.

    Each table of `comp` is given dense, as [g][f] -> coordinates of g∘f, or
    sparse, as (g index, f index) -> {k: value}; it is stored as cells.
    """

    def __init__(
        self,
        objects: Sequence[str],
        hom_dims: Mapping[Pair, int],
        comp: Mapping[Triple, Sequence[Sequence[Sequence]] | Table],
        identities: Mapping[str, Sequence],
        basis_labels: Mapping[Pair, Sequence[str]] | None = None,
    ):
        self.objects = tuple(objects)
        if len(set(self.objects)) != len(self.objects):
            raise ValueError("duplicate object identifiers")
        self._hom = {k: int(v) for k, v in hom_dims.items() if v}
        self._hom_pairs = tuple(p for p in product(self.objects, repeat=2) if p in self._hom)
        # the one stored form of the composition tensor (see the module docstring)
        self.cells: dict[Triple, dict[tuple[int, int], Cell]] = {}
        seen_cells, seen_tables = {}, {}  # equal cells and tables are stored once
        for (w, v, u), table in comp.items():
            dg, df, dr = self.hom_dim(v, u), self.hom_dim(w, v), self.hom_dim(w, u)
            if dg == 0 or df == 0:
                continue
            cells = _table_cells(table, dg, df, dr, (w, v, u), seen_cells)
            if cells:
                key = tuple((gf, id(cell)) for gf, cell in cells.items())
                self.cells[(w, v, u)] = seen_tables.setdefault(key, cells)
        self.identities = {u: vec(c) for u, c in identities.items()}
        for u in self.objects:
            if u not in self.identities or len(self.identities[u]) != self.hom_dim(u, u):
                raise ValueError(f"missing or mis-sized identity coordinates at {u}")
        self.basis_labels: dict[Pair, tuple[str, ...]] = {}
        for (v, u), d in self._hom.items():
            labels = None if basis_labels is None else basis_labels.get((v, u))
            if labels is None:
                labels = tuple(f"{v}->{u}#{i}" for i in range(d))
            else:
                labels = tuple(labels)
                if len(labels) != d:
                    raise ValueError(f"label count mismatch at {(v, u)}")
            self.basis_labels[(v, u)] = labels

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return (
            isinstance(other, LinearCategory)
            and self.objects == other.objects
            and self._hom == other._hom
            and self.cells == other.cells
            and self.identities == other.identities
        )

    __hash__ = None  # mutable enough; never used as a dict key

    def hom_dim(self, v: str, u: str) -> int:
        return self._hom.get((v, u), 0)

    def hom_pairs(self) -> tuple[Pair, ...]:
        """All (V, U) with Hom(V, U) nonzero, in object-list order."""
        return self._hom_pairs

    def total_dim(self) -> int:
        return sum(self._hom.values())

    def basis_morphism(self, v: str, u: str, i: int) -> Morphism:
        d = self.hom_dim(v, u)
        if not 0 <= i < d:
            raise ValueError(f"basis index {i} out of range for Hom({v},{u})")
        return Morphism(v, u, tuple(ONE if j == i else ZERO for j in range(d)))

    def identity(self, u: str) -> Morphism:
        return Morphism(u, u, self.identities[u])

    def table(self, w: str, v: str, u: str) -> Table:
        """The nonzero cells of basis g ∘ basis f, for g: v -> u and f: w -> v."""
        return self.cells.get((w, v, u), {})

    def comp_coords(self, w: str, v: str, u: str, gi: int, fi: int) -> tuple[Scalar, ...]:
        """Coordinates of basis_g ∘ basis_f in Hom(w, u), dense."""
        cell = self.table(w, v, u).get((gi, fi), {})
        return tuple(cell.get(k, ZERO) for k in range(self.hom_dim(w, u)))

    def label_of(self, v: str, u: str, i: int) -> str:
        return self.basis_labels[(v, u)][i]

    @cached_property
    def radical(self) -> dict[Pair, list[Cell]]:
        """A basis of the radical of the category algebra in each hom space where
        it is nonzero, computed on first use, once the cells are complete.

        It is the kernel of the trace form of the regular representation (valid
        in characteristic zero), computed blockwise in the Peirce decomposition
        by objects.
        """
        # trace[u][m]: trace of left multiplication by basis endomorphism m of u on
        # the category algebra, the sum of coordinate k of m ∘ (basis k) over its cells
        trace = {u: [ZERO] * self.hom_dim(u, u) for u in self.objects}
        for (w, v, u), tab in self.cells.items():
            if v == u:
                for (m, k), cell in tab.items():
                    trace[u][m] += cell.get(k, ZERO)
        rad = {}
        for v, u in self.hom_pairs():
            # row y, entry x: the trace form at x ∘ y, for basis x: v -> u and y: u -> v
            rows: list[Cell] = [{} for _ in range(self.hom_dim(u, v))]
            for (xi, yi), cell in self.table(u, v, u).items():
                if t := frac(sum((a * trace[u][m] for m, a in cell.items()), ZERO)):
                    rows[yi][xi] = t
            reduced, pivots = rref(RationalMatrix.from_sparse_rows(rows, self.hom_dim(v, u)))
            if basis := null_vectors(reduced.sp, pivots, self.hom_dim(v, u)):
                rad[(v, u)] = basis
        return rad

    @cached_property
    def action_plan(self) -> dict[tuple[str, str, int], tuple | str | None]:
        """How a module acts at each basis morphism (V, U, k), after those it is read
        from; built on first use, once the cells are complete.  "id": id_U is basis
        vector k.  (f, g, x): the cell of g ∘ f is {k: x} for earlier non-identity
        basis morphisms f, g.  None: computed, as is a cycle (b = b ∘ e, e a non-unit
        idempotent).  It assumes the category laws, which `validate_category` checks."""
        plan: dict[tuple[str, str, int], tuple | str | None] = {}
        for u in self.objects:
            if len(nz := nonzeros(self.identities[u])) == 1 and nz[0][1] == ONE:
                plan[(u, u, nz[0][0])] = "id"
        splits: dict[tuple[str, str, int], list] = {}  # single-term composites of non-identities
        for (w, v, u), tab in self.cells.items():
            for (gi, fi), cell in tab.items():
                if len(cell) == 1 and (w, v, fi) not in plan and (v, u, gi) not in plan:
                    ((k, x),) = cell.items()
                    splits.setdefault((w, u, k), []).append(((w, v, fi), (v, u, gi), x))
        pending = [(v, u, k) for v, u in self._hom_pairs for k in range(self._hom[(v, u)])]
        while pending := [key for key in pending if key not in plan]:
            placed = len(plan)
            for key in pending:  # a composite waits until a split's factors are placed
                ready = [s for s in splits.get(key, ()) if s[0] in plan and s[1] in plan]
                if ready or key not in splits:
                    plan[key] = ready[0] if ready else None
            if len(plan) == placed:  # every pending key waits on a cycle: compute the first
                plan[pending[0]] = None
        return plan


def contract(
    tab: Table, g: Iterable[tuple[int, Scalar]], f: Iterable[tuple[int, Scalar]]
) -> Cell:
    """The cell of g∘f: Σ a·b·tab[(i, j)] over the (i, a) of g and the (j, b) of f,
    both given as nonzero coordinates; entries that cancel are dropped."""
    f = list(f)
    return combine((a * b, cell) for i, a in g for j, b in f if (cell := tab.get((i, j))))


def combine(terms: Iterable[tuple[Scalar, Cell]]) -> Cell:
    """Σ a·cell over the (a, cell) in terms, without zero entries."""
    acc: Cell = {}
    for a, cell in terms:
        for k, x in cell.items():
            y, z = (x if a is ONE else a * x), acc.get(k)
            acc[k] = y if z is None else z + y
    return {k: x for k, x in acc.items() if x}


def postcompose_cells(
    c: LinearCategory, w: str, v: str, u: str, g: Mapping[int, Scalar]
) -> list[Cell]:
    """The cells of g ∘ f_j for each basis morphism f_j: w -> v, in order, for
    g: v -> u given by its nonzero coordinates."""
    return _gather(c.table(w, v, u), g, 0, c.hom_dim(w, v))


def precompose_cells(
    c: LinearCategory, w: str, v: str, u: str, f: Mapping[int, Scalar]
) -> list[Cell]:
    """The cells of g_i ∘ f for each basis morphism g_i: v -> u, in order, for
    f: w -> v given by its nonzero coordinates."""
    return _gather(c.table(w, v, u), f, 1, c.hom_dim(v, u))


def _gather(tab: Table, coeffs: Mapping[int, Scalar], side: int, n: int) -> list[Cell]:
    """Σ coeffs[key[side]]·tab[key] into cell key[1 - side] of n, in one walk
    over the table's cells."""
    acc: list[Cell] = [{} for _ in range(n)]
    for key, cell in tab.items():
        if (a := coeffs.get(key[side])) is not None:
            out = acc[key[1 - side]]
            for k, x in cell.items():
                y = x if a is ONE else a * x
                out[k] = out[k] + y if k in out else y
    # with one nonzero coefficient no entry cancels
    return acc if len(coeffs) == 1 else [{k: x for k, x in cell.items() if x} for cell in acc]


def compose(c: LinearCategory, g: Morphism, f: Morphism) -> Morphism:
    """Bilinear extension of the structure tensor: g ∘ f."""
    if f.target != g.source:
        raise ValueError(f"morphisms not composable: {f.target} != {g.source}")
    w, v, u = f.source, f.target, g.target
    out = list(zero_vec(c.hom_dim(w, u)))
    for k, x in contract(c.table(w, v, u), nonzeros(g.coords), nonzeros(f.coords)).items():
        out[k] = x
    return Morphism(w, u, tuple(out))


def validate_category(c: LinearCategory) -> list[str]:
    """All violated identity laws and associativity triples; empty iff valid.

    Composites are contracted straight from the cells: (h∘g)∘f and h∘(g∘f)
    are compared as cells, with entries that cancel dropped.
    """
    problems: list[str] = []
    for u in c.objects:
        idu = nonzeros(c.identities[u])
        for v in c.objects:
            tab = c.table(v, u, u)  # id_u ∘ f for f: v -> u
            for fi in range(c.hom_dim(v, u)):
                if combine((a, tab.get((gi, fi), {})) for gi, a in idu) != {fi: ONE}:
                    problems.append(f"id_{u} ∘ {c.label_of(v, u, fi)} != itself")
            tab = c.table(u, u, v)  # g ∘ id_u for g: u -> v
            for gi in range(c.hom_dim(u, v)):
                if combine((a, tab.get((gi, fi), {})) for fi, a in idu) != {gi: ONE}:
                    problems.append(f"{c.label_of(u, v, gi)} ∘ id_{u} != itself")
    # composable triples x -> w -> v -> u, in object-list order
    succ = {w: [v for v in c.objects if c.hom_dim(w, v)] for w in c.objects}
    quads = ((x, w, v, u) for x in c.objects for w in succ[x] for v in succ[w] for u in succ[v])
    for x, w, v, u in quads:
        hg_tab, gf_tab = c.table(w, v, u), c.table(x, w, v)
        left, right = c.table(x, w, u), c.table(x, v, u)
        for hi, gi in product(range(c.hom_dim(v, u)), range(c.hom_dim(w, v))):
            hg = hg_tab.get((hi, gi), {}).items()
            for fi in range(c.hom_dim(x, w)):
                gf = gf_tab.get((gi, fi), {}).items()
                # (h∘g)∘f against h∘(g∘f); both are zero when hg and gf are
                if (hg or gf) and combine((a, left.get((k, fi), {})) for k, a in hg) != combine(
                    (b, right.get((hi, k), {})) for k, b in gf
                ):
                    problems.append(
                        f"associativity fails at "
                        f"({c.label_of(v, u, hi)}, {c.label_of(w, v, gi)}, {c.label_of(x, w, fi)})"
                    )
    return problems


def opposite(c: LinearCategory) -> LinearCategory:
    """Reverse all morphisms; comp tensor transposed in its two morphism slots."""
    hom = {(u, v): d for (v, u), d in c._hom.items()}
    labels = {(u, v): c.basis_labels[(v, u)] for (v, u) in c._hom}
    # op-composition g' ∘op f' (g': V->U, f': W->V in op) is f ∘ g in c
    comp = {
        (u, v, w): {(fi, gi): cell for (gi, fi), cell in tab.items()}
        for (w, v, u), tab in c.cells.items()
    }
    op = LinearCategory(c.objects, hom, comp, dict(c.identities), labels)
    op.radical = {(u, v): rows for (v, u), rows in c.radical.items()}  # rad(A^op) = rad(A)
    return op


def full_image(c: LinearCategory, object_map: Mapping[str, str]):
    """The inclusion functor of the full image of object_map: its source has
    object_map's keys as objects, in their order, and c's homs between their
    images, with c's bases, labels, identities and cell tables."""
    from .functors import LinearFunctor

    objs = list(object_map)
    images = {(v, u): (object_map[v], object_map[u]) for v, u in product(objs, repeat=2)}
    pairs = [p for p, im in images.items() if c.hom_dim(*im)]
    sub = LinearCategory(objs, {p: c.hom_dim(*images[p]) for p in pairs}, {},
                         {u: c.identities[object_map[u]] for u in objs},
                         {p: c.basis_labels[images[p]] for p in pairs})
    for w, v, u in product(objs, repeat=3):  # the homs are c's: share its tables
        if tab := c.table(object_map[w], object_map[v], object_map[u]):
            sub.cells[(w, v, u)] = tab
    return LinearFunctor(sub, c, object_map,
                         {p: RationalMatrix.identity(c.hom_dim(*images[p])) for p in pairs})


def full_subcategory(c: LinearCategory, objs: Iterable[str]):
    """The inclusion functor of the full subcategory on objs, in c's object order."""
    objs = set(objs)
    return full_image(c, {u: u for u in c.objects if u in objs})


def from_algebra(
    mult: Sequence[Sequence[Sequence]],
    unit: Sequence,
    labels: Sequence[str] | None = None,
    object_name: str = "*",
) -> LinearCategory:
    """One-object category from algebra structure constants: e_i e_j = Σ mult[i][j][k] e_k."""
    n = len(mult)
    comp = {(object_name, object_name, object_name): mult}
    return LinearCategory(
        [object_name],
        {(object_name, object_name): n},
        comp,
        {object_name: unit},
        {(object_name, object_name): labels} if labels else None,
    )


def ideal_spans(c: LinearCategory, generators: Iterable[Morphism]) -> dict[Pair, Subspace]:
    """The smallest two-sided ideal of c that contains the generators, as one
    subspace of every hom space (Mitchell, "Rings with several objects", 1972)."""
    spans = {(v, u): EchelonBasis(c.hom_dim(v, u)) for v in c.objects for u in c.objects}
    # (source, target, nonzero coordinates) of the morphisms still to add
    pending = [(g.source, g.target, dict(nonzeros(g.coords))) for g in generators]
    while pending:
        v, u, m = pending.pop()
        if not spans[(v, u)].insert(m):
            continue
        for w in c.objects:
            # g ∘ m for each basis g: u -> w, then m ∘ f for each basis f: w -> v
            pending += [(v, w, nm) for nm in precompose_cells(c, v, u, w, m) if nm]
            pending += [(w, u, nm) for nm in postcompose_cells(c, w, v, u, m) if nm]
    return {pair: eb.to_subspace() for pair, eb in spans.items()}


def from_quiver(
    vertices: Sequence[str],
    arrows: Sequence[tuple[str, str, str]],
    relations: Sequence[Sequence[tuple, ]] = (),
    nilpotency: int = 2,
) -> LinearCategory:
    """The path category of a quiver, truncated at paths of length >= nilpotency,
    modulo the two-sided ideal that the relations generate (`ideal_spans`).

    arrows: (name, source, target).  A relation is a list of (coeff, path)
    where each path is a tuple of arrow names composed left-to-right
    (path (a, b) means b∘a) and all paths in one relation are parallel.
    Each basis vector is one path, listed in `basis_paths`; `quiver_arrows`
    holds the morphism of each arrow and `arrow_endpoints` its (source, target).
    """
    if nilpotency < 1:
        raise ValueError("nilpotency bound must be at least 1")
    endpoints: dict[str, tuple[str, str]] = {}
    for name, s, t in arrows:
        if name in endpoints:
            raise ValueError(f"duplicate arrow name {name}")
        if s not in vertices or t not in vertices:
            raise ValueError(f"arrow {name} uses unknown vertex")
        endpoints[name] = (s, t)

    # the paths of length < nilpotency by length, each extended by the arrows in order
    paths = frontier = [(v, v, ()) for v in vertices]
    for _ in range(nilpotency - 1):
        frontier = [
            (s, t, p + (a,)) for s, m, p in frontier for a, (n, t) in endpoints.items() if n == m
        ]
        if not frontier:
            break
        paths = paths + frontier
    by_pair: dict[Pair, list[tuple[str, ...]]] = {}
    index: dict[tuple, int] = {}  # (source, target, arrows) -> its index in by_pair
    for s, t, p in paths:
        index[(s, t, p)] = len(by_pair.setdefault((s, t), []))
        by_pair[(s, t)].append(p)

    def build(basis: dict[Pair, list], cols: dict[Pair, list[Cell]]) -> LinearCategory:
        """The category with these paths as bases, where cols[pair][k] is the cell
        of the path with index k; the cell of g ∘ f is that of the path f + g."""
        comp = {
            (w, v, u): {
                (gi, fi): cols[(w, u)][index[(w, u, f + g)]]
                for (gi, g), (fi, f) in product(enumerate(gs), enumerate(fs))
                if len(f) + len(g) < nilpotency
            }
            for ((w, v), fs), ((v2, u), gs) in product(basis.items(), repeat=2) if v2 == v
        }
        identities = {}
        for v in vertices:
            if not (cell := cols[(v, v)][0]):  # the trivial path comes first
                raise ValueError(f"relations collapse the identity at vertex {v}")
            identities[v] = [cell.get(i, ZERO) for i in range(len(basis[(v, v)]))]
        dims = {pair: len(ps) for pair, ps in basis.items()}
        labels = {
            (s, t): ["*".join(p) if p else "e_" + s for p in ps] for (s, t), ps in basis.items()
        }
        return LinearCategory(vertices, dims, comp, identities, labels)

    # the truncated path category, then its quotient by the relations' ideal
    basis = by_pair
    cols = {pair: [{k: ONE} for k in range(len(ps))] for pair, ps in by_pair.items()}
    cat = build(basis, cols)
    generators = []
    for rel in relations:
        if not (combos := list(rel)):
            continue
        if not (first := combos[0][1]):
            raise ValueError("relation paths must have positive length")
        if first[0] not in endpoints or first[-1] not in endpoints:
            raise ValueError(f"unknown or non-parallel path {first}")
        pair = (endpoints[first[0]][0], endpoints[first[-1]][1])
        coords = [ZERO] * cat.hom_dim(*pair)
        for coeff, seq in combos:
            if (k := index.get((*pair, tuple(seq)))) is None:
                raise ValueError(f"unknown or non-parallel path {seq} for {pair}")
            coords[k] += frac(coeff)
        generators.append(Morphism(*pair, tuple(coords)))
    if generators:
        # coordinates off the pivots of each span; the section's columns are unit
        # vectors at those coordinates, so each basis vector is one path
        ideal, basis, cols = ideal_spans(cat, generators), {}, {}
        for pair, ps in by_pair.items():
            proj, sec = ideal[pair].quotient_maps()
            cols[pair] = proj.transpose().sp
            basis[pair] = [ps[min(col)] for col in sec.transpose().sp]
        cat = build(basis, cols)

    cat.quiver_arrows = {}  # type: ignore[attr-defined]
    for name, (s, t) in endpoints.items():
        k = index.get((s, t, (name,)))  # None when nilpotency is 1: the arrow is zero
        cell = {} if k is None else cols[(s, t)][k]
        coords = tuple(cell.get(i, ZERO) for i in range(cat.hom_dim(s, t)))
        cat.quiver_arrows[name] = Morphism(s, t, coords)  # type: ignore[attr-defined]
    cat.arrow_endpoints = endpoints  # type: ignore[attr-defined]
    cat.basis_paths = basis  # type: ignore[attr-defined]
    return cat
