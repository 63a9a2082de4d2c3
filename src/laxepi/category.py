"""Finite k-linear categories presented by structure constants.

A category here is a "ring with several objects": finitely many objects,
finite-dimensional hom spaces with chosen bases, a composition tensor giving
g∘f on basis pairs, and identity coordinates.  Quivers with relations are a
convenience constructor that elaborates to the same presentation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Mapping, Sequence

from .linalg import ONE, ZERO, EchelonBasis, frac, nonzeros, vec, zero_vec

Pair = tuple[str, str]
Triple = tuple[str, str, str]


@dataclass(frozen=True)
class Morphism:
    """A morphism as coordinates in the chosen basis of Hom(source, target)."""

    source: str
    target: str
    coords: tuple[Fraction, ...]

    def scale(self, c) -> "Morphism":
        c = frac(c)
        return Morphism(self.source, self.target, tuple(c * x for x in self.coords))

    def add(self, other: "Morphism") -> "Morphism":
        if (self.source, self.target) != (other.source, other.target):
            raise ValueError("cannot add morphisms with different endpoints")
        return Morphism(
            self.source, self.target, tuple(a + b for a, b in zip(self.coords, other.coords))
        )

    def is_zero(self) -> bool:
        return not any(self.coords)


class LinearCategory:
    """Objects, hom dimensions, composition structure constants, identities."""

    def __init__(
        self,
        objects: Sequence[str],
        hom_dims: Mapping[Pair, int],
        comp: Mapping[Triple, Sequence[Sequence[Sequence]]],
        identities: Mapping[str, Sequence],
        basis_labels: Mapping[Pair, Sequence[str]] | None = None,
    ):
        self.objects = tuple(objects)
        if len(set(self.objects)) != len(self.objects):
            raise ValueError("duplicate object identifiers")
        self._hom = {k: int(v) for k, v in hom_dims.items() if v}
        self.comp: dict[Triple, tuple[tuple[tuple[Fraction, ...], ...], ...]] = {}
        for (w, v, u), table in comp.items():
            dg, df, dr = self.hom_dim(v, u), self.hom_dim(w, v), self.hom_dim(w, u)
            if dg == 0 or df == 0:
                continue
            tab = tuple(tuple(vec(cell) for cell in row) for row in table)
            if len(tab) != dg or any(len(row) != df for row in tab):
                raise ValueError(f"composition table shape mismatch at {(w, v, u)}")
            if any(len(cell) != dr for row in tab for cell in row):
                raise ValueError(f"composition value length mismatch at {(w, v, u)}")
            self.comp[(w, v, u)] = tab
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
            and self.comp == other.comp
            and self.identities == other.identities
        )

    __hash__ = None  # mutable enough; never used as a dict key

    def hom_dim(self, v: str, u: str) -> int:
        return self._hom.get((v, u), 0)

    def hom_pairs(self) -> tuple[Pair, ...]:
        """All (V, U) with Hom(V, U) nonzero, in object-list order."""
        # computed once: objects and hom dimensions are fixed after __init__
        try:
            return self._hom_pairs
        except AttributeError:
            self._hom_pairs = tuple(
                (v, u) for v in self.objects for u in self.objects if self.hom_dim(v, u)
            )
            return self._hom_pairs

    def total_dim(self) -> int:
        return sum(self._hom.values())

    def basis_morphism(self, v: str, u: str, i: int) -> Morphism:
        d = self.hom_dim(v, u)
        if not 0 <= i < d:
            raise ValueError(f"basis index {i} out of range for Hom({v},{u})")
        return Morphism(v, u, tuple(ONE if j == i else ZERO for j in range(d)))

    def basis_morphisms(self, v: str, u: str) -> list[Morphism]:
        return [self.basis_morphism(v, u, i) for i in range(self.hom_dim(v, u))]

    def zero_morphism(self, v: str, u: str) -> Morphism:
        return Morphism(v, u, zero_vec(self.hom_dim(v, u)))

    def identity(self, u: str) -> Morphism:
        return Morphism(u, u, self.identities[u])

    def comp_coords(self, w: str, v: str, u: str, gi: int, fi: int) -> tuple[Fraction, ...]:
        """Coordinates of basis_g ∘ basis_f in Hom(w, u)."""
        tab = self.comp.get((w, v, u))
        if tab is None:
            return zero_vec(self.hom_dim(w, u))
        return tab[gi][fi]

    def morphism(self, v: str, u: str, coords: Sequence) -> Morphism:
        c = vec(coords)
        if len(c) != self.hom_dim(v, u):
            raise ValueError(f"coordinate length mismatch for Hom({v},{u})")
        return Morphism(v, u, c)

    def label_of(self, v: str, u: str, i: int) -> str:
        return self.basis_labels[(v, u)][i]


def compose(c: LinearCategory, g: Morphism, f: Morphism) -> Morphism:
    """Bilinear extension of the structure tensor: g ∘ f."""
    if f.target != g.source:
        raise ValueError(f"morphisms not composable: {f.target} != {g.source}")
    w, v, u = f.source, f.target, g.target
    out = list(zero_vec(c.hom_dim(w, u)))
    for gi, gc in enumerate(g.coords):
        if not gc:
            continue
        for fi, fc in enumerate(f.coords):
            if not fc:
                continue
            s = gc * fc
            for k, x in enumerate(c.comp_coords(w, v, u, gi, fi)):
                if x:
                    out[k] += s * x
    return Morphism(w, u, tuple(out))


def validate_category(c: LinearCategory) -> list[str]:
    """All violated identity laws and associativity triples; empty iff valid.

    Composites are contracted straight from the structure constants, kept
    as sparse `{index: value}` cells: (h∘g)∘f and h∘(g∘f) are compared as
    such cells, with entries that cancel dropped.
    """
    sp = {k: [[dict(nonzeros(x)) for x in row] for row in tab] for k, tab in c.comp.items()}

    def table(w: str, v: str, u: str) -> list[list[dict[int, Fraction]]]:
        """The cells of basis g ∘ basis f indexed [g][f], all empty when not given."""
        return sp.get((w, v, u)) or [[{}] * c.hom_dim(w, v)] * c.hom_dim(v, u)

    def combine(terms, cells) -> dict[int, Fraction]:
        """Σ a·cells[k] over the (k, a) in terms, without zero entries."""
        acc: dict[int, Fraction] = {}
        for k, a in terms:
            for j, b in cells[k].items():
                acc[j] = acc.get(j, ZERO) + a * b
        return {j: x for j, x in acc.items() if x}

    problems: list[str] = []
    for u in c.objects:
        idu = nonzeros(c.identities[u])
        for v in c.objects:
            tab = table(v, u, u)  # id_u ∘ f for f: v -> u
            for fi in range(c.hom_dim(v, u)):
                if combine(idu, [row[fi] for row in tab]) != {fi: ONE}:
                    problems.append(f"id_{u} ∘ {c.label_of(v, u, fi)} != itself")
            for gi, cells in enumerate(table(u, u, v)):  # g ∘ id_u for g: u -> v
                if combine(idu, cells) != {gi: ONE}:
                    problems.append(f"{c.label_of(u, v, gi)} ∘ id_{u} != itself")
    for x, w, v, u in product(c.objects, repeat=4):
        df = c.hom_dim(x, w)
        if not (c.hom_dim(v, u) and c.hom_dim(w, v) and df):
            continue
        left_tab = table(x, w, u)
        left_by_f = [[row[fi] for row in left_tab] for fi in range(df)]
        for hi, (hg_row, right_cells) in enumerate(zip(table(w, v, u), table(x, v, u))):
            for gi, (hg, gf_row) in enumerate(zip(hg_row, table(x, w, v))):
                for fi, (gf, left_cells) in enumerate(zip(gf_row, left_by_f)):
                    # (h∘g)∘f against h∘(g∘f)
                    if combine(hg.items(), left_cells) != combine(gf.items(), right_cells):
                        problems.append(
                            f"associativity fails at "
                            f"({c.label_of(v, u, hi)}, {c.label_of(w, v, gi)}, {c.label_of(x, w, fi)})"
                        )
    return problems


def opposite(c: LinearCategory) -> LinearCategory:
    """Reverse all morphisms; comp tensor transposed in its two morphism slots."""
    hom = {(u, v): d for (v, u), d in c._hom.items()}
    labels = {(u, v): c.basis_labels[(v, u)] for (v, u) in c._hom}
    comp: dict[Triple, list] = {}
    for (w, v, u), tab in c.comp.items():
        # op-composition g' ∘op f' (g': V->U, f': W->V in op) is f ∘ g in c
        comp[(u, v, w)] = [
            [tab[fi][gi] for fi in range(len(tab))] for gi in range(len(tab[0]))
        ]
    return LinearCategory(c.objects, hom, comp, dict(c.identities), labels)


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


class _Path:
    __slots__ = ("source", "target", "arrows")

    def __init__(self, source: str, target: str, arrows: tuple[str, ...]):
        self.source = source
        self.target = target
        self.arrows = arrows

    def key(self):
        return (self.source, self.target, self.arrows)


def from_quiver(
    vertices: Sequence[str],
    arrows: Sequence[tuple[str, str, str]],
    relations: Sequence[Sequence[tuple, ]] = (),
    nilpotency: int = 2,
) -> LinearCategory:
    """Path category of a quiver modulo relations and all paths of length >= nilpotency.

    arrows: (name, source, target).  A relation is a list of (coeff, path)
    where each path is a tuple of arrow names composed left-to-right
    (path (a, b) means b∘a) and all paths in one relation are parallel.
    """
    if nilpotency < 1:
        raise ValueError("nilpotency bound must be at least 1")
    names = set()
    by_name: dict[str, tuple[str, str]] = {}
    out_of: dict[str, list[tuple[str, str, str]]] = {v: [] for v in vertices}
    for name, s, t in arrows:
        if name in names:
            raise ValueError(f"duplicate arrow name {name}")
        if s not in vertices or t not in vertices:
            raise ValueError(f"arrow {name} uses unknown vertex")
        names.add(name)
        by_name[name] = (s, t)
        out_of[s].append((name, s, t))

    # enumerate paths of length < nilpotency, grouped by (source, target)
    paths: list[_Path] = [_Path(v, v, ()) for v in vertices]
    frontier = list(paths)
    for _ in range(nilpotency - 1):
        nxt = []
        for p in frontier:
            for name, _, t in out_of[p.target]:
                nxt.append(_Path(p.source, t, p.arrows + (name,)))
        paths.extend(nxt)
        frontier = nxt
        if not frontier:
            break

    by_pair: dict[Pair, list[_Path]] = {}
    index: dict[tuple, int] = {}
    for p in paths:
        lst = by_pair.setdefault((p.source, p.target), [])
        index[p.key()] = len(lst)
        lst.append(p)

    def path_vector(pair: Pair, combos: Sequence[tuple]) -> list[Fraction]:
        out = [ZERO] * len(by_pair[pair])
        for coeff, arrow_seq in combos:
            key = (pair[0], pair[1], tuple(arrow_seq))
            if key not in index:
                raise ValueError(f"unknown or non-parallel path {arrow_seq} for {pair}")
            out[index[key]] += frac(coeff)
        return out

    def concat(p: _Path, q: _Path) -> _Path | None:
        """q ∘ p with truncation: None when the result is too long."""
        if len(p.arrows) + len(q.arrows) >= nilpotency:
            return None
        return _Path(p.source, q.target, p.arrows + q.arrows)

    # relation ideal inside the truncated path algebra, closed under both compositions
    spans: dict[Pair, EchelonBasis] = {
        pair: EchelonBasis(len(lst)) for pair, lst in by_pair.items()
    }
    pending: list[tuple[Pair, list[Fraction]]] = []
    for rel in relations:
        combos = list(rel)
        if not combos:
            continue
        first = combos[0][1]
        if not first:
            raise ValueError("relation paths must have positive length")
        s = by_name[first[0]][0]
        t = by_name[first[-1]][1]
        pending.append(((s, t), path_vector((s, t), combos)))
    while pending:
        pair, v = pending.pop()
        if not spans[pair].insert(v):
            continue
        s, t = pair
        plist = by_pair[pair]
        # postcompose with every path out of t, precompose with every path into s
        for (s2, t2), qlist in by_pair.items():
            if s2 == t and (s, t2) in by_pair:  # q ∘ (element) for q: t -> t2
                for q in qlist:
                    out = [ZERO] * len(by_pair[(s, t2)])
                    for coeff, p in zip(v, plist):
                        if not coeff:
                            continue
                        pq = concat(p, q)
                        if pq is not None:
                            out[index[pq.key()]] += coeff
                    if any(out):
                        pending.append(((s, t2), out))
            if t2 == s and (s2, t) in by_pair:  # (element) ∘ q for q: s2 -> s
                for q in qlist:
                    out = [ZERO] * len(by_pair[(s2, t)])
                    for coeff, p in zip(v, plist):
                        if not coeff:
                            continue
                        qp = concat(q, p)
                        if qp is not None:
                            out[index[qp.key()]] += coeff
                    if any(out):
                        pending.append(((s2, t), out))

    # quotient bases: complement coordinates of each relation span
    quots = {pair: spans[pair].quotient_maps() for pair in by_pair}
    hom_dims = {pair: quots[pair][0].rows for pair in by_pair}
    labels = {}
    for pair, lst in by_pair.items():
        _, sec = quots[pair]
        # label each quotient basis vector by its representative path (sections
        # pick out non-pivot paths, so representatives are single paths)
        picked = []
        for j in range(sec.cols):
            col = sec.col(j)
            i = next(k for k, x in enumerate(col) if x)
            p = lst[i]
            picked.append("e_" + p.source if not p.arrows else "*".join(p.arrows))
        labels[pair] = picked

    comp: dict[Triple, list] = {}
    for w in vertices:
        for v in vertices:
            for u in vertices:
                if (w, v) not in by_pair or (v, u) not in by_pair or (w, u) not in by_pair:
                    continue
                dg = hom_dims[(v, u)]
                df = hom_dims[(w, v)]
                if not (dg and df and hom_dims[(w, u)]):
                    continue
                proj_wu, _ = quots[(w, u)]
                _, sec_vu = quots[(v, u)]
                _, sec_wv = quots[(w, v)]
                table = []
                for gi in range(dg):
                    grow = []
                    gcoords = sec_vu.col(gi)
                    for fi in range(df):
                        fcoords = sec_wv.col(fi)
                        acc = [ZERO] * len(by_pair[(w, u)])
                        for i_g, cg in enumerate(gcoords):
                            if not cg:
                                continue
                            for i_f, cf in enumerate(fcoords):
                                if not cf:
                                    continue
                                pq = concat(by_pair[(w, v)][i_f], by_pair[(v, u)][i_g])
                                if pq is not None:
                                    acc[index[pq.key()]] += cg * cf
                        grow.append(proj_wu.apply(acc))
                    table.append(grow)
                comp[(w, v, u)] = table

    identities = {}
    for vtx in vertices:
        proj, _ = quots[(vtx, vtx)]
        triv = [ZERO] * len(by_pair[(vtx, vtx)])
        triv[index[(vtx, vtx, ())]] = ONE
        idc = proj.apply(triv)
        if not any(idc):
            raise ValueError(f"relations collapse the identity at vertex {vtx}")
        identities[vtx] = idc

    cat = LinearCategory(vertices, hom_dims, comp, identities, labels)
    cat.quiver_arrows = {}  # type: ignore[attr-defined]
    for name, s, t in arrows:
        proj, _ = quots[(s, t)]
        pv = [ZERO] * len(by_pair[(s, t)])
        pv[index[(s, t, (name,))]] = ONE
        cat.quiver_arrows[name] = Morphism(s, t, proj.apply(pv))  # type: ignore[attr-defined]
    cat.arrow_endpoints = {name: by_name[name] for name in by_name}  # type: ignore[attr-defined]
    # representative path (arrow-name tuple) of each quotient basis vector
    basis_paths = {}
    for pair, lst in by_pair.items():
        _, sec = quots[pair]
        reps = []
        for j in range(sec.cols):
            col = sec.col(j)
            i = next(k for k, x in enumerate(col) if x)
            reps.append(lst[i].arrows)
        basis_paths[pair] = reps
    cat.basis_paths = basis_paths  # type: ignore[attr-defined]
    return cat
