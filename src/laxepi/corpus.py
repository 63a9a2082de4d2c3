"""Canonical worked instances and seeded random generators.

The builtin bundles drive the acceptance suite: each carries the data it
exercises plus a table of expected verdicts.  Their categories are spans of
integer matrices closed under products, composition read off the matrices
(`_matrix_category`); A2 is a path category.  The random generators produce
validated categories, functors, modules, and ideals deterministically from a
seed; functors and relation-laden categories are rejection-sampled, everything
else is valid by construction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from operator import mul

from .category import LinearCategory, Morphism, from_quiver
from .linalg import RationalMatrix


# ---------------------------------------------------------------------------
# concrete categories
# ---------------------------------------------------------------------------

def _matrix_category(homs: dict, labels: dict) -> LinearCategory:
    """The category whose Hom(V, U) is spanned by the n_U x n_V integer matrices
    homs[(V, U)], with g∘f their product; objects come in the order of the keys.
    Each basis matrix is 1 at its first nonzero entry, its pivot, where the rest
    of its basis vanishes, so a composite's or an identity's coordinates are its
    entries at the pivots; one that they do not rebuild raises ValueError."""
    pivots = {
        pair: [min((i, j) for i, row in enumerate(m) for j, x in enumerate(row) if x) for m in basis]
        for pair, basis in homs.items()
    }

    def coords(m, pair):
        cs = [m[i][j] for i, j in pivots.get(pair, [])]
        terms = [(c, b) for c, b in zip(cs, homs.get(pair, [])) if c]
        if m != [[sum(c * b[i][j] for c, b in terms) for j in range(len(row))] for i, row in enumerate(m)]:
            raise ValueError(f"{m} is not in the span of the basis of Hom{pair}")
        return cs

    def product(g, f):
        return [[sum(map(mul, row, col)) for col in zip(*f)] for row in g]

    comp = {(w, v, u): [[coords(product(g, f), (w, u)) for f in fs] for g in gs]
            for (v, u), gs in homs.items() for (w, v2), fs in homs.items() if v2 == v}
    objects = list(dict.fromkeys(o for pair in homs for o in pair))
    ids = {u: coords([[int(i == j) for j in range(len(row))] for i, row in enumerate(homs[(u, u)][0])],
                     (u, u)) for u in objects}
    return LinearCategory(objects, {pair: len(b) for pair, b in homs.items()}, comp, ids, labels)


def _one_object_category(name: str, basis: list, labels: list[str]) -> LinearCategory:
    return _matrix_category({(name, name): basis}, {(name, name): labels})


def field_category(object_name: str = "*") -> LinearCategory:
    """The rationals as a one-object category."""
    return _one_object_category(object_name, [[[1]]], ["1"])


def product_field_category(object_name: str = "*") -> LinearCategory:
    """QQ x QQ: two orthogonal idempotents f1, f2 with unit f1 + f2."""
    return _one_object_category(object_name, [[[1, 0], [0, 0]], [[0, 0], [0, 1]]], ["f1", "f2"])


def upper_triangular_category(object_name: str = "*") -> LinearCategory:
    """Upper triangular 2x2 rational matrices, basis (e11, e12, e22)."""
    basis = [[[1, 0], [0, 0]], [[0, 1], [0, 0]], [[0, 0], [0, 1]]]
    return _one_object_category(object_name, basis, ["e11", "e12", "e22"])


def truncated_polynomial_category(power: int = 3, object_name: str = "*") -> LinearCategory:
    """QQ[x]/(x^power), basis 1, x, ..., x^(power-1): the powers of the nilpotent shift."""
    basis = [[[int(i == j + k) for j in range(power)] for i in range(power)] for k in range(power)]
    return _one_object_category(object_name, basis, ["1"] + [f"x^{k}" for k in range(1, power)])


def summand_pair_category() -> LinearCategory:
    """Two objects P and PP = P⊕P with all maps between them (matrix units).

    Basis: Hom(P,P) = {u}, Hom(P,PP) = {i1,i2}, Hom(PP,P) = {p1,p2},
    Hom(PP,PP) = {E11,E12,E21,E22} with E_ab = i_a ∘ p_b.
    """
    size = {"P": 1, "PP": 2}
    labels = {("P", "P"): ["u"], ("P", "PP"): ["i1", "i2"], ("PP", "P"): ["p1", "p2"],
              ("PP", "PP"): ["E11", "E12", "E21", "E22"]}
    # the matrix units of each Hom(V, U), row by row
    homs = {(v, u): [[[int((i, j) == (a, b)) for j in range(size[v])] for i in range(size[u])]
                     for a in range(size[u]) for b in range(size[v])] for v, u in labels}
    return _matrix_category(homs, labels)


def a2_category() -> LinearCategory:
    """Path category of the quiver 1 -> 2 (arrow a), no relations."""
    return from_quiver(["1", "2"], [("a", "1", "2")], (), nilpotency=2)


# ---------------------------------------------------------------------------
# concrete functors
# ---------------------------------------------------------------------------

def _one_object_functor(src: LinearCategory, tgt: LinearCategory, matrix_rows) -> "LinearFunctor":
    from .functors import LinearFunctor

    so, to = src.objects[0], tgt.objects[0]
    return LinearFunctor(
        src, tgt, {so: to}, {(so, so): RationalMatrix(matrix_rows)}
    )


def diagonal_functor() -> "LinearFunctor":
    """QQ -> QQ x QQ, 1 |-> f1 + f2 (flat, not an epimorphism)."""
    return _one_object_functor(field_category(), product_field_category(), [[1], [1]])


def t2_semisimple_surjection() -> "LinearFunctor":
    """T2 -> QQ x QQ killing the radical (an epimorphism, not flat)."""
    return _one_object_functor(
        upper_triangular_category(),
        product_field_category(),
        [[1, 0, 0], [0, 0, 1]],  # e11 -> f1, e12 -> 0, e22 -> f2
    )


def summand_inclusion_functor() -> "LinearFunctor":
    """Full inclusion of {P} into {P, P⊕P} (a lax epimorphism)."""
    from .functors import LinearFunctor

    src = field_category("P")
    tgt = summand_pair_category()
    return LinearFunctor(src, tgt, {"P": "P"}, {("P", "P"): RationalMatrix([[1]])})


def corner_unit_functor() -> "LinearFunctor":
    """QQ -> T2, 1 |-> e11 + e22 (the corner demo's ring map)."""
    return _one_object_functor(field_category(), upper_triangular_category(), [[1], [0], [1]])


def a2_vertex_functor(vertex: str = "1") -> "LinearFunctor":
    """QQ -> A2 path category, picking out one vertex."""
    from .functors import LinearFunctor

    src = field_category()
    tgt = a2_category()
    return LinearFunctor(
        src, tgt, {"*": vertex}, {("*", "*"): RationalMatrix([[1]])}
    )


# ---------------------------------------------------------------------------
# builtin bundles with expected verdicts
# ---------------------------------------------------------------------------

@dataclass
class Expectation:
    kind: str
    args: dict
    want: object
    note: str = ""


@dataclass
class InstanceBundle:
    name: str
    categories: dict = field(default_factory=dict)
    functors: dict = field(default_factory=dict)
    modules: dict = field(default_factory=dict)
    ideals: dict = field(default_factory=dict)
    ideal_generators: dict = field(default_factory=dict)
    expected: list = field(default_factory=list)


BUILTIN_NAMES = (
    "identity_ring",
    "diagonal_k_kk",
    "surjection_T2_semisimple",
    "summand_inclusion",
    "corner_T2",
    "truncated_poly",
    "A2_quiver",
)


def builtin(name: str) -> InstanceBundle:
    from .functors import identity_functor
    from .torsion import ideal_closure, whole_ideal
    from .modules import yoneda

    if name == "identity_ring":
        c = field_category()
        f = identity_functor(c)
        return InstanceBundle(
            name,
            categories={"Q": c},
            functors={"id": f},
            ideals={"trivial": whole_ideal(c)},
            expected=[
                Expectation("epi", {"functor": "id"}, True),
                Expectation("lax-epi", {"functor": "id"}, True),
                Expectation("flat", {"functor": "id"}, True),
                Expectation("flat-epi", {"functor": "id"}, True),
                Expectation("ffr", {"functor": "id"}, True),
            ],
        )
    if name == "diagonal_k_kk":
        f = diagonal_functor()
        return InstanceBundle(
            name,
            categories={"Q": f.source, "QxQ": f.target},
            functors={"d": f},
            ideals={"trivial": whole_ideal(f.target)},
            expected=[
                Expectation("epi", {"functor": "d"}, False),
                Expectation("flat", {"functor": "d"}, True),
                Expectation("flat-epi", {"functor": "d"}, False),
                Expectation("lax-epi", {"functor": "d"}, False),
                Expectation("ffr", {"functor": "d"}, False),
                Expectation("cond-epi", {"functor": "d", "ideal": "trivial"}, False),
            ],
        )
    if name == "surjection_T2_semisimple":
        f = t2_semisimple_surjection()
        return InstanceBundle(
            name,
            categories={"T2": f.source, "QxQ": f.target},
            functors={"q": f},
            ideals={"trivial": whole_ideal(f.target)},
            expected=[
                Expectation("epi", {"functor": "q"}, True),
                Expectation("flat", {"functor": "q"}, False),
                Expectation("flat-epi", {"functor": "q"}, False),
                Expectation("lax-epi", {"functor": "q"}, True),
                Expectation("cond-epi", {"functor": "q", "ideal": "trivial"}, True),
                Expectation("glax", {"functor": "q", "ideal": "trivial"}, True),
                Expectation("abelian-localization", {"functor": "q", "ideal": "trivial"}, False),
            ],
        )
    if name == "summand_inclusion":
        f = summand_inclusion_functor()
        return InstanceBundle(
            name,
            categories={"P": f.source, "PPP": f.target},
            functors={"incl": f},
            expected=[
                Expectation("lax-epi", {"functor": "incl"}, True),
                Expectation("ffr", {"functor": "incl"}, True),
                Expectation("epi-error", {"functor": "incl"}, "E_NOT_SURJECTIVE_ON_OBJECTS"),
                Expectation("flat", {"functor": "incl"}, True),
            ],
        )
    if name == "corner_T2":
        p = corner_unit_functor()
        t2 = p.target
        t = ideal_closure(t2, [t2.basis_morphism("*", "*", 0)])
        return InstanceBundle(
            name,
            categories={"Q": p.source, "T2": t2},
            functors={"p": p},
            modules={"regular": yoneda(t2, "*")},
            ideals={"e11": t},
            ideal_generators={"e11": [t2.basis_morphism("*", "*", 0)]},
            expected=[
                Expectation("glax", {"functor": "p", "ideal": "e11"}, True),
                Expectation("abelian-localization", {"functor": "p", "ideal": "e11"}, True),
                Expectation("corner-hom", {"ideal": "e11"}, True,
                            note="quotient hom dims equal eAe oracle dims"),
                Expectation("flat", {"functor": "p"}, True),
            ],
        )
    if name == "truncated_poly":
        c = truncated_polynomial_category()
        f = identity_functor(c)
        return InstanceBundle(
            name,
            categories={"Qx3": c},
            functors={"id": f},
            ideals={"trivial": whole_ideal(c)},
            ideal_generators={"x": [c.basis_morphism("*", "*", 1)]},
            expected=[
                Expectation("ideal-error", {"generators": "x"}, "E_IDEAL_NOT_IDEMPOTENT"),
                Expectation("epi", {"functor": "id"}, True),
                Expectation("lax-epi", {"functor": "id"}, True),
            ],
        )
    if name == "A2_quiver":
        f = a2_vertex_functor("1")
        c = f.target
        return InstanceBundle(
            name,
            categories={"A2": c, "Q": f.source},
            functors={"v1": f},
            modules={"P1": yoneda(c, "1"), "P2": yoneda(c, "2")},
            ideals={"trivial": whole_ideal(c)},
            expected=[
                Expectation("lax-epi", {"functor": "v1"}, False),
                Expectation("ffr", {"functor": "v1"}, False),
                Expectation("flat", {"functor": "v1"}, True),
                Expectation("projective", {"module": "P2"}, True),
                Expectation("ext1-simples", {}, 1, note="ext1(S2, S1) over A2"),
            ],
        )
    raise KeyError(f"unknown builtin instance {name}")


def run_expectation(bundle: InstanceBundle, exp: Expectation) -> tuple[bool, object]:
    """Evaluate one expectation; returns (matches, actual)."""
    from . import decide
    from .errors import PreconditionError
    from .modules import ext1, is_projective, tops, yoneda
    from .oracles import CornerContext
    from .torsion import ideal_closure, quotient_hom

    kind, args = exp.kind, exp.args
    if kind in decide.CHECKS:
        ideals = [bundle.ideals[args["ideal"]]] if kind in decide.IDEAL_CHECKS else []
        got = getattr(decide, decide.CHECKS[kind])(bundle.functors[args["functor"]], *ideals).verdict
    elif kind == "ffr":
        got = decide.fully_faithful_restriction(bundle.functors[args["functor"]]).verdict
    elif kind == "epi-error":
        try:
            decide.is_epi(bundle.functors[args["functor"]])
            got = None
        except PreconditionError as e:
            got = e.code
    elif kind == "ideal-error":
        cat = next(iter(bundle.categories.values()))
        try:
            ideal_closure(cat, bundle.ideal_generators[args["generators"]])
            got = None
        except PreconditionError as e:
            got = e.code
    elif kind == "corner-hom":
        t = bundle.ideals[args["ideal"]]
        cat = t.cat
        gen = bundle.ideal_generators[args["ideal"]][0]
        ctx = CornerContext(cat, gen)
        from .modules import cyclic_submodule, sub_to_module, zero_module
        from .torsion import torsion_submodule

        reg = yoneda(cat, "*")
        e11t2, _ = sub_to_module(cyclic_submodule(reg, "*", [1, 0, 0]))
        tors, _ = sub_to_module(torsion_submodule(t, reg))
        samples = [reg, e11t2, tors, zero_module(cat)]
        got = all(
            len(quotient_hom(t, x, y)) == ctx.hom_dim(x, y)
            for x in samples
            for y in samples
        )
    elif kind == "projective":
        got, _ = is_projective(bundle.modules[args["module"]])
    elif kind == "ext1-simples":
        c = bundle.categories["A2"]
        top = tops(c)
        got = ext1(top["2"], top["1"])
    else:
        raise KeyError(f"unknown expectation kind {kind}")
    return got == exp.want, got


def run_builtin_table(name: str) -> list[tuple[str, bool, object, object]]:
    """Evaluate every expectation of a builtin; returns (desc, ok, got, want) rows."""
    bundle = builtin(name)
    rows = []
    for exp in bundle.expected:
        ok, got = run_expectation(bundle, exp)
        rows.append((f"{name}:{exp.kind}:{exp.args}", ok, got, exp.want))
    return rows


# ---------------------------------------------------------------------------
# seeded random generators
# ---------------------------------------------------------------------------

MAX_OBJECTS, MAX_HOM_DIM = 3, 4  # bounds of every random category
MAX_MODULE_DIM = 3  # bound of a random module at each object
FUNCTOR_TRIES = 120  # candidates drawn per random functor


@dataclass
class RandomBundle:
    seed: int
    category: LinearCategory
    target_category: LinearCategory
    functor: object  # LinearFunctor category -> target_category
    surjective_functor: object  # surjective on objects
    modules: list
    ideals: list
    acceptance_rate: float  # share of functor candidates that validated


def _random_quiver_category(rng: random.Random):
    """Truncated path categories; retried until hom dimensions fit the bound,
    then the one-vertex quiver, so that every random category is a path category."""
    for _ in range(50):
        n = rng.randint(1, MAX_OBJECTS)
        vertices = [f"v{i}" for i in range(n)]
        arrows = []
        n_arrows = rng.randint(0, min(3, n + 1))
        has_loop = False
        for k in range(n_arrows):
            if n > 1 and rng.random() < 0.85:
                i = rng.randrange(n - 1)
                j = rng.randrange(i + 1, n)
                arrows.append((f"a{k}", vertices[i], vertices[j]))
            else:
                i = rng.randrange(n)
                arrows.append((f"a{k}", vertices[i], vertices[i]))
                has_loop = True
        nilpotency = rng.randint(2, 3) if has_loop else n + 1
        cat = from_quiver(vertices, arrows, (), nilpotency)
        if all(cat.hom_dim(v, u) <= MAX_HOM_DIM for v in vertices for u in vertices):
            return cat
    return from_quiver(["v0"], [], (), 1)


def _random_morphism(rng: random.Random, c: LinearCategory, v: str, u: str) -> Morphism:
    d = c.hom_dim(v, u)
    coords = [rng.choice([-1, 0, 0, 1, 1, 2]) for _ in range(d)]
    return Morphism(v, u, tuple(coords))


def _functor_from_arrow_images(src, tgt, object_map, arrow_images):
    """Extend arrow images multiplicatively over the stored basis paths."""
    from .category import compose as cat_compose
    from .functors import LinearFunctor

    hom_maps = {}
    for v, u in src.hom_pairs():
        cols = []
        for path in src.basis_paths[(v, u)]:
            if not path:
                img = Morphism(
                    object_map[v], object_map[v], tgt.identities[object_map[v]]
                )
            else:
                img = arrow_images[path[0]]
                for a in path[1:]:
                    img = cat_compose(tgt, arrow_images[a], img)
            cols.append(img.coords)
        hom_maps[(v, u)] = RationalMatrix.from_columns(
            cols, tgt.hom_dim(object_map[v], object_map[u])
        )
    return LinearFunctor(src, tgt, object_map, hom_maps)


def random_functor(
    rng: random.Random, src: LinearCategory, tgt: LinearCategory, surjective: bool = False
) -> tuple[object, int]:
    """Rejection-sample a valid functor; returns (functor, attempts used)."""
    from .functors import validate_functor

    src_objs = list(src.objects)
    tgt_objs = list(tgt.objects)
    attempts = 0
    while attempts < FUNCTOR_TRIES:
        attempts += 1
        if surjective:
            if len(tgt_objs) > len(src_objs):
                raise ValueError("cannot surject onto more objects")
            perm = tgt_objs * ((len(src_objs) // len(tgt_objs)) + 1)
            rng.shuffle(perm)
            object_map = {u: perm[i] for i, u in enumerate(src_objs)}
            missing = [t for t in tgt_objs if t not in object_map.values()]
            for m in missing:
                object_map[rng.choice(src_objs)] = m
            if set(object_map.values()) != set(tgt_objs):
                continue
        else:
            object_map = {u: rng.choice(tgt_objs) for u in src_objs}
        arrow_images = {
            name: _random_morphism(rng, tgt, object_map[av], object_map[au])
            for name, (av, au) in src.arrow_endpoints.items()
        }
        cand = _functor_from_arrow_images(src, tgt, object_map, arrow_images)
        if validate_functor(cand) == []:
            return cand, attempts
    raise RuntimeError("functor rejection sampling exhausted its attempt budget")


def random_module(rng: random.Random, c: LinearCategory):
    """Random representation of a path category: a matrix per arrow."""
    from .modules import Module, validate_module

    for _ in range(30):
        dims = {v: rng.randint(0, MAX_MODULE_DIM) for v in c.objects}
        mats = {
            name: RationalMatrix(
                [
                    [rng.choice([-1, 0, 0, 1, 2]) for _ in range(dims[au])]
                    for _ in range(dims[av])
                ],
                dims[av],
                dims[au],
            )
            for name, (av, au) in c.arrow_endpoints.items()
        }
        action = {}
        for v, u in c.hom_pairs():
            for i, path in enumerate(c.basis_paths[(v, u)]):
                m = RationalMatrix.identity(dims[u])
                # X(a_k ∘ ... ∘ a_1) = X(a_1)·...·X(a_k)
                for a in reversed(path):
                    m = mats[a] * m
                action[(v, u, i)] = m
        x = Module(c, dims, action)
        if validate_module(x) == []:
            return x
    raise RuntimeError("module rejection sampling exhausted its attempt budget")


def random_ideal(rng: random.Random, c: LinearCategory):
    """A valid TorsionData: trivial, degenerate, vertex-generated, or sampled."""
    from .torsion import ideal_closure, whole_ideal, zero_ideal
    from .errors import IdealNotIdempotent

    roll = rng.random()
    if roll < 0.25:
        return whole_ideal(c)
    if roll < 0.35:
        return zero_ideal(c)
    if roll < 0.8:
        u = rng.choice(c.objects)
        return ideal_closure(c, [c.identity(u)])
    for _ in range(6):
        v = rng.choice(c.objects)
        u = rng.choice(c.objects)
        m = _random_morphism(rng, c, v, u)
        if m.is_zero():
            continue
        try:
            return ideal_closure(c, [m])
        except IdealNotIdempotent:
            continue
    return whole_ideal(c)


def random_instance(seed: int) -> RandomBundle:
    """Deterministic bundle: categories, a functor, a surjective functor, modules, ideals.

    If a rejection-sampling budget runs out (heavily constrained nilpotent
    quivers), fresh categories are drawn from the same stream, so the result
    stays a pure function of the seed.
    """
    rng = random.Random(seed)
    while True:
        src = _random_quiver_category(rng)
        tgt = _random_quiver_category(rng)
        tries_total = 0
        try:
            f, tries = random_functor(rng, src, tgt)
            tries_total += tries
            sf, tries2 = random_functor(rng, src, src, surjective=True)
            tries_total += tries2
        except RuntimeError:
            continue
        modules = [random_module(rng, src) for _ in range(2)]
        modules += [random_module(rng, tgt)]
        ideals = [random_ideal(rng, src), random_ideal(rng, tgt)]
        return RandomBundle(
            seed=seed,
            category=src,
            target_category=tgt,
            functor=f,
            surjective_functor=sf,
            modules=modules,
            ideals=ideals,
            acceptance_rate=2.0 / tries_total,
        )
