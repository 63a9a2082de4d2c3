from fractions import Fraction

import pytest

from laxepi.corpus import (
    a2_category,
    field_category,
    product_field_category,
    summand_pair_category,
    truncated_polynomial_category,
    upper_triangular_category,
)
from laxepi.linalg import RationalMatrix, Subspace, row_space
from laxepi.modules import (
    Module,
    ModuleMap,
    Submodule,
    cokernel,
    cyclic_submodule,
    direct_sum,
    ext1,
    flatten_map,
    free_cover,
    hom_modules,
    identity_map,
    image,
    is_projective,
    kernel,
    module_trace,
    quotient_by,
    sub_to_module,
    tops,
    trace_span,
    validate_module,
    validate_module_map,
    validate_submodule,
    yoneda,
    zero_map,
    zero_module,
)

Q = Fraction


def test_yoneda_regular_module():
    c = upper_triangular_category()
    m = yoneda(c, "*")
    assert m.dims == {"*": 3}
    assert validate_module(m) == []


def test_yoneda_a2_dims():
    c = a2_category()
    assert yoneda(c, "2").dims == {"1": 1, "2": 1}
    assert yoneda(c, "1").dims == {"1": 1, "2": 0}
    for u in c.objects:
        assert validate_module(yoneda(c, u)) == []


def test_yoneda_lemma_dimension():
    for c in (a2_category(), upper_triangular_category(), summand_pair_category()):
        for u in c.objects:
            yu = yoneda(c, u)
            for v in c.objects:
                x = yoneda(c, v)
                assert len(hom_modules(yu, x)) == x.dims[u]


def test_hom_contains_identity():
    c = a2_category()
    x = yoneda(c, "2")
    basis = hom_modules(x, x)
    assert basis.space.coordinates_of(flatten_map(identity_map(x))) is not None


def test_hom_a2_between_representables():
    c = a2_category()
    assert len(hom_modules(yoneda(c, "1"), yoneda(c, "2"))) == 1
    assert len(hom_modules(yoneda(c, "2"), yoneda(c, "1"))) == 0


def _basis(c, v, u):
    """The basis morphisms of Hom(v, u)."""
    return [c.basis_morphism(v, u, i) for i in range(c.hom_dim(v, u))]


def test_yoneda_matches_per_basis_compose():
    """yoneda's action and postcomposition (`postcompose_cells`) against
    composing basis morphisms one at a time, on builtin and corpus categories
    (bundles 0..29) and A_3..A_5."""
    import random

    from laxepi.category import Morphism, compose, from_quiver, postcompose_cells
    from laxepi.corpus import BUILTIN_NAMES, builtin, random_instance

    cats = [c for name in BUILTIN_NAMES for c in builtin(name).categories.values()]
    for seed in range(30):
        b = random_instance(seed)
        cats += [b.category, b.target_category]
    for n in range(3, 6):
        vs = [str(i) for i in range(1, n + 1)]
        cats.append(from_quiver(vs, [(f"a{i}", str(i), str(i + 1)) for i in range(1, n)], (), n))
    rng = random.Random(4)
    for c in cats:
        for u in c.objects:
            y = yoneda(c, u)
            for w, v in c.hom_pairs():
                for i, f in enumerate(_basis(c, w, v)):
                    cols = [compose(c, g, f).coords for g in _basis(c, v, u)]
                    assert y.action[(w, v, i)] == RationalMatrix.from_columns(cols, c.hom_dim(w, u))
        for v, u in c.hom_pairs():
            ms = _basis(c, v, u)
            ms.append(Morphism(v, u, tuple(rng.choice([0, 1, -1, Fraction(2, 3)]) for _ in ms)))
            for m in ms:
                coords = {k: x for k, x in enumerate(m.coords) if x}
                for w in c.objects:
                    cols = [compose(c, m, b).coords for b in _basis(c, w, v)]
                    assert (RationalMatrix.from_columns(postcompose_cells(c, w, v, u, coords), c.hom_dim(w, u))
                            == RationalMatrix.from_columns(cols, c.hom_dim(w, u)))


def test_yoneda_map_naturality():
    from reference_oracles import postcomposition

    c = summand_pair_category()
    m = c.basis_morphism("P", "PP", 0)
    f = ModuleMap(yoneda(c, "P"), yoneda(c, "PP"), postcomposition(c, m))
    assert validate_module_map(f) == []


def test_kernel_of_identity_zero():
    c = a2_category()
    x = yoneda(c, "2")
    k, incl = kernel(identity_map(x))
    assert k.is_zero()
    assert validate_module_map(incl) == []


def test_cokernel_of_zero_map():
    c = a2_category()
    x, y = yoneda(c, "1"), yoneda(c, "2")
    ck, proj = cokernel(zero_map(x, y))
    assert ck.dims == y.dims
    assert proj.is_iso()


def test_t2_right_ideal_quotient():
    c = upper_triangular_category()
    reg = yoneda(c, "*")
    # right ideal spanned by e12, e22
    s = Submodule(reg, {"*": Subspace.from_vectors([[0, 1, 0], [0, 0, 1]], 3)})
    assert validate_submodule(s) == []
    q, proj = quotient_by(s)
    assert q.total_dim() == 1
    assert validate_module(q) == []
    assert validate_module_map(proj) == []


def test_exactness_image_equals_kernel_of_cokernel():
    from laxepi.linalg import kernel_basis

    c = a2_category()
    x, y = yoneda(c, "1"), yoneda(c, "2")
    for f in hom_modules(x, y):
        _, proj = cokernel(f)
        im = image(f)
        for u in c.objects:
            assert im.spaces[u] == kernel_basis(proj.components[u])


def test_free_cover_of_yoneda():
    c = a2_category()
    x = yoneda(c, "2")
    cover, objs = free_cover(x)
    assert objs == ["2"]  # yoneda(2)(1) lies in yoneda(2)·rad
    assert cover.is_epi()
    assert validate_module_map(cover) == []


def test_free_cover_zero():
    c = a2_category()
    cover, objs = free_cover(zero_module(c))
    assert objs == [] and cover.source.is_zero()


def test_free_cover_simple_at_2():
    c = a2_category()
    s2 = tops(c)["2"]
    assert s2.dims == {"1": 0, "2": 1}
    cover, objs = free_cover(s2)
    assert objs == ["2"]
    syz, _ = kernel(cover)
    assert syz.dims == {"1": 1, "2": 0}


def test_ext1_vanishes_on_projectives():
    c = a2_category()
    for u in c.objects:
        for v in c.objects:
            assert ext1(yoneda(c, u), yoneda(c, v)) == 0


def test_ext1_simples_a2():
    c = a2_category()
    s1 = tops(c)["1"]
    s2 = tops(c)["2"]
    assert ext1(s2, s1) == 1
    assert ext1(s1, s2) == 0
    assert ext1(s1, s1) == 0
    assert ext1(s2, s2) == 0


def test_ext1_presentation_independent():
    from laxepi.modules import ModuleMap

    c = a2_category()
    s2 = tops(c)["2"]
    cover, _ = free_cover(s2)
    # pad the cover with a redundant free summand mapping by zero
    extra = yoneda(c, "1")
    padded_src, _, projs = direct_sum([cover.source, extra])
    comps = {
        u: cover.components[u].hstack(RationalMatrix.zeros(s2.dims[u], extra.dims[u]))
        for u in c.objects
    }
    padded = ModuleMap(padded_src, s2, comps)
    # dim Ext^1 = dim Hom(K, Y) - dim Hom(P, Y) + dim Hom(S2, Y) for any epi P -> S2
    # from a projective P, with kernel K
    syz, _ = kernel(padded)
    for y in [*tops(c).values(), *(yoneda(c, u) for u in c.objects)]:
        homs = [len(hom_modules(m, y)) for m in (syz, padded_src, s2)]
        assert homs[0] - homs[1] + homs[2] == ext1(s2, y)
    assert ext1(s2, tops(c)["1"]) == 1


def test_is_projective():
    c = a2_category()
    ok, sec = is_projective(yoneda(c, "2"))
    assert ok and sec is not None
    s1 = tops(c)["1"]
    ok1, _ = is_projective(s1)
    assert ok1  # yoneda(1) is simple projective here
    ok2, sec2 = is_projective(tops(c)["2"])
    assert not ok2 and sec2 is None


def test_is_projective_on_non_local_endomorphism_rings():
    """The presentation's cover need not be a projective cover: over T2 and
    Q x Q it has a nonzero kernel on projective modules, so projectivity is
    decided by the section solve, not by K = 0."""
    from laxepi.modules import map_compose

    t2, qq, pair = upper_triangular_category(), product_field_category(), summand_pair_category()
    with_kernel = [yoneda(t2, "*"), tops(qq)["*"]]
    assert all(any(x.presentation.kernels.values()) for x in with_kernel)
    for x in with_kernel + [yoneda(pair, u) for u in pair.objects]:
        ok, sec = is_projective(x)
        cover, _ = free_cover(x)
        assert ok and map_compose(cover, sec) == identity_map(x)
    assert is_projective(tops(t2)["*"]) == (False, None)


def test_trace_span():
    c = summand_pair_category()
    assert trace_span(c, ["P"], "PP").dim == 4  # all of End(P^2)
    assert trace_span(c, ["PP"], "P").dim == 1
    assert trace_span(c, [], "P").is_zero()
    full = trace_span(c, ["P"], "PP")
    assert full.contains([1, 0, 0, 1])  # contains the identity


def test_trace_span_contains_identity_self():
    c = a2_category()
    s = trace_span(c, ["1"], "1")
    assert s.contains(c.identity("1").coords)


def radical_subspaces(c):
    """The radical `c.radical` inside every hom space, as canonical subspaces."""
    return {
        (v, u): row_space(RationalMatrix.from_sparse_rows(c.radical.get((v, u), []), c.hom_dim(v, u)))
        for v in c.objects
        for u in c.objects
    }


def test_radical_product_field():
    c = product_field_category()
    rad = radical_subspaces(c)
    assert rad[("*", "*")].is_zero()
    assert {u: top.dims for u, top in tops(c).items()} == {"*": {"*": 2}}


def test_radical_t2():
    c = upper_triangular_category()
    rad = radical_subspaces(c)
    assert rad[("*", "*")] == Subspace.from_vectors([[0, 1, 0]], 3)  # span{e12}
    assert {u: top.dims for u, top in tops(c).items()} == {"*": {"*": 2}}


def test_radical_truncated_poly():
    c = truncated_polynomial_category()
    rad = radical_subspaces(c)
    assert rad[("*", "*")] == Subspace.from_vectors([[0, 1, 0], [0, 0, 1]], 3)
    assert {u: top.dims for u, top in tops(c).items()} == {"*": {"*": 1}}


def test_radical_summand_pair_single_simple():
    c = summand_pair_category()
    rad = radical_subspaces(c)
    assert all(s.is_zero() for s in rad.values())
    assert {u: top.dims for u, top in tops(c).items()} == {
        "P": {"P": 1, "PP": 2},
        "PP": {"P": 2, "PP": 4},
    }


def test_cyclic_submodule_stable():
    c = upper_triangular_category()
    reg = yoneda(c, "*")
    s = cyclic_submodule(reg, "*", [1, 0, 0])  # e11·T2 = span{e11, e12}
    assert validate_submodule(s) == []
    assert s.spaces["*"] == Subspace.from_vectors([[1, 0, 0], [0, 1, 0]], 3)


def test_module_trace_of_representables_covers():
    c = a2_category()
    x = yoneda(c, "2")
    tr = module_trace([yoneda(c, u) for u in c.objects], x)
    assert tr.is_full()


def coordinates_in_hom_basis(f, basis):
    """Coefficients of f in a basis from `hom_modules`, or None if f is outside
    its span: read at the pivots of the basis's canonical span, no elimination."""
    return basis.space.coordinates_of(flatten_map(f))


def _solve_coordinates(f, basis):
    """Coordinates of f by solving against the flattened basis (reference route)."""
    from laxepi.linalg import solve

    n = sum(f.target.dims[u] * f.source.dims[u] for u in f.source.over.objects)
    target = flatten_map(f)
    if not basis:
        return () if not target else None
    rows = RationalMatrix.from_sparse_rows([flatten_map(b) for b in basis], n)
    return solve(rows.transpose(), [target.get(j, Q(0)) for j in range(n)])


def _hom_pairs_for_coordinates():
    from laxepi.corpus import random_instance

    pairs = []
    for seed in range(10):
        b = random_instance(seed)
        src_mods = [m for m in b.modules if m.over is b.category]
        src_mods.append(yoneda(b.category, b.category.objects[0]))
        pairs += [(x, y) for x in src_mods for y in src_mods]
        pairs.append((zero_module(b.category), src_mods[0]))  # empty basis
    # the field has only its identity, so the hom system has no equations
    q = field_category()
    x = Module(q, {"*": 2}, {("*", "*", 0): RationalMatrix.identity(2)})
    pairs += [(x, x), (yoneda(q, "*"), x)]
    return pairs


def test_hom_coordinates_match_solve():
    """Pivot read-off agrees with solving, and rejects exactly the non-natural maps."""
    import random

    from laxepi.modules import map_add, map_scale

    rng = random.Random(6)
    kinds = set()
    rejected = 0
    for x, y in _hom_pairs_for_coordinates():
        basis = hom_modules(x, y)
        unknowns = sum(x.dims[u] * y.dims[u] for u in x.over.objects)
        kinds.add(
            "empty" if not basis else "no equations" if len(basis) == unknowns else "equations"
        )
        for _ in range(3):
            want = tuple(Q(rng.randint(-5, 5), rng.randint(1, 4)) for _ in basis)
            f = zero_map(x, y)
            for a, b in zip(want, basis):
                f = map_add(f, map_scale(a, b))
            got = coordinates_in_hom_basis(f, basis)
            assert got == want == _solve_coordinates(f, basis)
        # a map that differs from a basis map in one entry is natural only
        # when that entry is, so it has coordinates exactly when it is natural
        for b in basis[:2]:
            for u in x.over.objects:
                m = b.components[u]
                if not (m.rows and m.cols):
                    continue
                data = [list(r) for r in m.data]
                data[rng.randrange(m.rows)][rng.randrange(m.cols)] += 1
                pert = ModuleMap(x, y, b.components | {u: RationalMatrix(data)})
                got = coordinates_in_hom_basis(pert, basis)
                assert got == _solve_coordinates(pert, basis)
                assert (got is None) == bool(validate_module_map(pert))
                rejected += got is None
    assert kinds == {"empty", "no equations", "equations"}
    assert rejected


# -- batched hom matrices against the per-element route ----------------------

def _per_element_matrix(src, tgt, pre=None, post=None):
    """hom_matrix the reference way: one composite ModuleMap and one
    coordinate read per basis map; None when a composite leaves tgt's span."""
    from laxepi.modules import map_compose

    cols = []
    for alpha in src:
        f = alpha if pre is None else map_compose(alpha, pre)
        f = f if post is None else map_compose(post, f)
        coords = coordinates_in_hom_basis(f, tgt)
        if coords is None:
            return None
        cols.append(coords)
    return RationalMatrix.from_columns(cols, len(tgt))


def _random_map(rng, x, y):
    """A random rational combination of the basis of Hom(x, y)."""
    from laxepi.modules import map_add, map_scale

    f = zero_map(x, y)
    for b in hom_modules(x, y):
        f = map_add(f, map_scale(Q(rng.randint(-3, 3), rng.randint(1, 3)), b))
    return f


def _perturbed(rng, f):
    """f with one entry of one nonempty component raised by 1, or None."""
    objs = [u for u, m in f.components.items() if m.rows and m.cols]
    if not objs:
        return None
    u = rng.choice(objs)
    data = [list(r) for r in f.components[u].data]
    data[rng.randrange(len(data))][rng.randrange(len(data[0]))] += 1
    return ModuleMap(f.source, f.target, f.components | {u: RationalMatrix(data)})


def _a_n(n):
    from laxepi.category import from_quiver

    vertices = [str(i) for i in range(1, n + 1)]
    arrows = [(f"a{i}", str(i), str(i + 1)) for i in range(1, n)]
    return from_quiver(vertices, arrows, (), nilpotency=n)


def _torsion_cases():
    """(ideal, torsion-free module) pairs: A_4..A_6 at e_1 and the middle
    vertex with the regular module, and the ideals of bundles 0..9."""
    from laxepi.corpus import random_instance
    from laxepi.torsion import ideal_closure, torsion_submodule

    cases = []
    for n in (4, 5, 6):
        c = _a_n(n)
        reg, _, _ = direct_sum([yoneda(c, u) for u in c.objects], over=c)
        for k in (1, (n + 1) // 2):
            cases.append((ideal_closure(c, [c.identity(str(k))]), reg))
    for seed in range(10):
        b = random_instance(seed)
        for t in b.ideals:
            cases += [(t, x) for x in b.modules if x.over is t.cat]
            cases.append((t, yoneda(t.cat, t.cat.objects[0])))
    return [(t, quotient_by(torsion_submodule(t, x))[0]) for t, x in cases]


def _hom_matrix_cases(rng):
    """(src, tgt, pre, post) with natural pre/post: the J diagrams of the
    torsion cases and module triples of bundles 0..9."""
    from laxepi.corpus import random_instance

    cases = []
    for t, y in _torsion_cases():
        c = t.cat
        homs = {u: hom_modules(t.j.values[u], y) for u in c.objects}
        for v, u in c.hom_pairs():
            cases.append((homs[u], homs[v], t.j.left_action[(v, u, 0)], None))
        u = rng.choice(c.objects)
        cases.append((homs[u], homs[u], None, _random_map(rng, y, y)))
    for seed in range(10):
        b = random_instance(seed)
        c = b.category
        mods = [m for m in b.modules if m.over is c] + [yoneda(c, u) for u in c.objects]
        mods.append(zero_module(c))  # an empty source basis
        for _ in range(15):
            x2, x, y, y2 = (rng.choice(mods) for _ in range(4))
            pre, post = _random_map(rng, x2, x), _random_map(rng, y, y2)
            cases.append((hom_modules(x, y), hom_modules(x2, y), pre, None))
            cases.append((hom_modules(x, y), hom_modules(x, y2), None, post))
            cases.append((hom_modules(x, y), hom_modules(x2, y2), pre, post))
    return cases


def test_hom_matrix_matches_per_element():
    """hom_matrix equals composing and reading coordinates map by map; a
    non-natural pre or post raises exactly when some composite leaves the span."""
    import random

    from laxepi.errors import InternalInvariantError
    from laxepi.modules import hom_matrix

    rng = random.Random(4)
    kinds = set()
    raised = 0
    for src, tgt, pre, post in _hom_matrix_cases(rng):
        got = hom_matrix(src, tgt, pre=pre, post=post)
        assert got == _per_element_matrix(src, tgt, pre, post)
        assert (got.rows, got.cols) == (len(tgt), len(src))
        kinds.add("empty" if not src else "pre" if post is None else "post" if pre is None else "both")
        which = "pre" if post is None else "post" if pre is None else rng.choice(["pre", "post"])
        bad = _perturbed(rng, pre if which == "pre" else post)
        if bad is None or not validate_module_map(bad):
            continue
        args = {"pre": pre, "post": post, which: bad}
        want = _per_element_matrix(src, tgt, **args)
        if want is None:
            with pytest.raises(InternalInvariantError):
                hom_matrix(src, tgt, **args)
            raised += 1
        else:
            assert hom_matrix(src, tgt, **args) == want
    assert kinds == {"empty", "pre", "post", "both"}
    assert raised > 20


def test_gabriel_step_matches_per_element():
    """The Gabriel step's module and unit equal the ones assembled map by map."""
    from laxepi.category import Morphism
    from laxepi.modules import hom_diagram_module, map_compose
    from laxepi.torsion import _gabriel_step

    for t, y in _torsion_cases():
        c = t.cat
        h, unit = _gabriel_step(t, y)
        bases = hom_diagram_module(t.j, y)[1]
        action = {}
        for v, u in c.hom_pairs():
            for i in range(c.hom_dim(v, u)):
                cols = [
                    coordinates_in_hom_basis(map_compose(alpha, t.j.left_action[(v, u, i)]), bases[v])
                    for alpha in bases[u]
                ]
                action[(v, u, i)] = RationalMatrix.from_columns(cols, len(bases[v]))
        assert h == Module(c, {u: len(bases[u]) for u in c.objects}, action)
        for u in c.objects:
            jmod = t.j.values[u]
            acts = {w: [y.act(Morphism(w, u, g)) for g in t.ideal[(w, u)].basis_vectors()]
                    for w in c.objects}
            cols = []
            for a in range(y.dims[u]):
                comps = {w: RationalMatrix.from_columns([m.col(a) for m in acts[w]], y.dims[w])
                         for w in c.objects}
                cols.append(coordinates_in_hom_basis(ModuleMap(jmod, y, comps), bases[u]))
            assert unit.components[u] == RationalMatrix.from_columns(cols, len(bases[u]))


def test_hom_diagram_module_matches_per_element():
    """G ↦ Hom(value(G), y) for the regular bimodule of the bundles' functors,
    against composing with the left action map by map."""
    from laxepi.corpus import random_instance
    from laxepi.functors import regular_bimodule
    from laxepi.modules import hom_diagram_module

    checked = 0
    for seed in range(10):
        b = random_instance(seed)
        bim = regular_bimodule(b.functor)
        lc = bim.left_cat
        for y in [m for m in b.modules if m.over is bim.right_cat]:
            h, bases = hom_diagram_module(bim, y)
            assert all(len(bases[g]) == h.dims[g] for g in lc.objects)
            for (gp, g, i), act in bim.left_action.items():
                assert h.action[(gp, g, i)] == _per_element_matrix(bases[g], bases[gp], pre=act)
                checked += 1
    assert checked


def _reference_module_from_subspaces(x, bases):
    """The submodule on the given bases by one solve per action entry: the
    route that reads no pivots, kept as the reference."""
    from laxepi.linalg import solve_matrix

    c = x.over
    incl = {u: bases[u].basis.transpose() for u in c.objects}
    action = {}
    for v, u in c.hom_pairs():
        for i in range(c.hom_dim(v, u)):
            coords = solve_matrix(incl[v], x.action[(v, u, i)] * incl[u])
            if coords is None:
                raise ValueError("subspaces are not action-stable")
            action[(v, u, i)] = coords
    sub = Module(c, {u: bases[u].dim for u in c.objects}, action)
    return sub, ModuleMap(sub, x, incl)


def _submodule_cases():
    """(module, bases, route) for the kernels of the counits on the target
    representables of both functors of bundles 0..29 and of their localized
    factorizations, their J_U submodules, and those of A_3..A_6 at every vertex,
    each also as the kernel of its quotient map."""
    from laxepi.corpus import random_instance
    from laxepi.errors import PreconditionError
    from laxepi.functors import canonical_factorization_localized, counits
    from laxepi.linalg import kernel_basis
    from laxepi.torsion import ideal_closure

    def as_kernel(f):
        return f.source, {u: kernel_basis(f.components[u]) for u in f.source.over.objects}, lambda: kernel(f)

    def as_sub(s):
        return s.of, s.spaces, lambda: sub_to_module(s)

    cases, ideals = [], []
    for seed in range(30):
        b = random_instance(seed)
        functors = [b.functor, b.surjective_functor]
        try:
            functors.append(canonical_factorization_localized(b.surjective_functor, b.ideals[0]).s)
        except PreconditionError:
            pass
        for s in functors:
            cases += [as_kernel(eps) for eps in counits(s).values()]
        ideals += b.ideals
    for n in (3, 4, 5, 6):
        c = _a_n(n)
        ideals += [ideal_closure(c, [c.identity(u)]) for u in c.objects]
    for t in ideals:
        for u in t.cat.objects:
            j = Submodule(yoneda(t.cat, u), {v: t.ideal[(v, u)] for v in t.cat.objects})
            cases += [as_sub(j), as_kernel(quotient_by(j)[1])]
    return cases


def test_submodule_action_matches_solve_reference():
    """Reading the coordinates at the pivots gives the solved submodule on the
    counit kernels and J_U modules of bundles 0..29 and A_3..A_6."""
    cases = _submodule_cases()
    assert len(cases) > 500
    for x, bases, route in cases:
        sub, incl = route()
        want, want_incl = _reference_module_from_subspaces(x, bases)
        assert sub.dims == want.dims and sub.action == want.action
        assert incl.components == want_incl.components
        assert validate_module(sub) == [] and validate_module_map(incl) == []


def test_unstable_subspaces_raise():
    """Random subspaces of the same modules are submodules exactly when the
    solved reference says so; the others raise ValueError."""
    import random

    from laxepi.modules import _module_from_subspaces

    rng = random.Random(5)
    raised = agreed = 0
    for x, _, _ in _submodule_cases()[::7]:
        for _ in range(3):
            bases = {
                u: Subspace.from_vectors(
                    [[rng.choice([-1, 0, 0, 1, 2]) for _ in range(d)] for _ in range(rng.randint(0, 2))],
                    d,
                )
                for u, d in x.dims.items()
            }
            try:
                want = _reference_module_from_subspaces(x, bases)[0]
            except ValueError:
                with pytest.raises(ValueError, match="not action-stable"):
                    _module_from_subspaces(x, bases)
                raised += 1
                continue
            assert _module_from_subspaces(x, bases)[0].action == want.action
            agreed += 1
    assert raised > 20 and agreed > 20


# -- the presentation, against the routes it replaced ------------------------

def _modules_of(c, extra=()):
    """The given modules over c, its representables, its tops and its regular module."""
    reps = [yoneda(c, u) for u in c.objects]
    reg, _, _ = direct_sum(reps, over=c)
    return [*extra, *reps, *tops(c).values(), reg]


def _builtin_module_families():
    from laxepi.corpus import BUILTIN_NAMES, builtin

    for name in BUILTIN_NAMES:
        b = builtin(name)
        for c in b.categories.values():
            yield _modules_of(c, [m for m in b.modules.values() if m.over is c])


def _bundle_module_families(seeds=range(60)):
    from laxepi.corpus import random_instance

    for seed in seeds:
        b = random_instance(seed)
        for c in (b.category, b.target_category):
            yield _modules_of(c, [m for m in b.modules if m.over is c])


def _a_n_regular(n):
    c = _a_n(n)
    return direct_sum([yoneda(c, u) for u in c.objects], over=c)[0]


def _reference_hom_space(x, y):
    """Hom(x, y) as the kernel of one global system in the entries of every
    component, one equation per entry of each naturality square: the route
    the presentation replaced, kept as the reference."""
    from laxepi.linalg import kernel_basis

    c = x.over
    offsets, n = {}, 0
    for u in c.objects:
        offsets[u] = n
        n += y.dims[u] * x.dims[u]
    rows = []
    for v, u in c.hom_pairs():
        du, dv = x.dims[u], x.dims[v]
        for i in range(c.hom_dim(v, u)):
            ym, xm = y.action[(v, u, i)].data, x.action[(v, u, i)].data
            # entry (r, cc) of y(b)·α_U - α_V·x(b)
            for r in range(y.dims[v]):
                for cc in range(du):
                    row = {}
                    for s in range(y.dims[u]):
                        if ym[r][s]:
                            k = offsets[u] + s * du + cc
                            row[k] = row.get(k, 0) + ym[r][s]
                    for s in range(dv):
                        if xm[s][cc]:
                            k = offsets[v] + r * dv + s
                            row[k] = row.get(k, 0) - xm[s][cc]
                    if row := {k: a for k, a in row.items() if a}:
                        rows.append(row)
    return kernel_basis(RationalMatrix.from_sparse_rows(rows, n)) if rows else Subspace.full(n)


def _reference_free_cover(x):
    """The canonical cover with one representable per basis vector of x."""
    c = x.over
    objs = [u for u in c.objects for _ in range(x.dims[u])]
    total, _, _ = direct_sum([yoneda(c, u) for u in objs], over=c)
    cols = {v: [] for v in c.objects}
    for u in c.objects:
        for a in range(x.dims[u]):
            for v in c.objects:
                cols[v] += [x.action[(v, u, j)].col(a) for j in range(c.hom_dim(v, u))]
    comps = {v: RationalMatrix.from_columns(cols[v], x.dims[v]) for v in c.objects}
    return ModuleMap(total, x, comps)


def _reference_ext1(l, x):
    """dim coker(Hom(P, x) -> Hom(K, x)) for the canonical cover P -> l with
    kernel K, both Hom spaces from the global system: the two-system route."""
    from laxepi.linalg import EchelonBasis
    from laxepi.modules import HomBasis, _composites

    cover = _reference_free_cover(l)
    syz, incl = kernel(cover)
    hom_kx = _reference_hom_space(syz, x)
    if hom_kx.is_zero():
        return 0
    ref_px = _reference_hom_space(cover.source, x)
    hom_px = HomBasis(cover.source, x, ref_px.dim, lambda: ref_px.basis.sp)
    eb = EchelonBasis(hom_kx.ambient_dim)
    for row in _composites(hom_px, incl, None):
        eb.insert(row)
    return hom_kx.dim - eb.dim


def _greedy_generator_count(x):
    """How many generators the greedy pass takes without the x·rad seed."""
    from laxepi.linalg import EchelonBasis

    c = x.over
    spans = {g: EchelonBasis(x.dims[g]) for g in c.objects}
    count = 0
    for g in c.objects:
        for a in range(x.dims[g]):
            if not spans[g].contains({a: 1}):
                count += 1
                for gp in c.objects:
                    for i in range(c.hom_dim(gp, g)):
                        spans[gp].insert(x.action[(gp, g, i)].col(a))
    return count


def test_presentation_cover_kernel_and_preimages():
    """The cover is a natural epimorphism, each preimage maps back to its basis
    vector, and K(G) spans the kernel of P0(G) -> x(G), on the builtins,
    bundles 0..59 and the regular module of A_4..A_8."""
    from laxepi.linalg import kernel_basis

    families = [*_builtin_module_families(), *_bundle_module_families()]
    families.append([_a_n_regular(n) for n in range(4, 9)])
    checked = 0
    for x in (x for fam in families for x in fam):
        pres = x.presentation
        cover, objs = free_cover(x)
        assert objs == [g for g, _ in pres.generators]
        assert cover.is_epi() and validate_module_map(cover) == []
        for g in x.over.objects:
            m = cover.components[g]
            assert m.cols == pres.offsets[g][-1]
            def dense(v):
                return [v.get(p, 0) for p in range(m.cols)]

            for a, pre in enumerate(pres.preimages[g]):
                assert m.apply(dense(pre)) == tuple(int(r == a) for r in range(m.rows))
            kernel = Subspace.from_vectors([dense(k) for k in pres.kernels[g]], m.cols)
            assert kernel == kernel_basis(m) and kernel.dim == len(pres.kernels[g])
        checked += 1
    assert checked > 800


def test_presentation_generators_are_the_top_on_path_categories():
    """On path categories of quivers the generators at u number
    dim x(u) / (x·rad)(u): n for the regular module of A_n, n = 4..16, and
    the top dimensions on bundles 0..59.  Elsewhere the count is never more
    than the unseeded greedy pass takes."""
    from laxepi.modules import radical_submodule

    for n in range(4, 17):
        assert len(_a_n_regular(n).presentation.generators) == n
    paths = 0
    for fam in _bundle_module_families():
        for x in fam:
            top = {u: x.dims[u] - s.dim for u, s in radical_submodule(x).spaces.items()}
            counts = {u: sum(g == u for g, _ in x.presentation.generators) for u in x.over.objects}
            assert hasattr(x.over, "basis_paths") and counts == top
            paths += 1
    assert paths > 750
    for fam in [*_builtin_module_families(), *_bundle_module_families()]:
        for x in fam:
            assert len(x.presentation.generators) <= _greedy_generator_count(x)


def test_hom_space_matches_global_reference():
    """hom_modules reads the same canonical space as the global system on every
    pair of the builtin families, of bundles 0..59, and on Hom(reg, reg) of
    A_n for n <= 12.  Its length and truth are read without building the
    space or the maps."""
    pairs = [(x, y) for fam in _builtin_module_families() for x in fam for y in fam]
    builtin_pairs = len(pairs)
    pairs += [(x, y) for fam in _bundle_module_families() for x in fam for y in fam]
    pairs += [(reg, reg) for reg in map(_a_n_regular, range(2, 13))]
    for x, y in pairs:
        basis = hom_modules(x, y)
        dim, nonzero = len(basis), bool(basis)
        assert "space" not in vars(basis) and "maps" not in vars(basis)  # built on first use
        assert basis.space == _reference_hom_space(x, y)
        assert [flatten_map(f) for f in basis] == list(basis.space.basis.sp)
        assert dim == basis.space.dim == len(list(basis)) and nonzero == (dim > 0)
    assert builtin_pairs > 150 and len(pairs) > 4000


def test_ext1_matches_two_system_reference():
    """The dimension formula for Ext^1 agrees with the two Hom systems on the
    canonical cover: on every pair of the builtin families, of bundles 0..59,
    and between the tops of A_n for n <= 12."""
    pairs = [(x, y) for fam in _builtin_module_families() for x in fam for y in fam]
    pairs += [(x, y) for fam in _bundle_module_families() for x in fam for y in fam]
    for n in range(2, 13):
        simples = list(tops(_a_n(n)).values())
        pairs += [(x, y) for x in simples for y in simples]
    nonzero = 0
    for x, y in pairs:
        got = ext1(x, y)
        assert got == _reference_ext1(x, y)
        nonzero += got > 0
    assert nonzero > 100


def test_is_projective_reads_the_inverse_cover_at_a_zero_kernel():
    """When the presentation's kernel is zero, `is_projective` returns the
    inverse of the cover, read off the preimages: σ with cover∘σ = id and
    σ∘cover = id.  Its verdict equals the split test (the section solve,
    reference) on the modules, representables and tops of the builtins and
    on the Hom(V, T-) modules of the functors of bundles 0..149; both the
    shortcut and the solve run, and the solve answers both ways."""
    from laxepi.category import opposite
    from laxepi.corpus import BUILTIN_NAMES, builtin, random_instance
    from laxepi.modules import map_compose
    from reference_oracles import hom_from_object_module, splits

    cases = []
    for name in BUILTIN_NAMES:
        b = builtin(name)
        cats = {id(c): c for f in b.functors.values() for c in (f.source, f.target)}
        cases += list(b.modules.values())
        for c in cats.values():
            cases += [yoneda(c, u) for u in c.objects] + list(tops(c).values())
    for seed in range(150):
        f = random_instance(seed).functor
        op = opposite(f.source)
        cases += [hom_from_object_module(f, op, v) for v in f.target.objects]
    seen = {"inverse": 0, True: 0, False: 0}
    for x in cases:
        ok, sec = is_projective(x)
        assert ok == splits(x)
        cover, _ = free_cover(x)
        if not any(x.presentation.kernels.values()):
            assert ok and map_compose(sec, cover) == identity_map(cover.source)
            seen["inverse"] += 1
        else:
            seen[ok] += 1
        assert not ok or map_compose(cover, sec) == identity_map(x)
    assert min(seen.values()) > 5, seen


def test_hom_out_of_a_free_module_is_read_by_yoneda():
    """Out of ⊕_k yoneda(G_k) as `yoneda` and `direct_sum` build it (`free_on`),
    `hom_modules` reads Hom ≅ ⊕_k y(G_k) with no presentation and no solve,
    and gives the same dimension, canonical span and maps as the presentation
    solve (`reference_oracles.solved_hom`): for every representable, the
    regular module and a sum with a repeated summand, of the builtins and
    bundles 0..99, into every module of its family over the same category."""
    from reference_oracles import solved_hom

    families = [*_builtin_module_families(), *_bundle_module_families(range(100))]
    pairs, sums = 0, 0
    for fam in families:
        c = fam[0].over
        reps = [yoneda(c, u) for u in c.objects]
        mixed = direct_sum([reps[-1], reps[0], reps[-1]], over=c)[0]
        assert mixed.free_on == (c.objects[-1], c.objects[0], c.objects[-1])
        for r in [*fam, mixed]:
            if r.free_on is None:
                continue
            sums += len(r.free_on) > 1
            for y in fam:
                basis = hom_modules(r, y)
                assert len(basis) == sum(y.dims[g] for g in r.free_on)
                want = solved_hom(r, y)
                assert (len(basis), basis.space) == (len(want), want.space)
                assert [f.components for f in basis] == [f.components for f in want]
                pairs += 1
            assert "presentation" not in vars(r)
    assert pairs > 4000 and sums > 200, (pairs, sums)


def test_syzygy_is_the_kernel_of_the_cover():
    """K ⊂ P0 read off the presentation is `kernel(free_cover(x)[0])`, module
    and inclusion entry for entry, on the builtins' modules and the modules,
    representables, tops and regular module of bundles 0..199."""
    from laxepi.modules import syzygy

    def entries(x, incl):
        return (x.dims, {k: m.data for k, m in x.action.items()},
                {u: m.data for u, m in incl.components.items()}, incl.target)

    objects = 0
    for fam in [*_builtin_module_families(), *_bundle_module_families(range(200))]:
        for x in fam:
            assert entries(*syzygy(x)) == entries(*kernel(free_cover(x)[0]))
            objects += len(x.over.objects)
    assert objects > 5000


def test_deferred_components_are_checked_on_first_read():
    """A mapping of matrices is shape-checked in the constructor; a function
    for the components is called and checked only on first read, and a
    mis-shaped result raises there, on every read."""
    c = a2_category()
    p2 = yoneda(c, "2")
    with pytest.raises(ValueError, match="component shape"):
        ModuleMap(p2, p2, {"1": RationalMatrix([[1, 0]])})
    f = ModuleMap(p2, p2, lambda: {"1": RationalMatrix([[1, 0]])})
    for _ in range(2):
        with pytest.raises(ValueError, match="component shape"):
            f.components
    calls = []
    lazy = ModuleMap(p2, p2, lambda: calls.append(1) or identity_map(p2).components)
    assert calls == []
    assert lazy == identity_map(p2) and lazy.components is lazy.components and calls == [1]
    assert "components" in vars(identity_map(p2))


def test_hom_bimodule_acts_by_postcomposition():
    """c(-, -), the identity's coinduction bimodule, is a valid bimodule with
    the representable at each G, as `reference_oracles.representable` gathers
    it, and the left map of each basis morphism i: G' -> G is postcomposition
    with i, as `reference_oracles.postcomposition` builds it with `compose`:
    on the categories of the builtins and of bundles 0..199."""
    from laxepi.corpus import BUILTIN_NAMES, builtin, random_instance
    from laxepi.functors import identity_functor
    from laxepi.modules import validate_bimodule
    from reference_oracles import postcomposition, representable

    cats = []
    for name in BUILTIN_NAMES:
        b = builtin(name)
        cats += [c for f in b.functors.values() for c in (f.source, f.target)]
        cats += [m.over for m in b.modules.values()]
    for seed in range(200):
        b = random_instance(seed)
        cats += [b.category, b.target_category]
    checked = 0
    for c in {id(c): c for c in cats}.values():
        hom = identity_functor(c).coinduction_bimodule
        assert hom.left_cat is c and hom.right_cat is c
        assert all(hom.values[g] == representable(c, g) for g in c.objects)
        assert set(hom.left_action) == {(g2, g1, i) for g2, g1 in c.hom_pairs()
                                        for i in range(c.hom_dim(g2, g1))}
        for (g2, g1, i), act in hom.left_action.items():
            assert act.components == postcomposition(c, c.basis_morphism(g2, g1, i))
            checked += 1
        assert validate_bimodule(hom) == []
    assert checked > 1000, checked


def _representable_categories():
    """The categories of the builtins, both categories of bundles 0..199,
    A_2..A_12 and the product field Q × Q, whose identity is a sum of two
    basis vectors, each once."""
    from laxepi.corpus import BUILTIN_NAMES, builtin, random_instance

    cats = []
    for name in BUILTIN_NAMES:
        cats += list(builtin(name).categories.values())
    for seed in range(200):
        b = random_instance(seed)
        cats += [b.category, b.target_category]
    cats += [_a_n(n) for n in range(2, 13)] + [product_field_category()]
    return list({id(c): c for c in cats}.values())


def test_yoneda_equals_the_cell_loop():
    """yoneda(c, u), built along c's action plan, is the representable that
    `reference_oracles.representable` gathers cell by cell, entry for entry
    and `free_on` (u,) included, at every object of the builtins' categories,
    both categories of bundles 0..199, A_2..A_12 and Q × Q."""
    from reference_oracles import representable

    computed = 0
    for c in _representable_categories():
        for u in c.objects:
            got, want = yoneda(c, u), representable(c, u)
            assert got == want and got.free_on == want.free_on == (u,), (c.objects, u)
        computed += sum(how is None for how in c.action_plan.values())
    assert computed > 500, computed


def test_yoneda_along_a_functor_is_the_restricted_representable():
    """yoneda(tgt, g, along=s) is Hom(S-, g), the target's representable
    (`reference_oracles.representable`) restricted along s: each basis
    morphism i acts by precomposition with S(i), not with basis morphism i,
    and the module is not `free_on`; for every target object of both
    functors of bundles 0..199 and of every builtin functor."""
    from laxepi.corpus import BUILTIN_NAMES, builtin, random_instance
    from laxepi.functors import restrict
    from reference_oracles import representable

    functors = [f for name in BUILTIN_NAMES for f in builtin(name).functors.values()]
    for seed in range(200):
        b = random_instance(seed)
        functors += [b.functor, b.surjective_functor]
    pairs = 0
    for s in functors:
        for g in s.target.objects:
            got = yoneda(s.target, g, along=s)
            assert got.over is s.source and got.free_on is None
            assert got == restrict(s, representable(s.target, g))
            pairs += 1
    assert pairs > 800, pairs


def test_coinduction_reads_a_corner_own_objects_by_yoneda():
    """Along the inclusion of a corner E, the coinduction bimodule's value at
    each e in E is the representable yoneda(e), `free_on` (e,), so
    `localize` reads every Hom out of it by Yoneda and builds no presentation
    there; every value is Hom(S-, G), the target's representable restricted
    along the inclusion: on the vertex ideals of A_4..A_8 and the ideals of
    the builtins and bundles 0..199 that have a corner."""
    from laxepi.corpus import BUILTIN_NAMES, builtin, random_instance
    from laxepi.functors import restrict
    from laxepi.torsion import ideal_closure, localize
    from reference_oracles import representable

    ideals = [ideal_closure(c, [c.identity(u)]) for c in map(_a_n, range(4, 9)) for u in c.objects]
    ideals += [t for name in BUILTIN_NAMES for t in builtin(name).ideals.values()]
    ideals += [t for seed in range(200) for t in random_instance(seed).ideals]
    corners = 0
    for t in ideals:
        if (inc := t.corner) is None:
            continue
        d = inc.coinduction_bimodule
        for g, value in d.values.items():
            assert value == restrict(inc, representable(t.cat, g))
        localize(t, yoneda(t.cat, t.cat.objects[-1]))
        for e in inc.source.objects:
            value = d.values[inc.object_map[e]]
            assert value.free_on == (e,) and "presentation" not in vars(value)
            corners += 1
    assert corners > 300, corners
