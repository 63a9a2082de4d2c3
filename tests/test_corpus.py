import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import laxepi
from laxepi import decide
from laxepi.category import Morphism, compose, from_quiver, validate_category
from laxepi.cli import _sanitize
from laxepi.corpus import (
    BUILTIN_NAMES,
    builtin,
    field_category,
    product_field_category,
    random_instance,
    run_builtin_table,
    summand_pair_category,
    truncated_polynomial_category,
    upper_triangular_category,
)
from laxepi.errors import LaxepiError
from laxepi.fileio import serialize_category, serialize_functor, serialize_module
from laxepi.functors import canonical_factorization_localized, validate_functor
from laxepi.modules import direct_sum, hom_modules, validate_module, yoneda
from laxepi.torsion import ideal_closure, localize
from reference_oracles import idempotency_defect


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtin_expected_tables(name):
    rows = run_builtin_table(name)
    bad = [r for r in rows if not r[1]]
    assert not bad, f"expectation mismatches: {bad}"


def test_builtin_tables_pass_without_sympy():
    """laxepi has no runtime dependency: with sympy made unimportable, the
    package imports and every builtin expectation table still passes."""
    code = (
        "import sys\n"
        "sys.modules['sympy'] = None\n"
        "import laxepi\n"
        "from laxepi.corpus import BUILTIN_NAMES, run_builtin_table\n"
        "rows = [r for name in BUILTIN_NAMES for r in run_builtin_table(name)]\n"
        "bad = [r for r in rows if not r[1]]\n"
        "assert len(rows) >= 34 and not bad, bad\n"
    )
    src = str(Path(laxepi.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtin_structures_valid(name):
    b = builtin(name)
    for c in b.categories.values():
        assert validate_category(c) == []
    for f in b.functors.values():
        assert validate_functor(f) == []
    for m in b.modules.values():
        assert validate_module(m) == []


def test_random_instance_deterministic():
    a = random_instance(42)
    b = random_instance(42)
    assert a.category.objects == b.category.objects
    assert a.category.cells == b.category.cells
    assert a.functor.object_map == b.functor.object_map
    assert a.functor.hom_maps == b.functor.hom_maps
    assert [m.dims for m in a.modules] == [m.dims for m in b.modules]
    assert [t.ideal for t in a.ideals] == [t.ideal for t in b.ideals]


def test_random_instances_validate():
    for seed in range(12):
        rb = random_instance(seed)
        assert validate_category(rb.category) == []
        assert validate_category(rb.target_category) == []
        assert validate_functor(rb.functor) == []
        assert validate_functor(rb.surjective_functor) == []
        assert rb.surjective_functor.is_surjective_on_objects()
        for m in rb.modules:
            assert validate_module(m) == []
        for t in rb.ideals:
            assert idempotency_defect(t) is None


def _two_sided_defect(t):
    """The first (hom pair, basis vector) of t's ideal that has a composite with
    a basis morphism, on either side, outside the ideal; None if there is none."""
    c = t.cat
    for (v, u), s in t.ideal.items():
        for a in s.basis_vectors():
            m = Morphism(v, u, a)
            for w in c.objects:
                pre = [compose(c, c.basis_morphism(u, w, i), m) for i in range(c.hom_dim(u, w))]
                post = [compose(c, m, c.basis_morphism(w, v, i)) for i in range(c.hom_dim(w, v))]
                if not all(t.ideal[(g.source, g.target)].contains(g.coords) for g in pre + post):
                    return (v, u), a
    return None


def test_every_ideal_is_two_sided():
    """Every ideal the library builds is closed under composition on both sides:
    the builtins' ideals, both ideals of bundles 0..199 and the vertex ideals of
    A_2..A_9."""
    ideals = [t for name in BUILTIN_NAMES for t in builtin(name).ideals.values()]
    for seed in range(200):
        ideals += random_instance(seed).ideals
    for n in range(2, 10):
        vs = [str(i) for i in range(1, n + 1)]
        c = from_quiver(vs, [(f"a{i}", str(i), str(i + 1)) for i in range(1, n)], (), n)
        ideals += [ideal_closure(c, [c.identity(u)]) for u in c.objects]
    assert sum(not (t.is_trivial or t.is_degenerate) for t in ideals) > 100
    for t in ideals:
        assert _two_sided_defect(t) is None


def test_random_bounds_respected():
    for seed in range(8):
        rb = random_instance(seed)
        for c in (rb.category, rb.target_category):
            assert len(c.objects) <= 3
            assert all(
                c.hom_dim(v, u) <= 4 for v in c.objects for u in c.objects
            )


def test_builtin_categories_are_pinned():
    """The builtin constructors, each with a non-default object name where it
    takes one, serialize (hom dimensions, basis labels, composition cells and
    identities) to the same bytes as when this digest was computed, while
    their composition tables were still typed by hand."""
    cats = [
        field_category("k"),
        product_field_category("k"),
        upper_triangular_category("k"),
        *(truncated_polynomial_category(n, "k") for n in range(1, 5)),
        summand_pair_category(),
    ]
    h = hashlib.sha256()
    for c in cats:
        h.update(json.dumps(serialize_category(c), sort_keys=True).encode())
        h.update(b"\n")
    assert h.hexdigest() == "1eee0ed1553279933f265b6201c42fe2cae7cd54bb1fa3ecc1728ec7ea86f1eb"


def test_matrix_category_refuses_a_span_that_misses_a_product_or_an_identity():
    """A composite or an identity outside the given span raises ValueError."""
    from laxepi.corpus import _matrix_category

    e12, e21 = [[0, 1], [0, 0]], [[0, 0], [1, 0]]
    with pytest.raises(ValueError, match="not in the span"):  # e12 e21 = e11
        _matrix_category({("*", "*"): [e12, e21]}, {("*", "*"): ["e12", "e21"]})
    with pytest.raises(ValueError, match="not in the span"):  # no identity
        _matrix_category({("*", "*"): [e12]}, {("*", "*"): ["e12"]})


def _quiver_data(c) -> dict:
    """The quiver attributes of a `from_quiver` category, in JSON form."""
    return {
        "basis_paths": [[v, u, [list(p) for p in ps]] for (v, u), ps in sorted(c.basis_paths.items())],
        "quiver_arrows": {
            name: [m.source, m.target, [str(x) for x in m.coords]]
            for name, m in sorted(c.quiver_arrows.items())
        },
        "arrow_endpoints": {name: list(st) for name, st in sorted(c.arrow_endpoints.items())},
    }


def _generated_data():
    """Everything the random stream and `from_quiver` produce, in JSON form."""
    for seed in range(200):  # the pools of the corpus-sweep and glax-tail benchmarks
        b = random_instance(seed)
        yield [serialize_category(b.category), _quiver_data(b.category)]
        yield [serialize_category(b.target_category), _quiver_data(b.target_category)]
        yield serialize_functor(b.functor, "src", "tgt")
        yield serialize_functor(b.surjective_functor, "src", "src")
        yield [serialize_module(m, "") for m in b.modules]
        yield [
            [[v, u, [sorted((k, str(x)) for k, x in row.items()) for row in s.basis.sp]]
             for (v, u), s in sorted(t.ideal.items())]
            for t in b.ideals
        ]
        yield repr(b.acceptance_rate)
    for n in range(2, 13):  # A_n, as the an-ladder benchmark builds it
        vs = [str(i) for i in range(1, n + 1)]
        c = from_quiver(vs, [(f"a{i}", str(i), str(i + 1)) for i in range(1, n)], (), n)
        yield [serialize_category(c), _quiver_data(c)]
    square = from_quiver(
        ["1", "2", "3", "4"],
        [("a", "1", "2"), ("b", "2", "4"), ("c", "1", "3"), ("d", "3", "4")],
        [[(1, ("a", "b")), (-1, ("c", "d"))]],
        3,
    )
    # a loop and two relations: x^3 = 0 and b = -a∘x
    loop = from_quiver(
        ["1", "2"],
        [("x", "1", "1"), ("a", "1", "2"), ("b", "1", "2")],
        [[(1, ("x", "x", "x"))], [(1, ("x", "a")), (1, ("b",))]],
        4,
    )
    for c in (square, loop):
        yield [serialize_category(c), _quiver_data(c)]


def test_generated_categories_are_pinned():
    """The random bundles 0..199, A_2..A_12 and two quivers with relations
    serialize to the same bytes as when this digest was computed, at the
    commit before `from_quiver` was rebuilt on `category.ideal_spans`; the
    benchmark's verdict tables in benchmarks/expected/ rest on this data."""
    h = hashlib.sha256()
    for item in _generated_data():
        h.update(json.dumps(item, sort_keys=True).encode())
        h.update(b"\n")
    assert h.hexdigest() == "a23b8e4f627f1c5f3d7273a3faefc5e36a4db09dfcd95c46056ca7dfdd1005a9"


def _check_outcome(kind, *args):
    """A decider's verdict and details, or its refusal's class and message."""
    try:
        rep = getattr(decide, decide.CHECKS[kind])(*args)
    except LaxepiError as e:
        return [type(e).__name__, str(e)]
    return [rep.verdict, rep.details]


def _computed_data(functors, ideals, modules):
    """Every check on each functor (with each ideal on its target, for the
    ideal checks), each localization with its unit and each hom basis
    between the modules, in JSON form."""
    def same(a, b):
        return a is b or a == b

    for fi, f in enumerate(functors):
        for kind in decide.CHECKS:
            if kind not in decide.IDEAL_CHECKS:
                yield [fi, kind, _check_outcome(kind, f)]
                continue
            for ti, t in enumerate(ideals):
                if same(t.cat, f.target):
                    yield [fi, kind, ti, _check_outcome(kind, f, t)]
    for mi, m in enumerate(modules):
        for ti, t in enumerate(ideals):
            if same(t.cat, m.over):
                cm, unit = localize(t, m)
                yield [mi, ti, serialize_module(cm.module, "c"), unit.components]
    for i, x in enumerate(modules):
        for j, y in enumerate(modules):
            if same(x.over, y.over):
                yield [i, j, [f.components for f in hom_modules(x, y)]]


def test_computed_outputs_are_pinned():
    """Every check report, localization with its unit and hom basis between
    modules, on the builtins and bundles 0..49, serializes to the same
    bytes as when this digest was computed, before hom bases became lazy."""
    h = hashlib.sha256()
    for name in BUILTIN_NAMES:
        b = builtin(name)
        bundle = (list(b.functors.values()), list(b.ideals.values()), list(b.modules.values()))
        for item in _computed_data(*bundle):
            h.update(json.dumps(_sanitize([name, item]), sort_keys=True).encode())
    for seed in range(50):
        b = random_instance(seed)
        for item in _computed_data([b.functor, b.surjective_functor], b.ideals, b.modules):
            h.update(json.dumps(_sanitize([seed, item]), sort_keys=True).encode())
    assert h.hexdigest() == "d8eb3fe0f35f86d8751857698c1dd444fa0f00201c9654e52c91f43c61c914b3"


def _path_category_data():
    """localize(reg) with its unit, and J's values and left action, at the ideal
    of every vertex of A_2..A_9, in JSON form; reg is the sum of the representables."""
    for n in range(2, 10):
        vs = [str(i) for i in range(1, n + 1)]
        c = from_quiver(vs, [(f"a{i}", str(i), str(i + 1)) for i in range(1, n)], (), n)
        reg, _, _ = direct_sum([yoneda(c, u) for u in vs], over=c)
        for u in vs:
            t = ideal_closure(c, [c.identity(u)])
            cm, unit = localize(t, reg)
            yield [
                n, u, serialize_module(cm.module, "c"), unit.components,
                [serialize_module(t.j.values[g], "c") for g in vs],
                [[list(key), f.components] for key, f in t.j.left_action.items()],
            ]


def test_path_category_outputs_are_pinned():
    """Localizations of the path categories A_2..A_9, whose bases are mostly
    composites, serialize to the same bytes as when this digest was computed,
    before module actions were read off the category's action plan."""
    h = hashlib.sha256()
    for item in _path_category_data():
        h.update(json.dumps(_sanitize(item), sort_keys=True).encode())
    assert h.hexdigest() == "fc55098d7ee7d01514460dcfe6411bb81f9c6123361f485dfde257571d2a6fc0"


def _localized_cases():
    """(label, functor, ideal) for every functor of the builtins and both
    functors of bundles 0..199, with each ideal on the functor's target."""
    def same(a, b):
        return a is b or a == b

    for name in BUILTIN_NAMES:
        b = builtin(name)
        for f in b.functors.values():
            yield from ((name, f, t) for t in b.ideals.values() if same(t.cat, f.target))
    for seed in range(200):
        b = random_instance(seed)
        for f in (b.functor, b.surjective_functor):
            yield from ((seed, f, t) for t in b.ideals if same(t.cat, f.target))


def _localized_data():
    """The localized factorization's mid category (hom dims, composition cells,
    identities) and S's hom matrices, with the glax and abelian-localization
    outcomes, for each case of `_localized_cases`, in JSON form."""
    for label, f, t in _localized_cases():
        try:
            fac = canonical_factorization_localized(f, t)
        except LaxepiError as e:
            fac_data = [type(e).__name__, str(e)]
        else:
            mid = fac.mid
            fac_data = [
                [[v, u, mid.hom_dim(v, u)] for v, u in mid.hom_pairs()],
                [[list(key), [[list(gf), cell] for gf, cell in sorted(cells.items())]]
                 for key, cells in sorted(mid.cells.items())],
                mid.identities,
                [[list(key), m] for key, m in sorted(fac.s.hom_maps.items())],
            ]
        yield [label, fac_data, _check_outcome("glax", f, t),
               _check_outcome("abelian-localization", f, t)]


def test_localized_factorizations_are_pinned():
    """The localized factorizations of 430 (functor, ideal) cases, and their
    glax and abelian-localization reports, serialize to the same bytes as when
    this digest was computed, before the mid category and S were read off
    each localized representable at the unit's image of the identity."""
    h = hashlib.sha256()
    n = 0
    for item in _localized_data():
        h.update(json.dumps(_sanitize(item), sort_keys=True).encode())
        n += 1
    assert n == 430
    assert h.hexdigest() == "bc24489a4229e9cb54f4dedeb666f566f8b519973e9d5f5b5f3ce91e1d4dd5a8"


def test_localized_hom_dims_read_yoneda():
    """Hom(a(y_PV), a(y_PU)) ≅ a(y_PU)(PV) for the closed a(y_PU): every Hom
    basis of the localized factorization, on the pinned cases, has the
    dimension of the localized representable at the image of its source."""
    pairs = 0
    for _, f, t in _localized_cases():
        fac = canonical_factorization_localized(f, t)
        loc = fac.localized_representables
        for (v, u), basis in fac.hom_bases.items():
            assert len(basis) == loc[u].module.dims[f.apply_obj(v)]
            pairs += bool(basis)
    assert pairs > 1000
