import os
import subprocess
import sys
from pathlib import Path

import pytest

import laxepi
from laxepi.category import validate_category
from laxepi.corpus import (
    BUILTIN_NAMES,
    builtin,
    random_instance,
    run_builtin_table,
)
from laxepi.functors import validate_functor
from laxepi.modules import validate_module


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
    assert a.category.comp == b.category.comp
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
            assert t.idempotency_defect() is None


def test_random_bounds_respected():
    for seed in range(8):
        rb = random_instance(seed)
        for c in (rb.category, rb.target_category):
            assert len(c.objects) <= 3
            assert all(
                c.hom_dim(v, u) <= 4 for v in c.objects for u in c.objects
            )
