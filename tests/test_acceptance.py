"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.  Every
tolerance here is exact (rational arithmetic): agreement means equality.
"""

import random
import time
from fractions import Fraction

import pytest

from laxepi import decide
from laxepi.corpus import (
    BUILTIN_NAMES,
    builtin,
    random_instance,
)
from laxepi.errors import RepresentableNotClosed
from laxepi.functors import (
    adjunction_check,
    canonical_factorization_localized,
    identity_functor,
    regular_bimodule,
    tensor_bimodule,
)
from laxepi.linalg import RationalMatrix, kernel_basis, row_space, rref, solve
from laxepi.modules import (
    cyclic_submodule,
    sub_to_module,
    yoneda,
    zero_module,
)
from laxepi.oracles import (
    CornerContext,
    bounded_quotient_family,
    hom_restriction_closed,
    multiplication_map_iso,
)
from laxepi.torsion import (
    is_closed,
    is_torsion,
    localize,
    q_iso,
    torsion_submodule,
    whole_ideal,
    zero_ideal,
)
from reference_oracles import conditioned_epi_fullness_oracle


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} [{name}] {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def _builtin_functors():
    out = []
    for name in BUILTIN_NAMES:
        b = builtin(name)
        for fname, f in b.functors.items():
            out.append((f"{name}:{fname}", f))
    return out


def test_criterion_01_lax_epi_equivalence():
    t0 = time.perf_counter()
    cases = 0
    disagreements = []
    for label, f in _builtin_functors():
        lax = decide.is_lax_epi(f)
        ffr = decide.fully_faithful_restriction(f)
        cases += 1
        if lax.verdict != ffr.verdict:
            disagreements.append(label)
    for seed in range(1000, 1200):
        rb = random_instance(seed)
        lax = decide.is_lax_epi(rb.functor)
        ffr = decide.fully_faithful_restriction(rb.functor)
        cases += 1
        if lax.verdict != ffr.verdict:
            disagreements.append(f"seed {seed}")
    elapsed = time.perf_counter() - t0
    ok = not disagreements and cases >= 207 and elapsed < 60.0
    _report(
        1,
        "lax-epi-equivalence",
        ok,
        f"{cases} cases, {len(disagreements)} disagreements, {elapsed:.1f}s",
    )


def test_criterion_02_tensor_criterion_agreement():
    disagreements = []
    cases = 0
    for seed in range(2000, 2200):
        rb = random_instance(seed)
        s = rb.surjective_functor
        counit_verdict = decide.fully_faithful_restriction(s).verdict
        tensor_verdict, _ = multiplication_map_iso(s)
        cases += 1
        if counit_verdict != tensor_verdict:
            disagreements.append(seed)
    ok = cases >= 200 and not disagreements
    _report(
        2,
        "tensor-criterion-agreement",
        ok,
        f"{cases} surjective functors, {len(disagreements)} disagreements",
    )


def test_criterion_03_cond_epi_vs_fullness_oracle():
    pairs = []
    excluded = 0
    for name in BUILTIN_NAMES:
        b = builtin(name)
        for fname, f in b.functors.items():
            if not f.is_bijective_on_objects():
                continue
            for iname, t in b.ideals.items():
                if not (t.cat is f.target or t.cat == f.target):
                    continue
                closed = all(
                    is_closed(t, yoneda(f.target, g)) for g in f.target.objects
                )
                if not closed:
                    with pytest.raises(RepresentableNotClosed):
                        decide.is_conditioned_epi(f, t)
                    excluded += 1
                    continue
                pairs.append((f"{name}:{fname}:{iname}", f, t))
    # the corner demo's mid-category morphism, with its (trivial) induced torsion
    p = builtin("corner_T2")
    fac = canonical_factorization_localized(
        p.functors["p"], p.ideals["e11"]
    )
    pairs.append(("corner_T2:mid", fac.s, whole_ideal(fac.mid)))
    disagreements = []
    for label, f, t in pairs:
        verdict = decide.is_conditioned_epi(f, t).verdict
        oracle = conditioned_epi_fullness_oracle(f, t)
        if verdict != oracle:
            disagreements.append(label)
    ok = not disagreements and len(pairs) >= 5
    _report(
        3,
        "cond-epi-oracle",
        ok,
        f"{len(pairs)} eligible pairs, {excluded} excluded by closedness, "
        f"{len(disagreements)} disagreements",
    )


def test_criterion_04_corner_demo():
    b = builtin("corner_T2")
    p, t = b.functors["p"], b.ideals["e11"]
    glax = decide.is_generalized_lax_epi(p, t)
    abelian_loc = decide.is_abelian_localization(p, t)
    corner = CornerContext(t.cat, b.ideal_generators["e11"][0])
    reg = yoneda(t.cat, "*")
    e11t2, _ = sub_to_module(cyclic_submodule(reg, "*", [1, 0, 0]))
    tors, _ = sub_to_module(torsion_submodule(t, reg))
    samples = [reg, e11t2, tors, zero_module(t.cat)]
    from laxepi.torsion import quotient_hom

    mismatches = 0
    for x in samples:
        for y in samples:
            if len(quotient_hom(t, x, y)) != corner.hom_dim(x, y):
                mismatches += 1
    ok = glax.verdict and abelian_loc.verdict and mismatches == 0
    _report(
        4,
        "corner-demo",
        ok,
        f"glax={glax.verdict}, abelian_loc={abelian_loc.verdict}, "
        f"{len(samples) ** 2} hom-dim comparisons, {mismatches} mismatches",
    )


def test_criterion_05_negative_controls():
    diag = builtin("diagonal_k_kk")
    surj = builtin("surjection_T2_semisimple")
    d = diag.functors["d"]
    q = surj.functors["q"]
    results = {
        "diag_epi": decide.is_epi(d).verdict is False,
        "diag_flat": decide.is_flat(d).verdict is True,
        "diag_flat_epi": decide.is_flat_epi(d).verdict is False,
        "surj_epi": decide.is_epi(q).verdict is True,
        "surj_flat": decide.is_flat(q).verdict is False,
        "surj_flat_epi": decide.is_flat_epi(q).verdict is False,
    }
    bad = [k for k, v in results.items() if not v]
    _report(5, "negative-controls", not bad, f"6 expected verdicts, wrong: {bad or 'none'}")


def test_criterion_06_localization_laws():
    checked = 0
    failures = []

    def run_pair(t, m, label):
        nonlocal checked
        try:
            # localize proves nothing about its result: closed, unit a q-iso, idempotent
            cm, unit = localize(t, m)
            cm2, unit2 = localize(t, cm.module)
            if not (q_iso(t, unit) and unit2.is_iso() and is_closed(t, cm.module)):
                failures.append(label)
        except Exception as e:  # noqa: BLE001 - any failure is a criterion failure
            failures.append(f"{label}: {e}")
        checked += 1

    t2b = builtin("corner_T2")
    t2 = t2b.ideals["e11"].cat
    builtin_ideals = [t2b.ideals["e11"], whole_ideal(t2), zero_ideal(t2)]
    fam = bounded_quotient_family(t2, cap=5)
    for t in builtin_ideals:
        for m in fam:
            run_pair(t, m, f"T2:{m.dims}")
    seed = 3000
    while checked < 500:
        rb = random_instance(seed)
        for m in rb.modules:
            for t in rb.ideals:
                if t.cat is m.over or t.cat == m.over:
                    run_pair(t, m, f"seed {seed}")
        seed += 1
    ok = checked >= 500 and not failures
    _report(
        6,
        "localization-laws",
        ok,
        f"{checked} (module, ideal) pairs, {len(failures)} failures",
    )


def test_criterion_07_adjunction_suite():
    checked = 0
    failures = []
    seed = 4000
    while checked < 500:
        rb = random_instance(seed)
        src_mods = [m for m in rb.modules if m.over == rb.category][:2]
        tgt_mods = [m for m in rb.modules if m.over == rb.target_category][:1]
        for f, tgt_pool in (
            (rb.functor, tgt_mods),
            (rb.surjective_functor, src_mods),
        ):
            rep = adjunction_check(f, src_mods, tgt_pool)
            if not rep["ok"]:
                failures.append((seed, rep["failures"]))
            checked += 2 * len(src_mods) + 2 * len(tgt_pool) + 2 * len(src_mods) * len(tgt_pool)
        seed += 1
    ok = checked >= 500 and not failures
    _report(
        7,
        "adjunction-suite",
        ok,
        f"{checked} identity/dimension checks, {len(failures)} failures",
    )


def _closed_functor_cases():
    """(label, bimodule, left ideal, right ideal): four builtin bimodules, then
    for bundles 0..59 the regular bimodules of `functor` and of
    `surjective_functor`, each with the bundle's ideal or the whole ideal on
    either side."""
    b = builtin("corner_T2")
    fac = canonical_factorization_localized(b.functors["p"], b.ideals["e11"])
    yield "corner-embedding", fac.i, whole_ideal(fac.mid), b.ideals["e11"]
    t2 = b.ideals["e11"].cat
    reg = regular_bimodule(identity_functor(t2))
    yield "regular-T2-nontrivial", reg, b.ideals["e11"], whole_ideal(t2)
    yield "regular-T2-trivial", reg, whole_ideal(t2), whole_ideal(t2)
    diag = builtin("diagonal_k_kk").functors["d"]
    yield "regular-diagonal-trivial", regular_bimodule(diag), whole_ideal(diag.source), \
        whole_ideal(diag.target)
    for seed in range(60):
        rb = random_instance(seed)
        src_ideal = rb.ideals[0]
        for label, f, tgt_ideal in (("functor", rb.functor, rb.ideals[1]),
                                    ("surjective", rb.surjective_functor, src_ideal)):
            bim = regular_bimodule(f)
            for t_left in (src_ideal, whole_ideal(f.source)):
                for t_right in (tgt_ideal, whole_ideal(f.target)):
                    yield f"random[{seed}]:{label}", bim, t_left, t_right


def test_criterion_08_closed_functor_coherence():
    """The exact decider (torsion tops, condition (i)) against the Hom side
    (condition (ii) on localized representables).  A Hom-side failure forces
    an exact failure; on these cases the two verdicts are equal."""
    cases = verdicts = 0
    disagreements = []
    for label, bim, t_left, t_right in _closed_functor_cases():
        verdict = decide.is_generalized_closed_functor(bim, t_left, t_right).verdict
        cases += 1
        verdicts += verdict
        if verdict != hom_restriction_closed(bim, t_left, t_right):
            disagreements.append(label)
    _report(
        8,
        "closed-functor-coherence",
        cases >= 484 and not disagreements,
        f"{cases} bimodule instances ({verdicts} true), disagreements: {disagreements or 'none'}",
    )


def _kernel_description_disagreements(p, t, samples) -> list[int]:
    """The samples x on which membership of the induction x ⊗ regular_bimodule(p)
    in Ker T^*, computed two ways, differs: is the induction torsion, and does
    it localize to zero?"""
    disagreements = []
    reg = regular_bimodule(p)
    for k, x in enumerate(samples):
        ind = tensor_bimodule(x, reg).module
        torsion_route = is_torsion(t, ind)
        cm, _ = localize(t, ind)
        localize_route = cm.module.is_zero()
        if torsion_route != localize_route:
            disagreements.append(k)
    return disagreements


def test_criterion_09_kernel_description():
    total_samples = 0
    disagreements = 0
    builtin_cases = [
        ("corner_T2", "p", "e11"),
        ("surjection_T2_semisimple", "q", "trivial"),
        ("diagonal_k_kk", "d", "trivial"),
        ("identity_ring", "id", "trivial"),
    ]
    for bname, fname, iname in builtin_cases:
        b = builtin(bname)
        p = b.functors[fname]
        t = b.ideals[iname]
        samples = [zero_module(p.source)] + [yoneda(p.source, u) for u in p.source.objects]
        total_samples += len(samples)
        disagreements += len(_kernel_description_disagreements(p, t, samples))
    seed = 5000
    while total_samples < 120:
        rb = random_instance(seed)
        p = rb.functor
        t = next((t for t in rb.ideals if t.cat == p.target), None)
        if t is not None:
            samples = [m for m in rb.modules if m.over == p.source][:2]
            total_samples += len(samples)
            disagreements += len(_kernel_description_disagreements(p, t, samples))
        seed += 1
    ok = total_samples >= 112 and disagreements == 0
    _report(
        9,
        "kernel-description",
        ok,
        f"{total_samples} sampled modules, {disagreements} disagreements",
    )


def test_criterion_10_exact_substrate():
    rng = random.Random(0xACCE)
    n = 10_000
    failures = 0
    pool = [-3, -2, -1, 0, 0, 1, 1, 2, 3, Fraction(1, 2), Fraction(-2, 3)]
    t0 = time.perf_counter()
    for _ in range(n):
        r = rng.randint(1, 8)
        c = rng.randint(1, 8)
        m = RationalMatrix(
            [[Fraction(rng.choice(pool)) for _ in range(c)] for _ in range(r)]
        )
        if kernel_basis(m).dim + row_space(m).dim != c:
            failures += 1
            continue
        red, _ = rref(m)
        if rref(red)[0] != red:
            failures += 1
            continue
        x = [Fraction(rng.choice(pool)) for _ in range(c)]
        b = m.apply(x)
        got = solve(m, b)
        if got is None or m.apply(got) != tuple(b):
            failures += 1
    elapsed = time.perf_counter() - t0
    _report(
        10,
        "exact-substrate",
        failures == 0,
        f"{n} random matrices (dims <= 8), {failures} failures, {elapsed:.1f}s",
    )
