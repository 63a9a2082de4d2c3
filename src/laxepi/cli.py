"""Command line interface.

Exit codes: 0 verdict computed (the verdict itself is in the JSON report),
2 precondition violation, 3 parse error, 4 internal invariant failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from fractions import Fraction

from . import decide
from .category import validate_category
from .errors import InternalInvariantError, InvalidInstance, ParseError, PreconditionError
from .fileio import (
    Instance,
    load_instance,
    serialize_category,
    serialize_functor,
    serialize_module,
    rat_to_str,
)
from .functors import canonical_factorization, validate_functor
from .linalg import RationalMatrix, Subspace
from .modules import hom_modules, validate_module
from .torsion import ideal_closure, localize, quotient_hom


def _sanitize(obj):
    """Make report payloads JSON-serializable and deterministic."""
    if isinstance(obj, Fraction):
        return rat_to_str(obj)
    if isinstance(obj, RationalMatrix):
        return [[rat_to_str(x) for x in row] for row in obj.data]
    if isinstance(obj, Subspace):
        return {"ambient": obj.ambient_dim, "basis": _sanitize(obj.basis)}
    if isinstance(obj, dict):
        return {
            (k if isinstance(k, str) else "|".join(map(str, k)) if isinstance(k, tuple) else str(k)): _sanitize(v)
            for k, v in obj.items()
        }
    if isinstance(obj, (list, tuple)):
        return [_sanitize(x) for x in obj]
    if isinstance(obj, (bool, int, str, float)) or obj is None:
        return obj
    return str(obj)


def _hash_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


def _emit(report: dict) -> None:
    print(json.dumps(_sanitize(report), indent=2, sort_keys=True))


_LAWS = {"functors": validate_functor, "modules": validate_module}


def _need(inst: Instance, *wanted: tuple[str, str]) -> list:
    """The entries named by the (kind, name) pairs.  The modules and ideals
    among them must live over one category, the target of the functor among
    them; then each category they touch is validated once, then each functor
    and module.  The first mismatch or broken law raises InvalidInstance."""
    entries = []
    for kind, name in wanted:
        table = getattr(inst, kind)
        if name not in table:
            raise ParseError(f"no {kind[:-1]} named {name!r} in the instance file")
        entries.append(table[name])
    # an ideal is (category, generators); a functor or module is (value, *categories),
    # and an entry lives over its last category: a functor over its target
    (first, home), *rest = [
        (f"{kind}.{name}" + "'s target" * (kind == "functors"), e[0] if kind == "ideals" else e[-1])
        for (kind, name), e in zip(wanted, entries)
    ]
    for where, cat in rest:
        if inst.categories[cat] != inst.categories[home]:
            raise InvalidInstance(f"{where} lives over {cat}, not over {home} like {first}")
    cats = [c for (kind, _), e in zip(wanted, entries) for c in (e[:1] if kind == "ideals" else e[1:])]
    for cat in dict.fromkeys(cats):
        _lawful(f"categories.{cat}", validate_category(inst.categories[cat]))
    for (kind, name), e in zip(wanted, entries):
        if kind in _LAWS:
            _lawful(f"{kind}.{name}", _LAWS[kind](e[0]))
    return entries


def _lawful(where: str, problems: list[str]) -> None:
    if problems:
        more = f" (and {len(problems) - 1} more)" if len(problems) > 1 else ""
        raise InvalidInstance(f"{where}: {problems[0]}{more}")


def _closure(inst: Instance, ideal: tuple):
    cat_name, gens = ideal
    return ideal_closure(inst.categories[cat_name], gens)


def cmd_validate(args) -> int:
    inst = load_instance(args.file)
    report = {"command": "validate", "instance_hash": _hash_file(args.file)}
    problems = {}
    for name, c in inst.categories.items():
        p = validate_category(c)
        if p:
            problems[f"categories.{name}"] = p
    for name, (f, _, _) in inst.functors.items():
        p = validate_functor(f)
        if p:
            problems[f"functors.{name}"] = p
    for name, (m, _) in inst.modules.items():
        p = validate_module(m)
        if p:
            problems[f"modules.{name}"] = p
    ideal_status = {}
    for name, ideal in inst.ideals.items():
        try:
            t = _closure(inst, ideal)
            ideal_status[name] = "degenerate (zero ideal)" if t.is_degenerate else "ok"
        except PreconditionError as e:
            ideal_status[name] = e.code
    report["verdict"] = not problems
    report["problems"] = problems
    report["ideals"] = ideal_status
    _emit(report)
    return 0


def cmd_factor(args) -> int:
    inst = load_instance(args.file)
    [(f, src_name, tgt_name)] = _need(inst, ("functors", args.functor))
    t0 = time.perf_counter()
    fac = canonical_factorization(f)
    report = {
        "command": "factor",
        "functor": args.functor,
        "instance_hash": _hash_file(args.file),
        "mid_category": serialize_category(fac.mid),
        "s": serialize_functor(fac.s, src_name, "mid"),
        "i": serialize_functor(fac.i, "mid", tgt_name),
        "timing_s": round(time.perf_counter() - t0, 6),
    }
    _emit(report)
    return 0


def cmd_check(args) -> int:
    inst = load_instance(args.file)
    with_ideal = args.kind in decide.IDEAL_CHECKS
    if with_ideal and not args.ideal:
        raise ParseError(f"--ideal is required for kind {args.kind}")
    wanted = [("functors", args.functor)] + [("ideals", args.ideal)] * with_ideal
    (f, _, _), *ideals = _need(inst, *wanted)
    t0 = time.perf_counter()
    rep = getattr(decide, decide.CHECKS[args.kind])(f, *(_closure(inst, i) for i in ideals))
    report = {
        "command": "check",
        "kind": args.kind,
        "functor": args.functor,
        "ideal": args.ideal,
        "verdict": rep.verdict,
        "witnesses": rep.details,
        "instance_hash": _hash_file(args.file),
        "timing_s": round(time.perf_counter() - t0, 6),
    }
    _emit(report)
    return 0


def cmd_localize(args) -> int:
    inst = load_instance(args.file)
    (m, over_name), ideal = _need(inst, ("modules", args.module), ("ideals", args.ideal))
    t = _closure(inst, ideal)
    t0 = time.perf_counter()
    cm, unit = localize(t, m)
    report = {
        "command": "localize",
        "module": args.module,
        "ideal": args.ideal,
        "degenerate_ideal": t.is_degenerate,
        "closed_module": serialize_module(cm.module, over_name),
        "unit_components": {u: unit.components[u] for u in unit.components},
        "instance_hash": _hash_file(args.file),
        "timing_s": round(time.perf_counter() - t0, 6),
    }
    _emit(report)
    return 0


def cmd_hom(args) -> int:
    inst = load_instance(args.file)
    wanted = [("modules", getattr(args, "from")), ("modules", args.to)]
    wanted += [("ideals", args.ideal)] * bool(args.ideal)
    (x, _), (y, _), *ideal = _need(inst, *wanted)
    t0 = time.perf_counter()
    if ideal:
        basis = quotient_hom(_closure(inst, ideal[0]), x, y)
        kind = "quotient-hom"
    else:
        basis = hom_modules(x, y)
        kind = "hom"
    src_dims, tgt_dims = basis.source.dims, basis.target.dims  # localized, for a quotient Hom
    report = {
        "command": "hom",
        "kind": kind,
        "from": getattr(args, "from"),
        "to": args.to,
        "dimension": len(basis),
        "component_shapes": {u: [tgt_dims[u], d] for u, d in src_dims.items()} if basis else {},
        "instance_hash": _hash_file(args.file),
        "timing_s": round(time.perf_counter() - t0, 6),
    }
    _emit(report)
    return 0


def cmd_corpus_run(args) -> int:
    from .corpus import BUILTIN_NAMES, random_instance, run_builtin_table
    from .oracles import cross_check

    t0 = time.perf_counter()
    failures = []
    lines = []
    for name in BUILTIN_NAMES:
        for desc, ok, got, want in run_builtin_table(name):
            lines.append(f"{'PASS' if ok else 'FAIL'}  {desc}  got={got} want={want}")
            if not ok:
                failures.append(desc)
    for k in range(args.count):
        seed = args.seed + k
        try:
            problems = cross_check(random_instance(seed))
        except InternalInvariantError as e:
            problems = [str(e)]
        failures += [f"random[{seed}]: {p}" for p in problems]
        lines.append(f"{'FAIL' if problems else 'PASS'}  random seed {seed}")
    summary = {
        "command": "corpus run",
        "seed": args.seed,
        "count": args.count,
        "builtins": list(BUILTIN_NAMES),
        "failures": failures,
        "verdict": not failures,
        "timing_s": round(time.perf_counter() - t0, 6),
    }
    for line in lines:
        print(line)
    _emit(summary)
    return 0 if not failures else 1


def non_negative_int(text: str) -> int:
    """A non-negative int, for argparse."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, not {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="laxepi",
        description="Exact deciders for epimorphism-type properties of finite linear categories",
    )
    sub = p.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("validate", help="run all structural validators on an instance file")
    sp.add_argument("file")
    sp.set_defaults(fn=cmd_validate)

    sp = sub.add_parser("factor", help="emit the canonical factorization of a functor")
    sp.add_argument("file")
    sp.add_argument("--functor", required=True)
    sp.set_defaults(fn=cmd_factor)

    sp = sub.add_parser("check", help="run a decision procedure")
    sp.add_argument("file")
    sp.add_argument("--functor", required=True)
    sp.add_argument("--kind", required=True, choices=list(decide.CHECKS))
    sp.add_argument("--ideal", default=None)
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser("localize", help="emit the closed module and unit data")
    sp.add_argument("file")
    sp.add_argument("--module", required=True)
    sp.add_argument("--ideal", required=True)
    sp.set_defaults(fn=cmd_localize)

    sp = sub.add_parser("hom", help="Hom or quotient-Hom basis dimensions")
    sp.add_argument("file")
    sp.add_argument("--from", required=True)
    sp.add_argument("--to", required=True)
    sp.add_argument("--ideal", default=None)
    sp.set_defaults(fn=cmd_hom)

    sp = sub.add_parser("corpus", help="corpus subcommands")
    csub = sp.add_subparsers(dest="corpus_cmd", required=True)
    run = csub.add_parser("run", help="run builtin tables and random cross-validation")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--count", type=non_negative_int, default=10)
    run.set_defaults(fn=cmd_corpus_run)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except PreconditionError as e:
        print(json.dumps({"error": e.code, "message": str(e)}, indent=2))
        return 2
    except ParseError as e:
        print(json.dumps({"error": "E_PARSE", "message": str(e)}, indent=2))
        return 3
    except InternalInvariantError as e:
        print(json.dumps({"error": "E_INTERNAL_INVARIANT", "message": str(e)}, indent=2))
        return 4


if __name__ == "__main__":
    sys.exit(main())
