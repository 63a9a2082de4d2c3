"""Span tracer that wraps laxepi's public functions from outside the library.

`Tracer.install` replaces each traced function by a wrapper in every loaded
`laxepi` module that holds it (the modules use `from .linalg import ...`, so
each importer has its own binding) and on the class for methods. A wrapper
records one span per call: name, start, end and parent span. Spans stay in
memory until `layer_totals` turns them into per-layer calls, self times and
counters. `uninstall` puts the original functions back.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Iterable


def _rref_counts(args, result):
    rows, cols = args[0], args[1]
    return {"cells": len(rows) * cols, "nnz": sum(1 for r in rows for x in r if x)}


def _matmul_counts(args, result):
    a, b = args
    return {"mults": a.rows * a.cols * b.cols}


def _hom_counts(args, result):
    x, y = args
    c = x.over
    return {
        "unknowns": sum(x.dims[u] * y.dims[u] for u in c.objects),
        "equations": sum(
            c.hom_dim(v, u) * y.dims[v] * x.dims[u] for v, u in c.hom_pairs()
        ),
    }


def _is_product(args) -> bool:
    return hasattr(args[1], "cols")  # RationalMatrix * RationalMatrix, not a scalar multiple


def _big_width(args, result):
    return {"big_width": max((p.cols for p in result.projections.values()), default=0)}


def _localize_counts(args, result):
    return {"dim_in": args[1].total_dim(), "dim_out": result[0].module.total_dim()}


@dataclass(frozen=True)
class Target:
    """One traced function: layer name, owner (module or class path) and attribute."""

    name: str
    owner: str
    attr: str
    pre: Callable | None = None  # counters read before the call (arguments it mutates)
    post: Callable | None = None  # counters read from arguments and result
    span: bool = True  # False: count calls only, record no span
    applies: Callable | None = None  # calls it rejects pass through untraced


# Counters that keep their largest value; all others are summed.
MAX_COUNTERS = frozenset({"big_width"})


_DECIDERS = {
    "epi": "is_epi",
    "lax_epi": "is_lax_epi",
    "flat": "is_flat",
    "flat_quotient": "is_flat_quotient",
    "flat_epi": "is_flat_epi",
    "cond_epi": "is_conditioned_epi",
    "glax": "is_generalized_lax_epi",
    "abelian_localization": "is_abelian_localization",
    "ffr": "fully_faithful_restriction",
}

TARGETS: tuple[Target, ...] = (
    # `_rref_rows` is the one Gauss-Jordan routine behind rref, kernel_basis
    # and Subspace.from_vectors, so it is the span that sees all elimination.
    Target("linalg.rref", "laxepi.linalg", "_rref_rows", pre=_rref_counts),
    Target("linalg.kernel_basis", "laxepi.linalg", "kernel_basis"),
    Target("linalg.echelon_insert", "laxepi.linalg:EchelonBasis", "insert"),
    Target(
        "linalg.matmul", "laxepi.linalg:RationalMatrix", "__mul__",
        pre=_matmul_counts, applies=_is_product,
    ),
    Target("linalg.matrix_new", "laxepi.linalg:RationalMatrix", "__init__", span=False),
    Target("category.compose", "laxepi.category", "compose"),
    Target("category.validate", "laxepi.category", "validate_category"),
    Target("modules.hom_modules", "laxepi.modules", "hom_modules", pre=_hom_counts),
    Target("modules.kernel", "laxepi.modules", "kernel"),
    Target("modules.quotient_by", "laxepi.modules", "quotient_by"),
    Target("functors.induce", "laxepi.functors", "induce", post=_big_width),
    Target("functors.counit", "laxepi.functors", "counit"),
    Target("functors.tensor_bimodule", "laxepi.functors", "tensor_bimodule", post=_big_width),
    Target("functors.coinduce", "laxepi.functors", "coinduce"),
    Target(
        "functors.factorization_localized",
        "laxepi.functors",
        "canonical_factorization_localized",
    ),
    Target("torsion.localize", "laxepi.torsion", "localize", post=_localize_counts),
    Target("torsion.is_closed", "laxepi.torsion", "is_closed"),
    Target("torsion.ideal_closure", "laxepi.torsion", "ideal_closure"),
    *(Target(f"decide.{kind}", "laxepi.decide", fn) for kind, fn in _DECIDERS.items()),
    Target("oracles.multiplication_map_iso", "laxepi.oracles", "multiplication_map_iso"),
    Target("oracles.restriction_hom_ranks", "laxepi.oracles", "restriction_hom_ranks"),
    Target("radical.radical_and_simples", "laxepi.radical", "radical_and_simples"),
    Target("fileio.load_instance", "laxepi.fileio", "load_instance"),
    Target("cli.main", "laxepi.cli", "main"),
)


def self_times(spans: Iterable[tuple[int, float, float, int]]) -> list[float]:
    """Self time of each span: its duration minus the union of its children.

    `spans` holds (name id, start, end, parent index), parent -1 for a root.
    Children are clipped to their parent, and overlapping or back-to-back
    children are merged, so no interval is subtracted twice.
    """
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


class Tracer:
    """Records spans and counters for the functions in `targets`."""

    def __init__(self, targets: Iterable[Target] = TARGETS):
        self.targets = tuple(targets)
        self.names = [t.name for t in self.targets]
        self.name_ids = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.calls = defaultdict(int)
        self.counters: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        # Import every owner first, so the rebinding pass sees all importers.
        owners = [_resolve(t.owner) for t in self.targets]
        modules = [
            m for name, m in sys.modules.items()
            if m is not None and (name == "laxepi" or name.startswith("laxepi."))
        ]
        for tid, (target, owner) in enumerate(zip(self.targets, owners)):
            original = getattr(owner, target.attr, None) if owner is not None else None
            if original is None:
                self.missing.append(target.name)
                continue
            wrapper = self._wrap(tid, target, original)
            if isinstance(owner, type):
                self._rebind(owner, target.attr, wrapper)
                continue
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _rebind(self, owner, attr, wrapper) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, tid: int, target: Target, fn: Callable) -> Callable:
        name = target.name
        calls, counters = self.calls, self.counters
        if not target.span:

            def count_only(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return count_only

        pre, post, applies = target.pre, target.post, target.applies
        stack = self._stack
        name_ids, starts, ends, parents = self.name_ids, self.starts, self.ends, self.parents
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if applies is not None and not applies(args):
                return fn(*args, **kwargs)
            calls[name] += 1
            if pre is not None:
                for key, value in pre(args, None).items():
                    counters[name][key] += value
            idx = len(starts)
            name_ids.append(tid)
            parents.append(stack[-1] if stack else -1)
            starts.append(clock())
            ends.append(0.0)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if post is not None:
                for key, value in post(args, result).items():
                    if key in MAX_COUNTERS:
                        counters[name][key] = max(counters[name][key], value)
                    else:
                        counters[name][key] += value
            return result

        return traced

    # -- results ------------------------------------------------------------

    def span_count(self) -> int:
        return len(self.starts)

    def spans(self):
        return zip(self.name_ids, self.starts, self.ends, self.parents)

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per layer: calls, summed self time and the layer's counters."""
        totals: dict[str, dict[str, float]] = {
            t.name: {"calls": 0, "self_s": 0.0} if t.span else {"calls": 0}
            for t in self.targets
        }
        for (tid, *_), own in zip(self.spans(), self_times(self.spans())):
            totals[self.names[tid]]["self_s"] += own
        for name, n in self.calls.items():
            totals[name]["calls"] = n
        for name, cs in self.counters.items():
            totals[name].update(cs)
        return totals


def merge_totals(into: dict, other: dict) -> None:
    """Add layer totals from another process (a traced CLI child) into `into`."""
    for name, fields in other.items():
        slot = into.setdefault(name, {})
        for key, value in fields.items():
            if key in MAX_COUNTERS:
                slot[key] = max(slot.get(key, 0), value)
            else:
                slot[key] = slot.get(key, 0) + value


def _resolve(path: str):
    """'pkg.mod' -> module, 'pkg.mod:Class' -> class; None when absent."""
    mod_name, _, cls = path.partition(":")
    try:
        mod = importlib.import_module(mod_name)
    except ImportError:
        return None
    return getattr(mod, cls, None) if cls else mod
