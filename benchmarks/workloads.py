"""The benchmark's four workloads over the public laxepi API and CLI.

A workload makes its inputs from the run's seed in `setup`; each call of
`passes` is one round, the workload's fixed list of operations, yielded in
passes. A run repeats rounds to fill its seconds; only operations are
timed. Every operation carries the verdict it must return, so each one is
checked:

- corpus-sweep and glax-tail against tables recorded in `expected/` for
  every bundle of their pools (`record.py` writes them);
- an-ladder against closed forms for the linear quiver A_n;
- cli-check against `corpus.Expectation.want`, the A_n closed forms and the
  corpus-sweep table.

A refusal (`PreconditionError`, exit 2 in the CLI) is a verdict of the form
"refused:<error code>" and is checked like any other. Operations call the
library through its modules (`decide.is_epi`, not a name imported here),
so that the tracer's rebinding reaches them.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Iterator

from gauge import IN_PROCESS, NEW_PROCESS, Gauge

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected"


@dataclass
class Op:
    key: str  # stable name of the operation, e.g. "17:lax-epi"
    run: Callable[[], object]  # returns the verdict as a JSON value
    want: object  # the verdict the operation must return


class Workload:
    """A fixed list of operations per round; every round has at least 100 of
    them, enough for the p90 rule (10 samples beyond p90)."""

    name = ""
    latency_limit: float | None = None  # seconds at the reference speed
    round_s = 1.0  # time of one round at the reference speed, as measured

    def gauge(self) -> Gauge:
        """The host-speed gauge its times are corrected by (gauge.py)."""
        return Gauge(IN_PROCESS)

    def rounds(self, seconds: float) -> int:
        """Whole rounds nearest to `seconds` at the reference speed, at least one."""
        return max(1, round(seconds / self.round_s))

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def passes(self) -> Iterator[list[Op]]:
        raise NotImplementedError

    def close(self) -> None:
        pass


def child_env() -> dict:
    """Environment for a child interpreter that imports laxepi from the sources."""
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def load_expected(name: str) -> dict:
    with open(EXPECTED / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# corpus-sweep: the mix of `laxepi corpus run` over seeded random bundles
# ---------------------------------------------------------------------------


def _localized_dims(t, m) -> list[int]:
    from laxepi import torsion

    cm, _ = torsion.localize(t, m)
    return [cm.module.dims[u] for u in m.over.objects]


def _adjunction_ok(b) -> bool:
    from laxepi import functors

    return functors.adjunction_check(b.surjective_functor, b.modules[:1], b.modules[:1])["ok"]


def corpus_ops(b) -> list[tuple[str, Callable[[], object]]]:
    """Every corpus-sweep operation on one bundle, as (name, thunk) pairs."""
    from laxepi import decide

    f, sf, t0 = b.functor, b.surjective_functor, b.ideals[0]
    ops = [
        ("lax-epi", lambda: decide.is_lax_epi(f).verdict),
        ("epi", lambda: decide.is_epi(sf).verdict),
        ("flat", lambda: decide.is_flat(f).verdict),
        ("flat-quotient", lambda: decide.is_flat_quotient(sf, t0).verdict),
    ]
    if sf.is_bijective_on_objects():
        ops.append(("cond-epi", lambda: decide.is_conditioned_epi(sf, t0).verdict))
    for i, m in enumerate(b.modules):
        for j, t in enumerate(b.ideals):
            if t.cat is m.over or t.cat == m.over:
                ops.append((f"localize:m{i}:t{j}", partial(_localized_dims, t, m)))
    ops.append(("adjunction", partial(_adjunction_ok, b)))
    return ops


def pool_in_seeded_order(size: int, seed: int) -> list:
    """Every bundle of the pool `corpus.random_instance(0..size-1)`, shuffled by seed."""
    from laxepi import corpus

    return [corpus.random_instance(s) for s in random.Random(seed).sample(range(size), size)]


class CorpusSweep(Workload):
    """Every bundle of the pool once per round, in an order set by the seed.

    Per-operation times are heavy-tailed (up to 1.8 s against a 4 ms median),
    so runs that sampled different bundles would differ by their sample:
    drawing 150 of 600 recorded bundles per seed gave a 15-17 % interquartile
    spread in ops/s. Deciding the same pool in every run removes that.
    """

    name = "corpus-sweep"
    pool = 150  # bundle seeds 0..149, all recorded in expected/corpus-sweep.json
    round_s = 13.0

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.expected = load_expected(self.name)["verdicts"]
        self.bundles = pool_in_seeded_order(self.pool, seed)

    def passes(self) -> Iterator[list[Op]]:
        # Later rounds get fresh bundles: TorsionData caches its J modules.
        bundles, self.bundles = self.bundles or pool_in_seeded_order(self.pool, self.seed), None
        for b in bundles:
            want = self.expected[str(b.seed)]
            yield [Op(f"{b.seed}:{k}", fn, want.get(k)) for k, fn in corpus_ops(b)]


# ---------------------------------------------------------------------------
# glax-tail: generalized lax epi over a fixed pool, with a latency limit
# ---------------------------------------------------------------------------


def glax_op(b) -> Callable[[], object]:
    from laxepi import decide

    return lambda: decide.is_generalized_lax_epi(b.surjective_functor, b.ideals[0]).verdict


class GlaxTail(Workload):
    """Every bundle of the pool once per round, in an order set by the seed.

    The tail is rare (9 of the 200 pool bundles run past the limit), so a
    run that sampled fresh bundles would carry the sample's tail count in
    its numbers; deciding the whole pool keeps runs comparable. A pool of
    150 was tried to save time: its p90 fell in a gap between decisions
    and spread 28 % over 10 seeds, against 5 % with 200.
    """

    name = "glax-tail"
    pool = 200  # bundle seeds 0..199, all recorded in expected/glax-tail.json
    # In the gap between the slowest decision under it (0.86-1.04 s) and the
    # fastest over it (7.7 s), a factor of 2 or more from each.
    latency_limit = 2.0
    round_s = 27.0

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.expected = load_expected(self.name)["verdicts"]
        self.bundles = pool_in_seeded_order(self.pool, seed)

    def passes(self) -> Iterator[list[Op]]:
        bundles, self.bundles = self.bundles or pool_in_seeded_order(self.pool, self.seed), None
        yield [Op(f"{b.seed}:glax", glax_op(b), self.expected[str(b.seed)]) for b in bundles]


# ---------------------------------------------------------------------------
# an-ladder: path categories of the linear quiver A_n
# ---------------------------------------------------------------------------


def a_n(n: int):
    from laxepi import category

    vertices = [str(i) for i in range(1, n + 1)]
    arrows = [(f"a{i}", str(i), str(i + 1)) for i in range(1, n)]
    return category.from_quiver(vertices, arrows, (), nilpotency=n)


def regular_module(c):
    """Direct sum of the representables of c."""
    from laxepi import modules

    total, _, _ = modules.direct_sum([modules.yoneda(c, u) for u in c.objects], over=c)
    return total


def localized_dims_an(n: int, k: int) -> list[int]:
    """dim of localize(reg) at the ideal of e_k, vertex by vertex: n-k+1 from k on."""
    return [n - k + 1 if v >= k else 0 for v in range(1, n + 1)]


def _ideal_total_dim(c, k: int) -> int:
    from laxepi import torsion

    t = torsion.ideal_closure(c, [c.identity(str(k))])
    return sum(s.dim for s in t.ideal.values())


def _validate(c) -> list:
    from laxepi import category

    return category.validate_category(c)


def _hom_dim(x, y) -> int:
    from laxepi import modules

    return len(modules.hom_modules(x, y))


class ANLadder(Workload):
    """validate, ideal closure, Hom(reg, reg) and two localizations per rung.

    `ideal_closure` and `localize(reg)` run at the ideal of the middle
    vertex k = (n+1)//2, and `localize(reg)` also at the ideal of e_1. The
    seed sets the order of the operations in each pass. It does not pick
    the vertices: operations near the median differ by a few ms, and a
    seed-dependent mix moved the median by 12 % between seeds.

    The ladder has an odd number of distinct operations (25), so that the
    median falls among the passes of one operation. With an even number it
    fell between two operations whose times differ by a third, and moved
    between them from run to run.
    """

    name = "an-ladder"
    ladder = (4, 5, 6, 7, 8)
    passes_per_round = 8  # 200 operations: 8 of each, for steadier p50 and p90
    round_s = 19.0

    def setup(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.first_pass = self._pass_ops()

    def _pass_ops(self) -> list[Op]:
        """One pass, each operation on a category, module and ideal made for it
        alone. These cache what they compute, so an operation that shared them
        would take a time that depends on what the seeded order ran before it."""
        from laxepi import torsion

        def fresh(n):
            c = a_n(n)
            return c, regular_module(c)

        ops = []
        for n in self.ladder:
            mid = (n + 1) // 2
            c_val, c_ideal, (c_hom, reg_hom) = a_n(n), a_n(n), fresh(n)
            (c1, reg1), (cm, regm) = fresh(n), fresh(n)
            t1 = torsion.ideal_closure(c1, [c1.identity("1")])
            tm = torsion.ideal_closure(cm, [cm.identity(str(mid))])
            ops += [
                Op(f"A{n}:validate", partial(_validate, c_val), []),
                Op(f"A{n}:ideal_closure:e{mid}", partial(_ideal_total_dim, c_ideal, mid),
                   mid * (n - mid + 1)),
                Op(f"A{n}:hom", partial(_hom_dim, reg_hom, reg_hom), n * (n + 1) // 2),
                Op(f"A{n}:localize:e1", partial(_localized_dims, t1, reg1),
                   localized_dims_an(n, 1)),
                Op(f"A{n}:localize:e{mid}", partial(_localized_dims, tm, regm),
                   localized_dims_an(n, mid)),
            ]
        return ops

    def passes(self) -> Iterator[list[Op]]:
        for _ in range(self.passes_per_round):
            ops, self.first_pass = self.first_pass or self._pass_ops(), None
            self.rng.shuffle(ops)
            yield ops


# ---------------------------------------------------------------------------
# cli-check: one fresh `python -m laxepi.cli` process per call
# ---------------------------------------------------------------------------

CLI_KINDS = {"epi", "lax-epi", "flat", "flat-epi", "cond-epi", "glax", "abelian-localization"}


def random_bundle_instance(b):
    """A corpus bundle in instance form: src, tgt, functors f and sf, m0..m2, t0, t1."""
    from laxepi import fileio

    inst = fileio.Instance()
    inst.categories = {"src": b.category, "tgt": b.target_category}
    inst.functors = {"f": (b.functor, "src", "tgt"), "sf": (b.surjective_functor, "src", "src")}
    names = {id(b.category): "src", id(b.target_category): "tgt"}
    inst.modules = {f"m{i}": (m, names[id(m.over)]) for i, m in enumerate(b.modules)}
    for j, t in enumerate(b.ideals):
        gens = list(t.generators)
        if not gens and t.is_trivial:
            gens = [t.cat.identity(u) for u in t.cat.objects]
        inst.ideals[f"t{j}"] = ("src" if j == 0 else "tgt", gens)
    return inst


class CliCheck(Workload):
    """Builtins, A_3..A_5 and three seeded corpus bundles, written as instance files."""

    name = "cli-check"
    ladder = (3, 4, 5)
    bundles = 3
    passes_per_round = 2  # 110 calls
    round_s = 18.0

    def __init__(self, traced: bool = False):
        self.traced = traced
        self.workdir = HERE / ".work" / f"{os.getpid()}"
        self.child_totals: list[dict] = []

    def gauge(self) -> Gauge:
        return Gauge(NEW_PROCESS)  # each call is a fresh process

    def _write(self, name: str, inst) -> str:
        from laxepi import fileio

        path = self.workdir / f"{name}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(fileio.serialize_instance(inst), fh)
        return str(path)

    def setup(self, seed: int) -> None:
        from laxepi import corpus, fileio

        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        expected = load_expected(CorpusSweep.name)["verdicts"]
        calls: list[tuple[str, list[str], object]] = []
        for name in corpus.BUILTIN_NAMES:
            bundle = corpus.builtin(name)
            path = self._write(f"builtin-{name}", fileio.bundle_to_instance(bundle))
            calls.append((f"{name}:validate", ["validate", path], True))
            for exp in bundle.expected:
                if exp.kind == "epi-error":
                    argv = ["check", path, "--functor", exp.args["functor"], "--kind", "epi"]
                    calls.append((f"{name}:epi-error", argv, f"refused:{exp.want}"))
                elif exp.kind == "ideal-error":
                    f = next(iter(bundle.functors))
                    argv = ["check", path, "--functor", f, "--kind", "cond-epi",
                            "--ideal", exp.args["generators"]]
                    calls.append((f"{name}:ideal-error", argv, f"refused:{exp.want}"))
                elif exp.kind in CLI_KINDS:
                    argv = ["check", path, "--functor", exp.args["functor"], "--kind", exp.kind]
                    if "ideal" in exp.args:
                        argv += ["--ideal", exp.args["ideal"]]
                    calls.append((f"{name}:{exp.kind}", argv, exp.want))
        for n in self.ladder:
            c = a_n(n)
            mid = (n + 1) // 2
            inst = fileio.Instance(
                categories={"A": c},
                modules={"reg": (regular_module(c), "A")},
                ideals={"e1": ("A", [c.identity("1")]), "emid": ("A", [c.identity(str(mid))])},
            )
            path = self._write(f"A{n}", inst)
            calls += [
                (f"A{n}:validate", ["validate", path], True),
                (f"A{n}:hom", ["hom", path, "--from", "reg", "--to", "reg"], n * (n + 1) // 2),
                (f"A{n}:localize:e{mid}",
                 ["localize", path, "--module", "reg", "--ideal", "emid"],
                 localized_dims_an(n, mid)),
            ]
        for s in random.Random(seed).sample(range(CorpusSweep.pool), self.bundles):
            b = corpus.random_instance(s)
            want = expected[str(s)]
            path = self._write(f"bundle-{s}", random_bundle_instance(b))
            calls += [
                (f"{s}:lax-epi", ["check", path, "--functor", "f", "--kind", "lax-epi"],
                 want["lax-epi"]),
                (f"{s}:epi", ["check", path, "--functor", "sf", "--kind", "epi"], want["epi"]),
                (f"{s}:flat", ["check", path, "--functor", "f", "--kind", "flat"], want["flat"]),
            ]
            if "localize:m0:t0" in want:
                calls.append((f"{s}:localize:m0:t0",
                              ["localize", path, "--module", "m0", "--ideal", "t0"],
                              want["localize:m0:t0"]))
        self.calls = calls

    def passes(self) -> Iterator[list[Op]]:
        ops = [Op(key, partial(self._call, argv), want) for key, argv, want in self.calls]
        for _ in range(self.passes_per_round):
            yield ops

    def _call(self, argv: list[str]) -> object:
        if self.traced:
            out_file = self.workdir / "child-trace.json"
            cmd = [sys.executable, str(HERE / "cli_child.py"), str(out_file), *argv]
        else:
            cmd = [sys.executable, "-m", "laxepi.cli", *argv]
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=120
        )
        if self.traced:
            with open(out_file, encoding="utf-8") as fh:
                self.child_totals.append(json.load(fh))
        return cli_verdict(argv[0], proc.returncode, proc.stdout)

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        try:
            self.workdir.parent.rmdir()
        except OSError:
            pass


def cli_verdict(command: str, code: int, stdout: str) -> object:
    """The verdict a CLI call reports; exit 2 is a refusal with its error code."""
    report = json.loads(stdout)
    if code == 2:
        return f"refused:{report['error']}"
    if code != 0:
        return f"exit {code}: {report.get('error')}"
    if command == "hom":
        return report["dimension"]
    if command == "localize":
        # Objects are "1".."n" (A_n) or "v0".."v2" (corpus), in that order.
        dims = report["closed_module"]["dims"]
        return [dims[u] for u in sorted(dims, key=lambda u: (len(u), u))]
    return report["verdict"]


def make(name: str, traced: bool = False) -> Workload:
    if name == CliCheck.name:
        return CliCheck(traced)
    return {w.name: w for w in (CorpusSweep, GlaxTail, ANLadder)}[name]()


WORKLOADS = (CorpusSweep.name, ANLadder.name, GlaxTail.name, CliCheck.name)
