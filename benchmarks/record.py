"""Record the verdict tables in `expected/` that corpus-sweep and glax-tail check.

    python3 benchmarks/record.py corpus-sweep
    python3 benchmarks/record.py glax-tail

Decides every operation on every bundle of the workload's pool, with no
latency limit (glax-tail's slowest bundles take minutes), and writes
`expected/<workload>.json`. Run it only when the pool or the operation mix
changes; a verdict that differs from the table is a bug in the library.
"""

import argparse
import json
import sys
import time

from workloads import EXPECTED, ROOT, CorpusSweep, GlaxTail, corpus_ops, glax_op


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload", choices=(CorpusSweep.name, GlaxTail.name))
    args = ap.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    from laxepi import corpus
    from laxepi.errors import PreconditionError

    pool = CorpusSweep.pool if args.workload == CorpusSweep.name else GlaxTail.pool
    verdicts = {}
    for s in range(pool):
        b = corpus.random_instance(s)
        if args.workload == CorpusSweep.name:
            ops = corpus_ops(b)
        else:
            ops = [("glax", glax_op(b))]
        row, times = {}, {}
        for key, fn in ops:
            start = time.perf_counter()
            try:
                row[key] = fn()
            except PreconditionError as e:
                row[key] = f"refused:{e.code}"
            times[key] = round(time.perf_counter() - start, 4)
        verdicts[str(s)] = row if args.workload == CorpusSweep.name else row["glax"]
        print(s, json.dumps(verdicts[str(s)]), json.dumps(times), flush=True)
    doc = {
        "workload": args.workload,
        "pool": f"corpus.random_instance seeds 0..{pool - 1}",
        "verdicts": verdicts,
    }
    with open(EXPECTED / f"{args.workload}.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
