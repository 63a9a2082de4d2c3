"""One traced `laxepi` CLI call, for the traced cli-check run.

    python3 benchmarks/cli_child.py OUT.json <laxepi arguments...>

Times `import laxepi.cli`, wraps the traced layers, runs `cli.main` on the
arguments (the report goes to standard output as usual) and writes the
layer totals, the import time and the span count to OUT.json. It exits with
the CLI's exit code.
"""

import json
import sys
import time

from tracer import Tracer


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import laxepi.cli

    import_ms = (time.perf_counter() - start) * 1e3
    tracer = Tracer()
    tracer.install()
    try:
        return laxepi.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "totals": tracer.layer_totals(),
                    "import_ms": import_ms,
                    "spans": tracer.span_count(),
                },
                fh,
            )


if __name__ == "__main__":
    sys.exit(main())
