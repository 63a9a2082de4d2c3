"""The README's library tour runs as written and prints what its comments say."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

BLOCK = re.compile(r"^```python\n(.*?)^```", re.S | re.M)
PRINTED = re.compile(r"^\s*print\(.*\)\s*#\s*(.+)$")


def _printed_line_matches(line: str, comment: str) -> bool:
    """The comment is the printed value, alone or followed by ': a note'."""
    return bool(line) and (comment == line or comment.startswith(line + ":"))


def test_readme_python_blocks_print_their_comments():
    """Each python block of README.md, run in a fresh interpreter on src/,
    exits 0 and prints one line per commented print call, each line the value
    its `# ...` comment starts with."""
    blocks = BLOCK.findall((ROOT / "README.md").read_text(encoding="utf-8"))
    assert blocks
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    for code in blocks:
        comments = [m.group(1).strip() for m in map(PRINTED.match, code.splitlines()) if m]
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert comments and len(lines) == len(comments), (lines, comments)
        for line, comment in zip(lines, comments):
            assert _printed_line_matches(line, comment), (line, comment)
