"""Record the output digests of this numeric environment for tier-1.

    python3 tools/record_digests.py

Writes ``tests/digests/<fingerprint>.txt``: the fields of
``output_digests.fingerprint_fields`` as ``key = value`` lines, a blank
line, then ``output_digests.gate_lines`` at seed 42: per run the first
three columns that ``output_digests.py --seed 42`` prints (label,
metrics and events digests), per run its registry digest, and one line
per command of ``output_digests.CLI_COMMANDS`` (stdout and every file
written). ``tests/test_digests.py`` compares every later run with the
file of its environment. The digest files change only through this
script: re-record only in a change that moves outputs on purpose, and
name each changed line and its reason; a change that claims speed or
design alone must reproduce the recorded lines.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from output_digests import ROOT, fingerprint, fingerprint_fields, gate_lines

SEED = 42


def main() -> int:
    fields = fingerprint_fields()
    lines = [f"{key} = {value}" for key, value in fields] + [""]
    with tempfile.TemporaryDirectory() as work:
        lines += gate_lines(SEED, Path(work))
    out = ROOT / "tests" / "digests" / f"{fingerprint(fields)}.txt"
    out.parent.mkdir(exist_ok=True)
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(out.relative_to(ROOT))
    return 0


if __name__ == "__main__":
    sys.exit(main())
