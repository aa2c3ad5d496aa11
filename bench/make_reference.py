"""Record the reference outputs that ``checks.py`` compares against.

Runs every invocation any seed can generate (``workloads.pool``) through
``stripgaps.cli.main`` and stores its exit status and stdout in
``reference.json``, keyed by the invocation key.  The file is recorded once,
when the benchmark is written; later changes are checked against it, so
re-record it only when an output is meant to change, and say why.

    python3 bench/make_reference.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from stripgaps import cli  # noqa: E402
from workloads import pool  # noqa: E402


def main() -> int:
    reference = {}
    for inv in pool(BENCH.parent / ".bench_out"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = cli.main(list(inv.argv))
        reference[inv.key] = {"status": status, "stdout": out.getvalue()}
        print(f"{status} {inv.key}", file=sys.stderr)
    with open(BENCH / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
