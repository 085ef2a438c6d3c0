#!/usr/bin/env python
"""Campaign smoke: the sfi and beam subcommands end to end at two worker counts.

Runs ``repro-sart sfi`` and ``repro-sart beam`` on fib at ``--workers 1``
and ``--workers 2`` through the one lane-campaign runner, each exporting
its result document (``--export-json``) into a temporary directory, and
checks that each pair of documents is identical once
:func:`repro.serve.stable_result` drops timings and provenance: the
exported science must not depend on ``--workers``.

Usage::

    python tools/campaign_smoke.py     # repro importable (pip install -e .)

Exits 1 and prints the failing command's output or the differing
documents when a check fails.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

from repro.serve import stable_result

CASE_TIMEOUT = 120  # seconds per subcommand run
WORKERS = (1, 2)
# kind -> CLI arguments before --workers/--export-json
CAMPAIGNS = {
    "sfi": ["sfi", "fib", "--injections", "126", "--lanes-per-pass", "21"],
    "beam": ["beam", "fib", "--exposures", "42", "--lanes-per-pass", "7"],
}


def _export(args: list[str], workers: int, path: Path) -> dict:
    cmd = [sys.executable, "-m", "repro.cli", *args,
           "--workers", str(workers), "--export-json", str(path)]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=CASE_TIMEOUT)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {proc.returncode}\n"
                             f"{proc.stdout}{proc.stderr}")
    return stable_result(json.loads(path.read_text(encoding="utf-8")))


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for kind, args in CAMPAIGNS.items():
            try:
                one, two = (_export(args, w, Path(tmp) / f"{kind}-{w}.json")
                            for w in WORKERS)
                assert one == two, f"documents differ:\n{one}\n{two}"
            except Exception as exc:
                print(f"FAIL campaign smoke ({kind}): {exc}")
                return 1
            print(f"{kind}: identical at --workers 1 and 2")
    print("campaign smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
