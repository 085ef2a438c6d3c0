#!/usr/bin/env python
"""Campaign smoke: sfi, beam and MC masking end to end at two worker counts.

Runs ``repro-sart sfi`` and ``repro-sart beam`` on fib at ``--workers 1``
and ``--workers 2``, and ``repro-sart run`` on two fib run-specs with an
MC masking measurement (``[derating] mc_trials``) that differ only in
``[campaign] workers``, all through the one lane-campaign runner. Each
run exports its result document (``--export-json``) into a temporary
directory, and each pair of documents must be identical once
:func:`repro.serve.stable_result` drops timings and provenance: the
exported science must not depend on the worker count. With two workers
the second process's first pass starts from reset while the others fork
from the golden lane, so each campaign kind runs both start paths.

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
# The masking run-spec; only [campaign] workers differs between the two.
MASKING_SPEC = """design = "tinycore:fib"

[derating]
mc_trials = 48

[campaign]
lanes_per_pass = 16
workers = {workers}
"""


def _export(args: list[str], path: Path) -> dict:
    cmd = [sys.executable, "-m", "repro.cli", *args, "--export-json", str(path)]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=CASE_TIMEOUT)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {proc.returncode}\n"
                             f"{proc.stdout}{proc.stderr}")
    return stable_result(json.loads(path.read_text(encoding="utf-8")))


def _cases(tmp: Path) -> dict:
    """kind -> (the CLI arguments of one run at each worker count)."""
    cases = {kind: [[*args, "--workers", str(w)] for w in WORKERS]
             for kind, args in CAMPAIGNS.items()}
    masking = []
    for w in WORKERS:
        spec = tmp / f"masking-{w}.toml"
        spec.write_text(MASKING_SPEC.format(workers=w), encoding="utf-8")
        masking.append(["run", str(spec)])
    cases["masking"] = masking
    return cases


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for kind, runs in _cases(Path(tmp)).items():
            try:
                one, two = (_export(args, Path(tmp) / f"{kind}-{w}.json")
                            for w, args in zip(WORKERS, runs))
                assert one == two, f"documents differ:\n{one}\n{two}"
            except Exception as exc:
                print(f"FAIL campaign smoke ({kind}): {exc}")
                return 1
            print(f"{kind}: identical at 1 and 2 workers")
    print("campaign smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
