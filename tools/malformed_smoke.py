#!/usr/bin/env python
"""Malformed-input smoke: one bad case per trust-boundary input.

Feeds ``repro-sart`` a malformed EXLIF line, a bad run-spec value, an
out-of-range ports-file value, a non-finite design-ref parameter and an
oversized design ref. Each case must exit non-zero within
:data:`CASE_TIMEOUT` seconds, name the offending line or key, and print
no traceback (a ``ReproError`` is one line, never a stack).

Usage::

    python tools/malformed_smoke.py     # repro importable (pip install -e .)

Exits 1 and prints the offending output when any case misbehaves.
"""

from __future__ import annotations

import subprocess
import sys
import tempfile
from pathlib import Path

# name -> (files to write, CLI arguments, text the output must contain)
CASES = {
    "EXLIF line": (
        {"bad.exlif": ".model m\n.inputs a\n.outputs y\n"
                      ".latch r d=a q=y init=x\n.end\n"},
        ["analyze", "{dir}/bad.exlif"],
        "line 4",
    ),
    "run-spec value": (
        {"bad.toml": 'design = "tinycore:fib"\n[sfi]\ninjections = "x"\n'},
        ["run", "{dir}/bad.toml"],
        "injections",
    ),
    "ports-file value": (
        {"ports.txt": "rf 1.5 0.2\n",
         "ports.toml": 'design = "tinycore:fib"\nports = "{dir}/ports.txt"\n'},
        ["run", "{dir}/ports.toml"],
        "ports.txt:1",
    ),
    "design-ref parameter": (
        {},
        ["bigcore", "--scale", "nan"],
        "scale='nan'",
    ),
    # Refused by the generators' node ceiling before anything is built.
    "oversized design ref": (
        {},
        ["bigcore", "--scale", "1e300"],
        "scale=1e+300",
    ),
}

# Seconds one case may take; each is refused at start-up, in a few.
CASE_TIMEOUT = 60


def main() -> int:
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, (files, argv, expected) in CASES.items():
            for filename, text in files.items():
                Path(tmp, filename).write_text(text.replace("{dir}", tmp))
            args = [arg.replace("{dir}", tmp) for arg in argv]
            try:
                run = subprocess.run(
                    [sys.executable, "-m", "repro.cli", *args],
                    capture_output=True, text=True, timeout=CASE_TIMEOUT,
                )
            except subprocess.TimeoutExpired:
                failed += 1
                print(f"FAIL {name}: still running after {CASE_TIMEOUT} s")
                continue
            output = run.stdout + run.stderr
            problems = [why for why, bad in (
                ("exited 0", run.returncode == 0),
                (f"does not name {expected!r}", expected not in output),
                ("printed a traceback", "Traceback" in output),
            ) if bad]
            if problems:
                failed += 1
                print(f"FAIL {name}: {', '.join(problems)}\n{output}")
            else:
                print(f"ok   {name}: {output.strip().splitlines()[-1]}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
