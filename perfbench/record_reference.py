#!/usr/bin/env python3
"""Record the reference transcripts that every benchmark run is checked against.

    python3 perfbench/record_reference.py

Run from the repository root, on the commit whose output is the reference
(the transcripts in ``perfbench/reference/`` were recorded at commit
826f19a).  Each workload's invocations run once, untraced, in a fresh
interpreter; their stdout and exit codes are stored xz-compressed.
"""

from __future__ import annotations

import json
import lzma
import sys
import time

from run import REFERENCE, RUN_LIMIT_S, run_pass
from workloads import WORKLOADS


def main() -> int:
    REFERENCE.mkdir(parents=True, exist_ok=True)
    for workload, invocations in WORKLOADS.items():
        result, transcripts, _ = run_pass(invocations, False, time.monotonic() + 10 * RUN_LIMIT_S)
        data = {"workload": workload, "invocations": [
            {"argv": argv, "exit": run["exit"], "stdout": text}
            for argv, run, text in zip(invocations, result["runs"], transcripts)]}
        with lzma.open(REFERENCE / f"{workload}.json.xz", "wt", encoding="utf-8") as fh:
            json.dump(data, fh, indent=0)
        print(f"{workload}: exits {[run['exit'] for run in result['runs']]}, "
              f"{sum(len(t) for t in transcripts)} bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
