"""One pass of a workload in a fresh interpreter.

    python3 perfbench/child.py SPEC.json

SPEC names the invocations, the directory for their transcripts, the result
file and whether to install the layer trace.  The pass imports ``quenta``
from ``src/``, calls ``quenta.cli.main(argv)`` once per invocation with
stdout sent to a transcript file, and writes its timings to the result file.
An empty invocation list measures set-up alone.  Times are wall seconds;
each also comes calibrated for host speed (``hostspeed``).
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
import time
import traceback
from time import perf_counter

import hostspeed
import layertrace


def _boundary(record: list, summarize, cal: hostspeed.Calibrator):
    """A wrapper that appends (start, end, calibration time inside, summary) per call."""
    def outer(fn):
        def timed(*args, **kwargs):
            spent, t0 = cal.spent, perf_counter()
            result = fn(*args, **kwargs)
            record.append((t0, perf_counter(), cal.spent - spent, summarize(result)))
            return result
        return timed
    return outer


def _row_kinds(report) -> tuple[int, int]:
    """(measured rows, all rows) of one verification report."""
    measured = sum(1 for r in report.rows
                   if r.kind == "exact" or (r.kind == "lower_bound_ok" and r.note == "exhaustive"))
    return measured, len(report.rows)


def _calls_ms(record: list, cal: hostspeed.Calibrator) -> tuple[list[float], list[float]]:
    """(wall, calibrated) milliseconds of each recorded call."""
    wall = [(t1 - t0 - inside) * 1e3 for t0, t1, inside, _ in record]
    return wall, [ms * cal.factor(t0, t1) for ms, (t0, t1, _, _) in zip(wall, record)]


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    import quenta.cli

    tracer = None
    if spec["trace"]:
        tracer = layertrace.Tracer()
        tracer.install()
    cal = hostspeed.Calibrator()
    modules = layertrace.quenta_modules()
    oracle = sys.modules["quenta.oracle"]
    instances, rows = [], []
    layertrace.patch_everywhere(modules, oracle.verify_instance,
                                _boundary(instances, _row_kinds, cal)(oracle.verify_instance))
    layertrace.patch_everywhere(modules, quenta.cli.output_row,
                                _boundary(rows, lambda _: None, cal)(quenta.cli.output_row))

    t_ready = time.monotonic()
    cal.sample()
    runs = []
    cal.start()
    spent, t_first = cal.spent, perf_counter()
    try:
        for i, argv in enumerate(spec["invocations"]):
            path = os.path.join(spec["outdir"], f"{i}.out")
            with open(path, "w", encoding="utf-8") as out, contextlib.redirect_stdout(out):
                try:
                    code = quenta.cli.main(list(argv))
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 1
                except Exception:
                    traceback.print_exc()
                    code = 1
            runs.append({"exit": code})
        t_last = perf_counter()
    finally:
        cal.stop()
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sweep = t_last - t_first - (cal.spent - spent)
    cal.sample()

    instance_ms, instance_cal_ms = _calls_ms(instances, cal)
    row_ms, row_cal_ms = _calls_ms(rows, cal)
    result = {
        "quenta_file": quenta.__file__,
        "t_ready": t_ready,
        "wall": {"setup_factor": 1.0, "sweep_s": sweep,
                 "instance_ms": instance_ms, "row_ms": row_ms},
        "calibrated": {"setup_factor": hostspeed.REFERENCE_S / cal.samples[0][1],
                       "sweep_s": sweep * cal.factor(t_first, t_last),
                       "instance_ms": instance_cal_ms, "row_ms": row_cal_ms},
        "maxrss_kb": maxrss_kb,
        "runs": runs,
        "measured_rows": sum(s[0] for *_, s in instances),
        "report_rows": sum(s[1] for *_, s in instances),
        "trace": tracer.dump() if tracer else None,
    }
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
