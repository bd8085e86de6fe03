#!/usr/bin/env python3
"""Benchmark of ``quenta`` CLI sweeps, end to end and layer by layer.

    python3 perfbench/run.py --workload verify-mix --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

Run from the repository root.  Each pass runs the workload's invocations,
in the order the seed picks, through ``quenta.cli.main(argv)`` in a fresh
single-threaded interpreter (``perfbench/child.py``).  Passes repeat until
``--seconds`` have been measured; every transcript is checked against the
reference recorded from the seed commit (``perfbench/reference/``).

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics.  Metric names
and units come from ``BENCHMARK.json``.  The last line of stdout is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import lzma
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import layertrace
from workloads import WORKLOADS, orders

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
WORK = ROOT / ".bench_build" / "perfbench"
REFERENCE = BENCH / "reference"
RUN_LIMIT_S = 170.0
SETUP_PROBES = 5
ROW_BLOCK = 256
SUMMARY = re.compile(r"(\d+) passed, (\d+) failed, (\d+) skipped\b")
SINGLE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark could not measure: no result is printed."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("QUENTA_CONFIG", None)
    env.update({name: "1" for name in SINGLE_THREAD})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    # compile from source every time rather than write bytecode outside the checkout
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_pass(invocations: list[list[str]], trace: bool, deadline: float):
    """Run one pass in a fresh interpreter: (result, transcripts, set-up seconds)."""
    WORK.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=WORK))
    try:
        spec = {"invocations": invocations, "outdir": str(tmp), "trace": trace,
                "result": str(tmp / "result.json")}
        (tmp / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
        t_spawn = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(BENCH / "child.py"), str(tmp / "spec.json")],
                                cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL)
        try:
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError("a pass overran the run's time limit") from None
        if code != 0:
            raise BenchError(f"pass interpreter exited with {code}")
        result = json.loads((tmp / "result.json").read_text(encoding="utf-8"))
        if Path(result["quenta_file"]).resolve().parent.parent != ROOT / "src":
            raise BenchError(f"imported quenta from {result['quenta_file']}, not src/")
        transcripts = [(tmp / f"{i}.out").read_text(encoding="utf-8")
                       for i in range(len(invocations))]
        return result, transcripts, result["t_ready"] - t_spawn
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


# ----------------------------------------------------------------------
# transcript checks
# ----------------------------------------------------------------------

def _kind(argv: list[str]) -> str:
    if argv[0] == "verify":
        return "verify"
    return "csv" if "csv" in argv else "json"


def _units(kind: str, text: str):
    """(checked units, framing) of a transcript: instance lines or table rows."""
    if kind == "json":
        return [json.dumps(row, indent=2) for row in json.loads(text)], ""
    lines = text.split("\n")
    if lines[-1] != "":
        raise ValueError("transcript does not end in a newline")
    if kind == "csv":
        return lines[1:-1], lines[0]
    if len(lines) < 2:
        raise ValueError("no summary line")
    return lines[:-2], lines[-2]


def _summary_problem(lines: list[str], summary: str) -> str | None:
    """Cross-check a verify summary line against its instance lines."""
    m = SUMMARY.match(summary)
    if m is None:
        return f"no summary line: {summary!r}"
    counted = (sum(1 for ln in lines if ln.startswith("PASS ")),
               sum(1 for ln in lines if ln.startswith("FAIL ")),
               sum(ln.count(" skip[") for ln in lines))
    if tuple(int(g) for g in m.groups()) != counted:
        return f"summary {summary!r} disagrees with the instance lines {counted}"
    return None


def check(ref: dict, code: int, text: str) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) of one invocation against its reference."""
    kind = _kind(ref["argv"])
    attempted = ref["units"]
    label = " ".join(ref["argv"])
    if code != ref["exit"]:
        return attempted, attempted, [f"{label}: exit {code}, reference {ref['exit']}"]
    if text == ref["stdout"]:
        return attempted, 0, []
    try:
        units, frame = _units(kind, text)
    except ValueError as exc:
        return attempted, attempted, [f"{label}: unreadable transcript ({exc})"]
    if len(units) != attempted:
        return attempted, attempted, [f"{label}: {len(units)} units, reference {attempted}"]
    ref_units, ref_frame = _units(kind, ref["stdout"])
    failed = sum(1 for a, b in zip(units, ref_units) if a != b)
    problems = [f"{label}: {failed} of {attempted} units differ"] if failed else []
    if kind == "verify":
        problem = _summary_problem(units, frame)
        if problem:
            return attempted, attempted, [f"{label}: {problem}"]
    elif frame != ref_frame or failed == 0:
        return attempted, attempted, [f"{label}: table framing differs from the reference"]
    return attempted, failed, problems


def load_reference(workload: str) -> dict[tuple[str, ...], dict]:
    path = REFERENCE / f"{workload}.json.xz"
    with lzma.open(path, "rt", encoding="utf-8") as fh:
        data = json.load(fh)
    for inv in data["invocations"]:
        inv["units"] = len(_units(_kind(inv["argv"]), inv["stdout"])[0])
    return {tuple(inv["argv"]): inv for inv in data["invocations"]}


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------

def tail_percentile(n: int) -> int:
    """Highest whole percentile (at most 99) with at least ten samples beyond it."""
    for p in range(99, 49, -1):
        if n - (-(-n * p // 100)) >= 10:
            return p
    return 50


def nearest_rank(values: list[float], p: int) -> float:
    ordered_values = sorted(values)
    return ordered_values[max(0, -(-len(ordered_values) * p // 100) - 1)]


def _instance_times(p: dict, view: str) -> list[float]:
    """Milliseconds per verified instance; per table row when nothing is verified.

    A table row takes microseconds, so single rows time mostly allocator and
    collector noise: a row's time is the mean over a block of ROW_BLOCK
    consecutive rows.
    """
    if p[view]["instance_ms"]:
        return p[view]["instance_ms"]
    rows = p[view]["row_ms"]
    return [statistics.fmean(rows[i:i + ROW_BLOCK]) for i in range(0, len(rows), ROW_BLOCK)]


def end_to_end(passes: list[dict], setups: list[tuple[float, dict]]) -> tuple[dict, list[str]]:
    """End-to-end metric values from untraced passes, plus notes for humans.

    Times are calibrated for host speed; a note gives the wall-clock values.
    """
    per_pass = len(_instance_times(passes[0], "wall"))
    pct = tail_percentile(per_pass)

    def times(view: str) -> dict[str, float]:
        samples = [ms for p in passes for ms in _instance_times(p, view)]
        return {"sweep_s": statistics.median(p[view]["sweep_s"] for p in passes),
                "instance_p50_ms": statistics.median(samples),
                "instance_tail_ms": nearest_rank(samples, pct),
                "setup_s": statistics.median(s * r[view]["setup_factor"] for s, r in setups)}

    rows = passes[0]["report_rows"]
    values = dict(times("calibrated"),
                  peak_rss_mb=statistics.median(p["maxrss_kb"] / 1024 for p in passes),
                  # no verification rows (tables only): nothing was capped or skipped
                  measured_row_frac=passes[0]["measured_rows"] / rows if rows else 1.0)
    boundary = ("verify_instance" if passes[0]["wall"]["instance_ms"]
                else f"output_row, blocks of {ROW_BLOCK} rows")
    notes = [f"instances: {per_pass} per pass at quenta {boundary}, {len(passes)} passes; "
             f"instance_tail_ms is p{pct}; {len(setups)} setup samples",
             "wall clock: " + ", ".join(f"{k} {v:.6g}" for k, v in times("wall").items())]
    return values, notes


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------

def run(workload: str, seed: int, seconds: float, trace: bool, declared: dict) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    reference = load_reference(workload)
    missing = [" ".join(argv) for argv in WORKLOADS[workload] if tuple(argv) not in reference]
    if missing:
        raise BenchError(f"no reference transcript for: {'; '.join(missing)}")

    run_pass([], False, deadline)  # warm the file cache; not measured
    setups = []  # (set-up seconds, the pass's result)
    for _ in range(0 if trace else SETUP_PROBES):
        result, _, setup = run_pass([], False, deadline)
        setups.append((setup, result))
    attempted = failed = 0
    problems: list[str] = []
    plain, traced = [], []
    permutations = orders(workload, seed)
    t0 = time.monotonic()
    while True:
        want_trace = trace and len(traced) < len(plain)
        if not want_trace:
            invocations = next(permutations)
        result, transcripts, setup = run_pass(invocations, want_trace, deadline)
        for argv, outcome, text in zip(invocations, result["runs"], transcripts):
            a, f, why = check(reference[tuple(argv)], outcome["exit"], text)
            attempted, failed = attempted + a, failed + f
            problems += why
        if want_trace:
            if transcripts != plain[-1][1]:
                problems.append("traced transcripts differ from the untraced ones")
            traced.append(result)
        else:
            plain.append((result, transcripts))
            setups.append((setup, result))
        if trace and len(traced) < len(plain):
            continue
        now = time.monotonic()
        longest = max(r["wall"]["sweep_s"] for r, _ in plain)
        if now - t0 >= seconds or now + 1.5 * longest * (1 + trace) > deadline:
            break

    untraced = [r for r, _ in plain]
    values, notes = end_to_end(untraced, setups)
    notes.append(f"failed_frac: {failed / attempted} ({failed} of {attempted})")
    if trace:
        values, count_problems = layertrace.combine(
            [layertrace.pass_metrics(r["trace"]) for r in traced])
        problems += count_problems
        values["cli.output_bytes"] = sum(len(t.encode()) for t in plain[0][1])
        values["trace.overhead_frac"] = (
            statistics.median(r["calibrated"]["sweep_s"] for r in traced)
            / statistics.median(r["calibrated"]["sweep_s"] for r in untraced) - 1.0)
    wanted = declared["per_layer" if trace else "end_to_end"]
    absent = [m["name"] for m in wanted if m["name"] not in values]
    if absent:
        raise BenchError(f"metrics not computed: {', '.join(absent)}")
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
        "notes": notes + problems,
    }


def _print_result(workload: str, res: dict) -> None:
    print(f"# {workload}: correct={res['correct']} attempted={res['attempted']} "
          f"failed={res['failed']}")
    for note in res["notes"]:
        print(f"#   {note}")
    for name, m in res["metrics"].items():
        print(f"#   {name} = {m['value']:.6g} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "quenta" / "cli.py").is_file():
        sys.stderr.write(f"error: no quenta sources under {ROOT / 'src'}\n")
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {w: run(w, args.seed, args.seconds, bool(args.trace), declared)
                   for w in names}
    except BenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    for w, res in results.items():
        _print_result(w, res)
        del res["notes"]
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
