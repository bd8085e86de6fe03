"""Every benchmark invocation still prints its reference transcript.

The benchmark's workloads run in-process through ``cli.main`` and are checked
with the benchmark's own ``load_reference`` and ``check``
(``perfbench/run.py``): an output change fails here, not only in a benchmark
run.
"""

import contextlib
import importlib.util
import io
from pathlib import Path

import pytest

from quenta import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_run(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # run.py imports its siblings
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["verify-mix", "pairs-gf2", "hermitian-gf4", "table-grid"])
def test_workload_transcripts_match_the_reference(monkeypatch, workload):
    monkeypatch.delenv("QUENTA_CONFIG", raising=False)
    run = _load_run(monkeypatch)
    reference = run.load_reference(workload)
    assert set(reference) == {tuple(argv) for argv in run.WORKLOADS[workload]}
    attempted = failed = 0
    problems = []
    for argv in run.WORKLOADS[workload]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(list(argv))
        ref = reference[tuple(argv)]
        assert code == ref["exit"], argv
        a, f, p = run.check(ref, code, out.getvalue())
        attempted, failed, problems = attempted + a, failed + f, problems + p
    assert attempted > 0
    assert (failed, problems) == (0, [])
