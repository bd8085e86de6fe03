"""Every benchmark invocation still prints its reference transcript.

The benchmark's workloads run in-process through ``cli.main`` and are checked
with the benchmark's own ``load_reference`` and ``check``
(``perfbench/run.py``): an output change fails here, not only in a benchmark
run.  They must not depend on what ran before them in the process, in which
order, or under which config.  The notes of their verify sweeps, which no
verify line prints, are pinned by a digest.  A verify sweep also prints the
same bytes under every primitive modulus of its splitting field.
"""

import contextlib
import hashlib
import importlib.util
import io
from pathlib import Path

import pytest

from quenta import cli, gf, oracle

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


def _main(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue()


def test_verify_mix_matches_the_reference_in_reverse_under_configs(monkeypatch, tmp_path):
    # every other invocation installs an override: each change of the override
    # set drops the memoised fields, which must come back the same
    monkeypatch.delenv("QUENTA_CONFIG", raising=False)
    run = _load_run(monkeypatch)
    reference = run.load_reference("verify-mix")
    cfg = tmp_path / "defaults.cfg"
    cfg.write_text(f"matrix_cap = {oracle.DEFAULT_MATRIX_CAP}\n"
                   f"distance_cap = {oracle.DEFAULT_DISTANCE_CAP}\n"
                   "modulus.2.4 = 1,1,0,0,1  # GF(16)'s own modulus\n")
    problems = []
    try:
        for i, argv in enumerate(reversed(run.WORKLOADS["verify-mix"])):
            code, text = _main(["--config", str(cfg), *argv] if i % 2 else argv)
            attempted, failed, found = run.check(reference[tuple(argv)], code, text)
            problems += found
            assert (attempted > 0, failed) == (True, 0), argv
    finally:
        gf.set_modulus_overrides({})  # the last invocation ran under the config
    assert problems == []


def _refused_then_reference_again(monkeypatch, tmp_path, override, modulus):
    """hermitian --q 2 --n 5, whose splitting field GF(16) is a proper extension
    of its base field GF(4), prints its reference; under the bad ``override``
    it prints nothing and refuses ``modulus``; then the reference again."""
    monkeypatch.delenv("QUENTA_CONFIG", raising=False)
    run = _load_run(monkeypatch)
    argv = ("verify", "--family", "hermitian", "--q", "2", "--n", "5")
    ref = run.load_reference("verify-mix")[argv]
    assert _main(argv) == (ref["exit"], ref["stdout"])
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{override}\n")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert _main(["--config", str(cfg), *argv]) == (1, "")
    assert err.getvalue() == f"error: modulus {modulus} is reducible or not primitive over GF(2)\n"
    assert _main(argv) == (ref["exit"], ref["stdout"])


def test_field_memo_does_not_outlive_an_override(monkeypatch, tmp_path):
    # (x + 1)^4, the splitting field's modulus
    _refused_then_reference_again(monkeypatch, tmp_path, "modulus.2.4 = 1,0,0,0,1",
                                  (1, 0, 0, 0, 1))


def test_base_field_memo_does_not_outlive_an_override(monkeypatch, tmp_path):
    # (x + 1)^2, the base field's modulus: its own memo must drop GF(4) too
    _refused_then_reference_again(monkeypatch, tmp_path, "modulus.2.2 = 1,0,1", (1, 0, 1))


def _primitive_moduli(p: int, m: int) -> list[list[int]]:
    """Every primitive modulus of GF(p^m), constant term first and the leading 1
    last, in the order ``gf._find_modulus`` tries them."""
    found = []
    for enc in range(p ** m):
        coeffs = [enc // p ** i % p for i in range(m)] + [1]
        if gf._is_primitive(coeffs, p):
            found.append(coeffs)
    return found


# verify sweeps, each with the prime p and degree m of its splitting field
_MODULUS_SWEEPS = [
    (("euclid-pair", "--q", "2", "--n", "15"), 2, 4),  # GF(16)
    (("euclid-pair", "--q", "2", "--n", "9"), 2, 6),  # GF(64)
    (("hermitian", "--q", "3", "--n", "10"), 3, 4),  # GF(81) over GF(9)
]


def test_verify_sweeps_print_the_same_bytes_under_every_primitive_modulus(monkeypatch, tmp_path):
    # another primitive modulus gives the n-th root of unity beta^a, gcd(a, n) = 1,
    # so the code of Z is the default's code of aZ, multiplier-equivalent to it:
    # the same k, c, intersection and d, and so the same bytes
    monkeypatch.delenv("QUENTA_CONFIG", raising=False)
    cfg = tmp_path / "modulus.cfg"
    counts = []
    try:
        for sweep, p, m in _MODULUS_SWEEPS:
            argv = ["verify", "--family", *sweep]
            default = _main(argv)
            assert default[0] == 0 and default[1].endswith(" passed, 0 failed, 0 skipped\n")
            moduli = _primitive_moduli(p, m)
            for coeffs in moduli:
                cfg.write_text(f"modulus.{p}.{m} = {','.join(map(str, coeffs))}\n")
                assert _main(["--config", str(cfg), *argv]) == default, (sweep, coeffs)
            counts.append(len(moduli))
    finally:
        gf.set_modulus_overrides({})  # the last invocation ran under the config
    assert counts == [2, 6, 8]


# sha256 over each note of the verify sweeps below followed by "\n", in sweep
# order: 1,529 notes, each a report's relative distances or why they were not
# enumerated
NOTES_SHA256 = "5b4266db9158c85050cfcfe9dc7d131e41d7e6ce0eaf27991248a49e6ccec859"


def test_verify_sweep_notes_match_the_digest(monkeypatch):
    run = _load_run(monkeypatch)
    digest, count = hashlib.sha256(), 0
    for workload in ("verify-mix", "pairs-gf2", "hermitian-gf4"):
        for argv in run.WORKLOADS[workload]:
            if argv[0] != "verify":
                continue
            flags = dict(zip(argv[1::2], argv[2::2]))
            family, q = flags.pop("--family"), int(flags.pop("--q"))
            for report in oracle.sweep(family, q, **{k[2:]: int(v) for k, v in flags.items()}):
                for note in report.notes:
                    digest.update(f"{note}\n".encode())
                    count += 1
    assert (count, digest.hexdigest()) == (1529, NOTES_SHA256)
