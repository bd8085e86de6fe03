import ast
import csv
import dataclasses
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quenta import cli, constructions, gf, oracle
from quenta.cli import CSV_COLUMNS, main, output_row
from quenta.config import Config, load_config, parse_config
from quenta.oracle import FAMILIES, instances, verify_instance


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------------
# cosets
# ----------------------------------------------------------------------

def test_cosets_json(capsys):
    code, out, _ = run(capsys, "cosets", "--q", "3", "--n", "8")
    assert code == 0
    obj = json.loads(out)
    assert obj == {"n": 8, "q": 3, "cosets": [[0], [1, 3], [2, 6], [4], [5, 7]]}


def test_cosets_more_goldens(capsys):
    _, out, _ = run(capsys, "cosets", "--q", "2", "--n", "7")
    assert json.loads(out)["cosets"] == [[0], [1, 2, 4], [3, 5, 6]]
    _, out, _ = run(capsys, "cosets", "--q", "2", "--n", "3")
    assert json.loads(out)["cosets"] == [[0], [1, 2]]


def test_cosets_csv(capsys):
    code, out, _ = run(capsys, "--config", "/dev/null",
                       "cosets", "--q", "2", "--n", "7", "--format", "csv")
    assert code == 0
    assert out.splitlines() == [
        "leader,size,elements",
        "0,1,0",
        "1,3,1;2;4",
        "3,3,3;5;6",
    ]


@pytest.mark.parametrize("n, q, message", [
    ("-3", "2", "modulus n = -3 must be positive"),
    ("0", "1", "modulus n = 0 must be positive"),
    ("5", "-1", "q = -1 is not a prime power"),
    ("7", "10", "q = 10 is not a prime power"),
])
def test_cosets_refuses_bad_modulus_or_base(capsys, n, q, message):
    assert run(capsys, "cosets", "--n", n, "--q", q) == (1, "", f"error: {message}\n")


def test_cosets_gcd_error(capsys):
    code, out, err = run(capsys, "cosets", "--q", "2", "--n", "8")
    assert code == 1
    assert out == ""
    assert "error:" in err


# ----------------------------------------------------------------------
# construct
# ----------------------------------------------------------------------

def test_construct_rs_mds_verified(capsys):
    code, out, _ = run(capsys, "construct", "rs-mds",
                       "--q", "7", "--n", "6", "--k", "3", "--b", "2", "--verify")
    assert code == 0
    row = json.loads(out)
    assert (row["n"], row["k"], row["d"], row["c"]) == (6, 3, 4, 3)
    assert row["classification"] == "MDS"
    assert row["maximal_entanglement"] is True
    assert row["verification"]["passed"] is True


def test_construct_json_round_trips(capsys):
    _, out, _ = run(capsys, "construct", "rs-mds",
                    "--q", "7", "--n", "6", "--k", "3", "--b", "2", "--verify")
    assert json.dumps(json.loads(out), indent=2) + "\n" == out


def test_construct_bch_hermit_verified(capsys):
    code, out, _ = run(capsys, "construct", "bch-hermit", "--q", "3", "--a", "2",
                       "--verify")
    assert code == 0
    row = json.loads(out)
    assert (row["n"], row["k"], row["d"], row["c"]) == (80, 73, 3, 1)
    assert row["d_kind"] == "lower_bound"
    kinds = {r["name"]: r["kind"] for r in row["verification"]["rows"]}
    assert kinds["c"] == "exact"
    assert kinds["d"] == "lower_bound_ok"


def test_construct_li_lcd(capsys):
    code, out, _ = run(capsys, "construct", "li-lcd",
                       "--q", "3", "--m", "2", "--delta", "2")
    assert code == 0
    row = json.loads(out)
    assert (row["n"], row["k"], row["d"], row["c"]) == (80, 75, 3, 5)
    assert "verification" not in row


def test_construct_csv_format(capsys):
    code, out, _ = run(capsys, "construct", "rs-mds",
                       "--q", "7", "--n", "6", "--k", "3", "--b", "2",
                       "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    cells = lines[1].split(",")
    assert cells[0] == "rs-mds"
    assert cells[CSV_COLUMNS.index("inputs")] == "q=7 n=6 k=3 b=2"
    assert cells[CSV_COLUMNS.index("verification")] == ""


def test_construct_verification_failure_exits_2(capsys):
    # exact distance claim of 4 stays inside the Singleton bound but the
    # exhaustive measurement finds 3, so the oracle fails the row
    code, out, _ = run(capsys, "construct", "euclid-pair",
                       "--n", "7", "--q", "2", "--z1", "1,2,4", "--z2", "3,5,6",
                       "--d1", "4", "--d2", "4", "--verify")
    assert code == 2
    assert json.loads(out)["verification"]["passed"] is False


# (family, sweep arguments, grid index, construct flags, kind flags set to
# lower_bound); each flag's value is the instance's input of the same name
_ROUND_TRIPS = [
    ("euclid-pair", {"q": 2, "n": 7}, 21, ("n", "q", "Z1", "Z2", "d1", "d2"),
     ("d1-kind", "d2-kind")),
    ("euclid-lcd", {"q": 2, "n": 15}, 8, ("n", "q", "Z", "d"), ("d-kind",)),
    ("rs-euclid", {"q": 5}, 40, ("q", "k1", "b1", "k2", "b2"), ()),
    ("rs-mds", {"q": 7}, 3, ("q", "n", "k", "b"), ()),
    ("bch-euclid", {"q": 3}, 3, ("q", "a", "b"), ()),
    ("hermitian", {"q": 2, "n": 5}, 4, ("q", "n", "Z", "d"), ("d-kind",)),
    ("hermitian-lcd", {"q": 2, "n": 5}, 2, ("q", "n", "Z", "d"), ("d-kind",)),
    ("rs-hermit", {"q": 3}, 3, ("q", "t", "r"), ()),
    ("bch-hermit", {"q": 3}, 0, ("q", "a"), ()),
    ("li-lcd", {"q": 2, "m": 3}, 8, ("q", "m", "delta"), ()),
]


def _construct_argv(family, grid, index, flags, kinds):
    """(instance, construct argv) of one _ROUND_TRIPS case."""
    p = instances(family, **grid)[index]
    argv = ["construct", family]
    for name in flags:
        value = p.input_named(name)
        if isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        argv += ["--" + name.lower(), str(value)]
    for flag in kinds:
        argv += ["--" + flag, "lower_bound"]
    return p, argv


@pytest.mark.parametrize("family,grid,index,flags,kinds", _ROUND_TRIPS,
                         ids=[case[0] for case in _ROUND_TRIPS])
def test_construct_rebuilds_sweep_instance(capsys, monkeypatch, family, grid, index,
                                           flags, kinds):
    monkeypatch.delenv("QUENTA_CONFIG", raising=False)
    p, argv = _construct_argv(family, grid, index, flags, kinds)
    code, out, _ = run(capsys, *argv, "--verify")
    report = verify_instance(p)
    assert code == (0 if report.passed else 2)
    assert out == json.dumps(output_row(p, report), indent=2) + "\n"


# sha256 over the stdout of construct --verify for each _ROUND_TRIPS case, in
# order: ten JSON objects with their verification rows and notes
CONSTRUCT_VERIFY_SHA256 = "663583f6866fe5ef0b6ffece9f7aa094a7e46135f8ef6d41848076c4f8325f64"


def test_construct_verify_json_matches_the_digest(capsys, monkeypatch):
    monkeypatch.delenv("QUENTA_CONFIG", raising=False)
    digest = hashlib.sha256()
    for case in _ROUND_TRIPS:
        digest.update(run(capsys, *_construct_argv(*case)[1], "--verify")[1].encode())
    assert digest.hexdigest() == CONSTRUCT_VERIFY_SHA256


def test_construct_parses_every_family_input():
    # construct's input flags are the union of the families' inputs: the
    # defining sets z, z1, z2 as tuples of ints, every other input as an int
    parser = cli.build_parser()
    flags = set()
    for family in FAMILIES.values():
        argv = ["construct", family.name]
        for name in family.required:
            argv += [f"--{name}", "1,2" if name.startswith("z") else "3"]
        args = vars(parser.parse_args(argv))
        assert {name: args[name] for name in family.required} == {
            name: (1, 2) if name.startswith("z") else 3 for name in family.required}
        flags |= set(args) - {"config", "command", "family", "verify", "format",
                              "d_kind", "d1_kind", "d2_kind"}
    assert flags == {"q", "n", "k", "b", "k1", "b1", "k2", "b2", "a", "t", "r", "m",
                     "delta", "d", "d1", "d2", "z", "z1", "z2"}


def test_defining_set_flags_skip_empty_tokens():
    parser = cli.build_parser()
    for text, want in (("", ()), ("1,,2,", (1, 2)), (" 3 , -1", (3, -1)), (",", ())):
        assert parser.parse_args(["construct", "euclid-lcd", "--z", text]).z == want


@pytest.mark.parametrize("flag, text, token", [
    ("--z1", "a", "a"), ("--z2", "1,x,2", "x"), ("--z", "1.5", "1.5")])
def test_a_bad_defining_set_token_is_refused_by_its_flag(capsys, flag, text, token):
    family = "euclid-lcd" if flag == "--z" else "euclid-pair"
    with pytest.raises(SystemExit) as exc:
        main(["construct", family, "--n", "7", "--q", "2", flag, text, "--d", "2"])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (1, "")
    assert err.endswith(f"error: argument {flag}: "
                        f"invalid literal for int() with base 10: {token!r}\n")


def test_construct_missing_flags(capsys):
    code, _, err = run(capsys, "construct", "rs-mds", "--q", "7")
    assert code == 1
    assert "requires" in err and "--k" in err and "--b" in err


def test_construct_precondition_error(capsys):
    code, _, err = run(capsys, "construct", "rs-mds",
                       "--q", "7", "--n", "6", "--k", "3", "--b", "3")
    assert code == 1
    assert "error:" in err


def test_non_prime_power_q_is_refused(capsys):
    for argv in (["verify", "--family", "rs-euclid", "--q", "10"],
                 ["construct", "rs-mds", "--q", "6", "--k", "2", "--b", "1", "--verify"]):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert f"error: q = {argv[argv.index('--q') + 1]} is not a prime power" in err


def test_unknown_family_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["construct", "rs-secret", "--q", "7"])
    assert exc.value.code == 1


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1


def test_main_builds_the_parser_once(capsys, monkeypatch):
    built = []

    class Counted(cli._Parser):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self.prog)

    monkeypatch.setattr(cli, "_Parser", Counted)
    cli.build_parser.cache_clear()
    try:
        assert run(capsys, "cosets", "--q", "2", "--n", "7")[0] == 0
        assert run(capsys, "verify", "--family", "li-lcd", "--q", "2", "--m", "3")[0] == 0
    finally:
        cli.build_parser.cache_clear()  # drop the parser built from Counted
    assert built.count("quenta") == 1


def test_usage_error_after_a_good_call_still_exits_1(capsys):
    assert run(capsys, "cosets", "--q", "2", "--n", "7")[0] == 0
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--q", "2"])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: quenta verify ")
    assert captured.err.endswith(
        "quenta verify: error: the following arguments are required: --family\n")
    # the shared parser is unharmed by the error
    assert run(capsys, "cosets", "--q", "2", "--n", "7")[0] == 0


# ----------------------------------------------------------------------
# table
# ----------------------------------------------------------------------

def test_table_bch_euclid_json(capsys):
    code, out, _ = run(capsys, "table", "--family", "bch-euclid", "--q", "3")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 6
    assert [r["inputs"]["a"] for r in rows] == [0, 0, 1, 1, 2, 2]


def test_table_writes_file(tmp_path, capsys):
    target = tmp_path / "table.csv"
    code, out, _ = run(capsys, "table", "--family", "rs-mds", "--q", "7",
                       "--format", "csv", "--out", str(target))
    assert code == 0
    assert out == ""
    lines = target.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 7  # header + six legal (k, b) cells


def test_table_empty_range(capsys):
    code, out, _ = run(capsys, "table", "--family", "bch-hermit", "--q", "3",
                       "--a-max", "1")
    assert code == 0
    assert json.loads(out) == []
    code, out, _ = run(capsys, "table", "--family", "bch-hermit", "--q", "3",
                       "--a-max", "1", "--format", "csv")
    assert out.splitlines() == [",".join(CSV_COLUMNS)]


def test_table_is_deterministic(capsys):
    _, first, _ = run(capsys, "table", "--family", "hermitian", "--q", "2", "--n", "5")
    _, second, _ = run(capsys, "table", "--family", "hermitian", "--q", "2", "--n", "5")
    assert first == second


def _grid_flags(grid: dict) -> list[str]:
    return [token for name, value in grid.items() for token in ("--" + name, str(value))]


def _reference_csv_cell(row: dict, col: str) -> str:
    """One CSV cell at a time, as the table's CSV was first formatted."""
    if col == "inputs":
        return " ".join(f"{name}={cli._flat(v)}" for name, v in row["inputs"].items())
    if col == "warnings":
        return " | ".join(row["warnings"])
    if col == "verification":
        if "verification" not in row:
            return ""
        return "pass" if row["verification"]["passed"] else "fail"
    return str(row[col])


def test_csv_row_matches_cell_reference():
    row = output_row(next(iter(instances("hermitian", q=2, n=5))))
    for extra in ({"warnings": ["w1", "w2"]}, {"verification": {"passed": True}},
                  {"verification": {"passed": False}}):
        r = dict(row, **extra)
        assert cli._csv_row(r) == [_reference_csv_cell(r, col) for col in CSV_COLUMNS]


def _json_dumps_and_csv(rows: list[dict]) -> tuple[str, str]:
    """The table as ``json.dumps(rows, indent=2)`` and as one buffered CSV text."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows([_reference_csv_cell(row, col) for col in CSV_COLUMNS] for row in rows)
    return json.dumps(rows, indent=2) + "\n", buf.getvalue()


@pytest.mark.parametrize("family,grid", [case[:2] for case in _ROUND_TRIPS],
                         ids=[case[0] for case in _ROUND_TRIPS])
def test_table_output_matches_json_dumps_and_csv(capsys, family, grid):
    want_json, want_csv = _json_dumps_and_csv([output_row(p) for p in instances(family, **grid)])
    code, out, _ = run(capsys, "table", "--family", family, *_grid_flags(grid))
    assert (code, out) == (0, want_json)
    code, out, _ = run(capsys, "table", "--family", family, *_grid_flags(grid), "--format", "csv")
    assert (code, out) == (0, want_csv)


@pytest.mark.parametrize("argv", [
    ("--family", "rs-mds", "--q", "7"),
    ("--family", "bch-hermit", "--q", "3", "--a-max", "1"),
], ids=["rows", "empty"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_table_out_file_gets_stdout_bytes(tmp_path, capsys, argv, fmt):
    code, want, _ = run(capsys, "table", *argv, "--format", fmt)
    assert code == 0
    target = tmp_path / f"table.{fmt}"
    code, out, _ = run(capsys, "table", *argv, "--format", fmt, "--out", str(target))
    assert (code, out) == (0, "")
    assert target.read_bytes() == want.encode()


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_table_out_in_missing_directory_is_refused(tmp_path, capsys, fmt):
    target = tmp_path / "missing" / "table.out"
    code, out, err = run(capsys, "table", "--family", "rs-mds", "--q", "7",
                         "--format", fmt, "--out", str(target))
    assert (code, out) == (1, "")
    assert err.startswith("error: ")
    assert not target.parent.exists()


def test_table_row_error_prints_nothing(tmp_path, capsys, monkeypatch):
    def failing_row(p, report=None):
        if p.input_named("k") == 3:  # the third of six rows
            raise ValueError("row refused")
        return output_row(p, report)

    monkeypatch.setattr(cli, "output_row", failing_row)
    target = tmp_path / "table.json"
    code, out, err = run(capsys, "table", "--family", "rs-mds", "--q", "7")
    assert (code, out, err) == (1, "", "error: row refused\n")
    code, out, _ = run(capsys, "table", "--family", "rs-mds", "--q", "7", "--out", str(target))
    assert (code, out) == (1, "")
    assert not target.exists()


@pytest.fixture(scope="module")
def grid_rows():
    return [output_row(p) for p in instances("euclid-pair", 2, n=31)]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_table_emission_memory_is_bounded(grid_rows, fmt):
    # the rows are formed first; writing them must not build the output again in memory
    assert len(grid_rows) == 16384
    tracemalloc.start()
    try:
        cli._emit(grid_rows, fmt, os.devnull)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


# ----------------------------------------------------------------------
# the JSON writer
# ----------------------------------------------------------------------

_INTS = st.integers() | st.integers(min_value=2**64) | st.integers(max_value=-2**64)
_SCALARS = (st.none() | st.booleans() | _INTS | st.floats()
            | st.text() | st.text(alphabet="\"\\/\x00\x1f\x7f\u00e9\u2028\U0001d11e\n\t "))
# int lists take a joined fast path that must still print a bool as true/false
_INT_LISTS = st.lists(_INTS) | st.tuples(st.lists(_INTS), st.booleans(), st.lists(_INTS)).map(
    lambda parts: parts[0] + [parts[1]] + parts[2])
_VALUES = st.recursive(
    _SCALARS | _INT_LISTS,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=24,
)


@settings(deadline=None, derandomize=True, max_examples=200)
@given(_VALUES)
@example([1, True, 2])
@example({"a": [], "b": {}, "c": [[1, 2], [False]], "\u00e9\"": float("nan")})
@example([float("inf"), float("-inf"), -0.0, 1e300, -(2**70)])
def test_json_writer_matches_json_dumps(value):
    for v in (value, [value], [value, [value]]):
        want = json.dumps(v, indent=2)
        assert cli._json(v) == want
        buf = io.StringIO()
        cli._write_json(v, buf)
        assert buf.getvalue() == want + "\n"


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------

def test_verify_bch_euclid_summary(capsys):
    code, out, _ = run(capsys, "verify", "--family", "bch-euclid", "--q", "3")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 7
    assert all(line.startswith("PASS bch-euclid") for line in lines[:6])
    assert lines[-1] == "6 passed, 0 failed, 0 skipped"


def test_verify_computes_no_relative_weight_and_construct_verify_does(capsys, monkeypatch):
    # a verify line prints no note, so a verify sweep weighs no pair; the notes
    # of construct --verify print the relative weights, so it computes them
    monkeypatch.delenv("QUENTA_CONFIG", raising=False)
    calls = []
    real = oracle.relative_min_weight
    monkeypatch.setattr(oracle, "relative_min_weight",
                        lambda *args: calls.append(args) or real(*args))
    counts = []
    oracle._relative_weight.cache_clear()  # construct's pair is weighed afresh
    for argv in (["verify", "--family", "euclid-pair", "--q", "2", "--n", "7"],
                 ["verify", "--family", "hermitian-lcd", "--q", "2", "--n", "5"],
                 ["construct", "euclid-pair", "--n", "7", "--q", "2", "--z1", "1,2,4",
                  "--z2", "3,5,6", "--d1", "3", "--d2", "3", "--verify"]):
        calls.clear()
        counts.append((run(capsys, *argv)[0], len(calls)))
    assert counts[:2] == [(0, 0), (0, 0)]
    assert counts[2][0] == 0 and counts[2][1] > 0


def _fresh_env() -> dict:
    """The environment of a fresh interpreter that imports quenta from this tree."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    env.pop("QUENTA_CONFIG", None)
    return env


# imports every quenta module, runs main on each argv given, and prints the
# exit codes and whether numpy was imported; main's own output is dropped
_IMPORTS_NUMPY = """
import contextlib, importlib, io, json, pkgutil, sys
import quenta
for info in pkgutil.iter_modules(quenta.__path__):
    importlib.import_module("quenta." + info.name)
from quenta.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(codes, "numpy" in sys.modules)
"""


def test_lane_field_runs_never_import_numpy():
    # every field of these runs has lane rows, so nothing imports numpy: not
    # the package's modules, and not a sweep, a table or the cosets
    argvs = [["verify", "--family", "euclid-pair", "--q", "2", "--n", "7"],
             ["table", "--family", "hermitian", "--q", "2", "--n", "15"],
             ["cosets", "--q", "2", "--n", "15"]]
    run = subprocess.run([sys.executable, "-c", _IMPORTS_NUMPY, json.dumps(argvs)],
                         capture_output=True, text=True, env=_fresh_env(), timeout=120)
    assert (run.stdout, run.stderr) == ("[0, 0, 0] False\n", "")


def test_a_field_without_lane_rows_imports_no_numpy_and_prints_the_same_bytes():
    # GF(27) keeps tuple rows, ranked and multiplied through its log tables, and
    # imports no numpy, in a construction or in sweeps over GF(27) and GF(121);
    # the construction prints the bytes it printed when numpy ranked it
    argv = ["construct", "rs-mds", "--q", "27", "--n", "26", "--k", "2", "--b", "1", "--verify"]
    sweeps = [["verify", "--family", "rs-mds", "--q", "27"],
              ["verify", "--family", "hermitian", "--q", "11", "--n", "5"]]
    run = subprocess.run([sys.executable, "-c", _IMPORTS_NUMPY, json.dumps([argv, *sweeps])],
                         capture_output=True, text=True, env=_fresh_env(), timeout=120)
    assert (run.stdout, run.stderr) == ("[0, 0, 0] False\n", "")
    run = subprocess.run([sys.executable, "-m", "quenta.cli", *argv],
                         capture_output=True, env=_fresh_env(), timeout=120)
    assert (run.returncode, run.stderr) == (0, b"")
    assert hashlib.sha256(run.stdout).hexdigest() == (
        "3960434da23e43847c68a87b3859b88dd9d07bed38d4b3738195ea1b34015e32")
    assert json.loads(run.stdout)["verification"]["notes"] == [
        "relative distances outside the dual intersections: 25, 25 (combined 25; claimed d = 25)"]


def test_a_failed_cross_check_exits_3_with_one_error_line(capsys, monkeypatch):
    # a stacked rank one too high breaks the dimension identity of the first
    # instance: a fault of the program, neither a refusal (1) nor a refutation (2)
    stacked_rank = oracle.stacked_rank
    monkeypatch.setattr(oracle, "stacked_rank", lambda C, M: stacked_rank(C, M) + 1)
    assert main(["verify", "--family", "euclid-pair", "--q", "2", "--n", "7"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("internal error: cross-check failed: rank ")


def _one_more_logical_qudit(p):
    return dataclasses.replace(p, k=p.k + 1, c=p.c - 1)


@pytest.mark.parametrize("argv, route, broken", [
    pytest.param(["construct", "rs-mds", "--q", "7", "--n", "6", "--k", "3", "--b", "2"],
                 "rs_euclid", lambda real: lambda *a: _one_more_logical_qudit(real(*a)), id="rs-mds"),
    pytest.param(["construct", "rs-hermit", "--q", "3", "--t", "1", "--r", "1"],
                 "_rs_hermit_index_sets", lambda real: lambda *a: (real(*a)[0], frozenset()),
                 id="rs-hermit"),
])
def test_a_construction_whose_two_routes_disagree_exits_3(capsys, monkeypatch, argv, route, broken):
    # rs-mds checks its stated (k, c) against rs_euclid's set arithmetic, and
    # rs-hermit its closed-form intersection against the index sets: a mismatch
    # is a fault of the program, not a claim above the Singleton bound (1)
    monkeypatch.setattr(constructions, route, broken(getattr(constructions, route)))
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("internal error: cross-check failed: ")


@pytest.mark.parametrize("q, digest", [
    (2, "24e80342f84a38475e9df3e052d36d0ec15c6acfad261826aa57c0b239b884aa"),
    (3, "f59970ff4f957d7470efb2a3320dc9364acf0ac38f0e94c481e007d29958c06b"),
    (4, "b87e19613f76733ab55dc11fbe2e2a82a011d8f0542c3d63634e913a4cc68195"),
    (5, "9988881a5cd9a9bcb52f0c436cb4352586b7cd07d201968c47c3fffacfba2ebf"),
], ids=["q2", "q3", "q4", "q5"])
def test_rs_hermit_sweep_reads_only_its_instances(capsys, monkeypatch, q, digest):
    # the verifier takes both index sets and the intersection s from each
    # instance: with the construction's route gone after the grid is built, the
    # sweep prints the same bytes
    built = oracle.instances("rs-hermit", q)

    def gone(*_):
        raise RuntimeError("the verifier called the construction's index sets")

    monkeypatch.setattr(constructions, "_rs_hermit_index_sets", gone)
    monkeypatch.setattr(oracle, "instances", lambda *_, **__: built)
    code, out, _ = run(capsys, "verify", "--family", "rs-hermit", "--q", str(q))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_no_check_in_the_package_is_an_assert_statement():
    # python -O strips assert statements, so a check written as one would pass
    # silently there: every check of the package raises explicitly
    package = Path(cli.__file__).parent
    asserts = [f"{path.name}:{node.lineno}" for path in sorted(package.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.Assert)]
    assert asserts == []


def test_a_closed_pipe_exits_141_without_an_error():
    # the sweep prints about 190 KB, more than a pipe holds: once its reader has
    # read one line and closed the pipe, a later write or the last flush fails
    env = _fresh_env()
    proc = subprocess.Popen(
        [sys.executable, "-m", "quenta.cli", "verify", "--family", "rs-euclid", "--q", "11"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    first = proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert first.startswith(b"PASS rs-euclid q=11 n=10 ")
    assert (proc.returncode, err) == (141, b"")


def test_verify_rs_hermit_skips_distance_rows(capsys):
    code, out, _ = run(capsys, "verify", "--family", "rs-hermit", "--q", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "2 passed, 0 failed, 2 skipped"
    assert all("d skip[non-cyclic length]" in line for line in lines[:-1])


def test_verify_li_lcd(capsys):
    code, out, _ = run(capsys, "verify", "--family", "li-lcd", "--q", "2", "--m", "3")
    assert code == 0
    assert out.splitlines()[-1] == "16 passed, 0 failed, 32 skipped"


def test_a_splitting_degree_past_64_is_skipped_for_the_degree_cap(capsys):
    # 2 has order 82 mod 83: the field build, not the order search, refuses it
    code, out, err = run(capsys, "verify", "--family", "euclid-lcd", "--q", "2", "--n", "83")
    lines = out.splitlines()
    assert (code, err, len(lines), lines[-1]) == (0, "", 5, "4 passed, 0 failed, 20 skipped")
    note = "skip[splitting field unavailable: extension degree m = 82 outside [1, 12]]"
    assert all(line.count(note) == 5 for line in lines[:-1])


def _verify_row_names(line: str) -> list[str]:
    """The names of a verify line's rows, in report order (a skip note may hold ", ")."""
    return re.findall(r"(?:\| |, )([a-z]+) (?=skip\[|-?\d)", line)


def test_a_skipped_lcd_construct_lists_its_rows_in_report_order(capsys):
    code, out, err = run(capsys, "construct", "euclid-lcd", "--n", "83", "--q", "2",
                         "--z", "0", "--d", "2", "--verify")
    rows = json.loads(out)["verification"]["rows"]
    assert (code, err) == (0, "")
    assert [r["name"] for r in rows] == ["k", "c", "intersection", "hull", "d"]
    assert {r["kind"] for r in rows} == {oracle.SKIPPED}


def test_skipped_and_measured_lcd_lines_name_their_rows_alike(capsys):
    _, measured, _ = run(capsys, "verify", "--family", "euclid-lcd", "--q", "2", "--n", "15")
    _, skipped, _ = run(capsys, "verify", "--family", "euclid-lcd", "--q", "2", "--n", "83")
    measured, skipped = measured.splitlines()[:-1], skipped.splitlines()[:-1]
    assert "skip[" not in measured[0] and len(skipped) == 4
    assert all(line.count("skip[") == 5 for line in skipped)
    assert _verify_row_names(measured[0]) == ["k", "c", "intersection", "hull", "d"]
    assert all(_verify_row_names(line) == _verify_row_names(measured[0]) for line in skipped)


def test_formula_mode_is_reported_ahead_of_the_matrix_cap(capsys):
    # n = 101 exceeds the default matrix cap 100, and its windows' coset base 102 is not q
    code, out, err = run(capsys, "construct", "rs-euclid", "--q", "128", "--n", "101",
                         "--k1", "1", "--b1", "0", "--k2", "1", "--b2", "0", "--verify")
    rows = json.loads(out)["verification"]["rows"]
    assert (code, err) == (0, "")
    assert [r["name"] for r in rows] == ["k", "c", "intersection", "d"]
    assert {(r["kind"], r["note"]) for r in rows} == {
        (oracle.SKIPPED, "formula mode (n = 101 != q - 1): not materialized")}


def test_verify_output_is_deterministic(capsys):
    args = ("verify", "--family", "hermitian-lcd", "--q", "2", "--n", "5")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


# ----------------------------------------------------------------------
# config plumbing
# ----------------------------------------------------------------------

def test_config_matrix_cap_applies(tmp_path, capsys):
    cfg = tmp_path / "caps.cfg"
    cfg.write_text("# tiny cap forces skip-all\nmatrix_cap = 5\n")
    code, out, _ = run(capsys, "--config", str(cfg),
                       "verify", "--family", "bch-euclid", "--q", "3")
    assert code == 0
    assert out.splitlines()[-1] == "6 passed, 0 failed, 24 skipped"
    assert "matrix cap" in out


def test_config_via_env_var(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "caps.cfg"
    cfg.write_text("matrix_cap = 5\n")
    monkeypatch.setenv("QUENTA_CONFIG", str(cfg))
    _, out, _ = run(capsys, "verify", "--family", "bch-euclid", "--q", "3")
    assert out.splitlines()[-1] == "6 passed, 0 failed, 24 skipped"


def test_config_distance_cap_switches_to_run_bounds(tmp_path, capsys):
    cfg = tmp_path / "caps.cfg"
    cfg.write_text("distance_cap = 1\n")
    code, out, _ = run(capsys, "--config", str(cfg),
                       "verify", "--family", "bch-euclid", "--q", "3")
    # run bounds still cover every designed distance at q = 3
    assert code == 0
    assert out.splitlines()[-1] == "6 passed, 0 failed, 0 skipped"


def test_config_parse_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("matrix_cap 5\n")
    code, _, err = run(capsys, "--config", str(cfg),
                       "verify", "--family", "bch-euclid", "--q", "3")
    assert code == 1
    assert "expected 'key = value'" in err


@pytest.mark.parametrize("key", ["matrix_cap", "distance_cap"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_config_cap_below_one_is_refused(tmp_path, capsys, key, value):
    # a cap below 1 would skip every measurement and pass vacuously
    cfg = tmp_path / "caps.cfg"
    cfg.write_text(f"# caps\n{key} = {value}\n")
    code, out, err = run(capsys, "--config", str(cfg),
                         "verify", "--family", "euclid-pair", "--q", "2", "--n", "7")
    assert (code, out) == (1, "")
    assert err == f"error: config line 2: {key} = {value} must be positive\n"


@pytest.mark.parametrize("key, value, field", [
    ("modulus.4.2", "1,1,1", "GF(4^2)"),
    ("modulus.2.0", "1", "GF(2^0)"),
    ("modulus.2.13", ",".join("1" + "0" * 12 + "1"), "GF(2^13)"),
])
def test_config_modulus_of_no_field_is_refused(tmp_path, capsys, key, value, field):
    # no field is built for a composite p or an m outside [1, MAX_DEGREE], so
    # such an override would be accepted and then ignored
    cfg = tmp_path / "mod.cfg"
    cfg.write_text(f"# moduli\n{key} = {value}\n")
    code, out, err = run(capsys, "--config", str(cfg),
                         "verify", "--family", "euclid-pair", "--q", "2", "--n", "3")
    assert (code, out) == (1, "")
    assert err == f"error: config line 2: {field} needs a prime p and m in [1, {gf.MAX_DEGREE}]\n"


@pytest.mark.parametrize("key", ["modulus.2", "modulus.2.2.1", "modulus.x.2"])
def test_config_malformed_modulus_key_names_its_form(tmp_path, capsys, key):
    # a key that is not a prime and a degree after "modulus." is refused
    # with the form it should have
    cfg = tmp_path / "mod.cfg"
    cfg.write_text(f"{key} = 1,1,1\n")
    code, out, err = run(capsys, "--config", str(cfg),
                         "verify", "--family", "euclid-pair", "--q", "2", "--n", "3")
    assert (code, out) == (1, "")
    assert err == f"error: config line 1: {key!r} is not of the form modulus.<p>.<m>\n"


@pytest.mark.parametrize("line, message", [
    ("matrix_cap = ten", "matrix_cap = 'ten' is not a positive integer"),
    ("distance_cap = 1e6", "distance_cap = '1e6' is not a positive integer"),
    ("modulus.2.2 = 1,x,1", "modulus.2.2 = '1,x,1' is not 3 comma-separated integer coefficients"),
    ("modulus.2.2 = 1,,1", "modulus.2.2 = '1,,1' is not 3 comma-separated integer coefficients"),
])
def test_config_malformed_value_names_its_key_and_form(tmp_path, capsys, line, message):
    # a value that is no integer is refused by its key and the form the key
    # needs, not by Python's own message for int()
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    code, out, err = run(capsys, "--config", str(cfg),
                         "verify", "--family", "rs-euclid", "--q", "4")
    assert (code, out) == (1, "")
    assert err == f"error: config line 1: {message}\n"


def test_config_modulus_override_is_validated_on_use(tmp_path, capsys):
    cfg = tmp_path / "mod.cfg"
    cfg.write_text("modulus.2.2 = 1,0,1\n")  # x^2 + 1 is reducible over GF(2)
    try:
        code, _, err = run(capsys, "--config", str(cfg),
                           "construct", "hermitian",
                           "--q", "2", "--n", "3", "--z", "1", "--d", "2", "--verify")
        assert code == 1
        assert "error:" in err
    finally:
        gf.set_modulus_overrides({})


def test_modulus_override_does_not_leak_into_the_next_call(tmp_path, capsys):
    cfg = tmp_path / "mod.cfg"
    cfg.write_text("modulus.2.2 = 1,0,1\n")  # x^2 + 1 is reducible over GF(2)
    argv = ["construct", "hermitian", "--q", "2", "--n", "3", "--z", "1", "--d", "2", "--verify"]
    code, _, err = run(capsys, "--config", str(cfg), *argv)
    assert (code, err) == (1, "error: modulus (1, 0, 1) is reducible or not primitive over GF(2)\n")
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert json.loads(out)["verification"]["passed"] is True


def test_sweep_materializes_its_fields_once(capsys):
    gf.splitting_field.cache_clear()
    code, out, _ = run(capsys, "verify", "--family", "euclid-pair", "--q", "2", "--n", "15")
    assert code == 0
    assert out.splitlines()[-1] == "1024 passed, 0 failed, 0 skipped"
    assert gf.splitting_field.cache_info().misses == 1
    # a later call with the same (empty) set of overrides keeps the fields
    code, out, _ = run(capsys, "verify", "--family", "euclid-lcd", "--q", "2", "--n", "15")
    assert code == 0
    assert gf.splitting_field.cache_info().misses == 1


def test_parse_config_defaults_and_comments():
    cfg = parse_config("# nothing but comments\n\n  # here\n")
    assert cfg == Config()
    cfg = parse_config("matrix_cap = 7   # inline comment\ndistance_cap = 64\n")
    assert (cfg.matrix_cap, cfg.distance_cap) == (7, 64)


def test_parse_config_modulus_entries():
    cfg = parse_config("modulus.2.4 = 1,1,0,0,1\n")
    assert cfg.moduli == {(2, 4): (1, 1, 0, 0, 1)}
    # the degree bounds 1 and MAX_DEGREE are accepted
    top = ",".join("1" + "0" * (gf.MAX_DEGREE - 1) + "1")
    cfg = parse_config(f"modulus.3.1 = 1,1\nmodulus.2.{gf.MAX_DEGREE} = {top}\n")
    assert cfg.moduli == {(3, 1): (1, 1), (2, gf.MAX_DEGREE): (1,) + (0,) * (gf.MAX_DEGREE - 1) + (1,)}
    with pytest.raises(ValueError, match="line 1"):
        parse_config("modulus.2.4 = 1,1,0,0\n")  # wrong coefficient count
    with pytest.raises(ValueError, match="line 1"):
        parse_config("unknown_key = 3\n")


def test_load_config_missing_path_uses_defaults(monkeypatch):
    monkeypatch.delenv("QUENTA_CONFIG", raising=False)
    assert load_config(None) == Config()


def test_config_modulus_override_good_value(tmp_path, capsys):
    cfg = tmp_path / "mod.cfg"
    cfg.write_text("modulus.2.2 = 1,1,1\n")  # the default primitive choice
    try:
        code, out, _ = run(capsys, "--config", str(cfg),
                           "construct", "hermitian",
                           "--q", "2", "--n", "3", "--z", "1", "--d", "2", "--verify")
        assert code == 0
        assert json.loads(out)["verification"]["passed"] is True
    finally:
        gf.set_modulus_overrides({})


# stdout digests of two GF(2) sweeps, recorded before GF(2) matrices were kept
# as bitmask rows; a deterministic bug in the packed kernels changes them
_GOLDEN_SWEEPS = [
    (("verify", "--family", "euclid-pair", "--q", "2", "--n", "15"),
     "a11550aa01d4bbb3c2ddd21bcaecaa6495372859874df13196b9e3a97b436fcb"),
    (("verify", "--family", "euclid-lcd", "--q", "2", "--n", "31"),
     "f89f81bf2788f4c2e37374723096d50cb27cd2290665642bb31a911f0afe4573"),
]


@pytest.mark.parametrize("argv,digest", _GOLDEN_SWEEPS)
def test_gf2_sweep_golden_digest(capsys, argv, digest):
    import hashlib
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
