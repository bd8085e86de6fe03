import csv
import io
import json
import os
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quenta import cli, gf
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


@pytest.mark.parametrize("family,grid,index,flags,kinds", _ROUND_TRIPS,
                         ids=[case[0] for case in _ROUND_TRIPS])
def test_construct_rebuilds_sweep_instance(capsys, monkeypatch, family, grid, index,
                                           flags, kinds):
    monkeypatch.delenv("QUENTA_CONFIG", raising=False)
    p = instances(family, **grid)[index]
    argv = ["construct", family]
    for name in flags:
        value = p.input_named(name)
        if isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        argv += ["--" + name.lower(), str(value)]
    for flag in kinds:
        argv += ["--" + flag, "lower_bound"]
    code, out, _ = run(capsys, *argv, "--verify")
    report = verify_instance(p)
    assert code == (0 if report.passed else 2)
    assert out == json.dumps(output_row(p, report), indent=2) + "\n"


def test_construct_parses_every_family_input():
    # construct's input flags are the union of the families' inputs: the
    # defining sets z, z1, z2 as text, every other input as an int
    parser = cli.build_parser()
    flags = set()
    for family in FAMILIES.values():
        argv = ["construct", family.name]
        for name in family.required:
            argv += [f"--{name}", "1,2" if name.startswith("z") else "3"]
        args = vars(parser.parse_args(argv))
        assert {name: args[name] for name in family.required} == {
            name: "1,2" if name.startswith("z") else 3 for name in family.required}
        flags |= set(args) - {"config", "command", "family", "verify", "format",
                              "d_kind", "d1_kind", "d2_kind"}
    assert flags == {"q", "n", "k", "b", "k1", "b1", "k2", "b2", "a", "t", "r", "m",
                     "delta", "d", "d1", "d2", "z", "z1", "z2"}


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
        gf.set_modulus_override(2, 2, None)


def test_parse_config_defaults_and_comments():
    cfg = parse_config("# nothing but comments\n\n  # here\n")
    assert cfg == Config()
    cfg = parse_config("matrix_cap = 7   # inline comment\ndistance_cap = 64\n")
    assert (cfg.matrix_cap, cfg.distance_cap) == (7, 64)


def test_parse_config_modulus_entries():
    cfg = parse_config("modulus.2.4 = 1,1,0,0,1\n")
    assert cfg.moduli == {(2, 4): (1, 1, 0, 0, 1)}
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
        gf.set_modulus_override(2, 2, None)


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
