"""The benchmark's layer trace still finds every function it reports on."""

import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def _load_layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _public_functions(module_name):
    module = importlib.import_module(f"quenta.{module_name}")
    return {name for name, obj in vars(module).items()
            if not name.startswith("_") and inspect.isfunction(obj)
            and obj.__module__ == module.__name__}


def test_required_names_are_public_quenta_functions():
    layertrace = _load_layertrace()
    for key in layertrace.REQUIRED:
        module_name, name = key.split(".")
        assert name in _public_functions(module_name), key


def test_every_layer_has_a_public_function():
    layertrace = _load_layertrace()
    for layer in layertrace.LAYERS:
        assert _public_functions(layer), layer


# In a child process: the trace rebinds every public quenta function there.
_TRACED_OVERRIDES = """
import contextlib, importlib.util, io, json, sys
spec = importlib.util.spec_from_file_location("layertrace", sys.argv[1])
layertrace = importlib.util.module_from_spec(spec)
spec.loader.exec_module(layertrace)
layertrace.Tracer().install()
from quenta import cli
argv = ["verify", "--family", "hermitian", "--q", "2", "--n", "5"]
for config in ([], ["--config", sys.argv[2]], []):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(config + argv)
    print(json.dumps([code, out.getvalue().splitlines()[-1:], err.getvalue()]))
"""


def test_a_traced_process_survives_an_override_change(tmp_path):
    # dropping gf's field memos must not go through the names the trace rebinds
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("modulus.2.2 = 1,0,1\n")
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    env.pop("QUENTA_CONFIG", None)
    done = subprocess.run([sys.executable, "-c", _TRACED_OVERRIDES, str(LAYERTRACE), str(cfg)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    summary = ["8 passed, 0 failed, 0 skipped"]
    assert [json.loads(line) for line in done.stdout.splitlines()] == [
        [0, summary, ""],
        [1, [], "error: modulus (1, 0, 1) is reducible or not primitive over GF(2)\n"],
        [0, summary, ""],
    ]
