"""The package loads scipy only in the fits and the reconstruction LP."""

import json
import os
import subprocess
import sys

import scipy.constants

import modecomb
from modecomb import constants
from test_cli import SMALL_MULTIMODE, SMALL_SCATTERING, SMALL_TWOMODE, write_config

SRC = os.path.dirname(os.path.dirname(os.path.abspath(modecomb.__file__)))

# Runs the given configs in this interpreter, then prints the loaded scipy modules.
PROBE = """\
import json, sys
import modecomb
from modecomb.cli import run_scenario
for path in sys.argv[1:]:
    run_scenario(path)
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def loaded_scipy_modules(*configs):
    """Fresh interpreter: import modecomb, run ``configs``, list scipy modules."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", PROBE, *map(str, configs)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_constants_equal_the_reference_values():
    assert constants.hbar == scipy.constants.hbar
    assert constants.k == scipy.constants.k
    assert constants.e == scipy.constants.e
    assert constants.epsilon_0 == scipy.constants.epsilon_0
    assert constants.flux_quantum == scipy.constants.physical_constants[
        "mag. flux quantum"][0]


def test_import_loads_no_scipy():
    assert loaded_scipy_modules() == []


def test_twomode_and_scattering_runs_load_no_scipy(tmp_path):
    twomode = write_config(tmp_path, SMALL_TWOMODE, name="twomode.cfg",
                           out=str(tmp_path / "out-twomode"))
    scattering = write_config(tmp_path, SMALL_SCATTERING, name="scattering.cfg",
                              out=str(tmp_path / "out-scattering"))
    assert loaded_scipy_modules(twomode, scattering) == []


def test_pool_threads_import_linprog_together(tmp_path):
    # both workers reach reconstruct's first LP while scipy.optimize is
    # still loading in the other thread
    config = write_config(tmp_path, SMALL_MULTIMODE.replace(
        "multimode: {}", "workers: 2\nmultimode: {}"))
    assert "scipy.optimize" in loaded_scipy_modules(config)
    with open(tmp_path / "out" / "report.json") as fh:
        assert json.load(fh)["metrics"]["intervals_converged"] == 5
