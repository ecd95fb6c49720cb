"""No pipeline loads scipy; the tests use it only as an independent oracle.

Nor does one load ``numpy.polynomial``: the histogram rule computes its
Gauss-Legendre nodes itself, since that package alone adds about 1 MB of
peak memory.
"""

import json
import os
import subprocess
import sys

import scipy.constants

import modecomb
from modecomb import constants
from test_cli import (
    SMALL_CALIBRATION,
    SMALL_MULTIMODE,
    SMALL_SCATTERING,
    SMALL_TWOMODE,
    write_config,
)

SRC = os.path.dirname(os.path.dirname(os.path.abspath(modecomb.__file__)))

# Runs the given configs and code in this interpreter, then prints the
# loaded scipy and numpy.polynomial modules.
PROBE = """\
import json, sys
import modecomb
from modecomb.cli import run_scenario
for path in sys.argv[1:]:
    run_scenario(path)
{code}
print(json.dumps(sorted(m for m in sys.modules
                        if m.split(".")[0] == "scipy" or m.startswith("numpy.polynomial"))))
"""

# The assumed-temperature sweep of test_calibration, crossing included.
SWEEP = """\
import numpy as np
from modecomb import (AmplifierModel, ModeSpec, amplify, build_coupling_matrix,
                      c_lineshape, output_covariance, ppt_temperature_sweep,
                      scattering_matrices, thermal_covariance)
pair = [ModeSpec.from_hz(0, 3.8245e9, 20e3, 20e3), ModeSpec.from_hz(1, 3.8375e9, 20e3, 20e3)]
eps = 2.0 * np.pi * 6e3
cm = build_coupling_matrix(pair, probe_omegas=np.array([m.omega for m in pair]) - 2.0 * eps,
                           couplings={(0, 1): eps})
g = np.full(2, 2.0 * np.pi * 20e3)
v_th = thermal_covariance(pair, 0.05)
amp = AmplifierModel.uniform(2, 1e8, 0.08)
v_on = amplify(output_covariance(scattering_matrices(cm, g, g).to_quadrature(), v_th,
                                 v_loss=v_th), amp)
deltas = 2.0 * np.pi * np.linspace(-60e3, 60e3, 41)
c_meas = c_lineshape(deltas, 1e8, eps, pair, 0.05)
_, crossing = ppt_temperature_sweep(v_on, amplify(v_th, amp), deltas, c_meas, pair,
                                    np.linspace(0.05, 0.8, 11))
assert crossing is not None
"""


def loaded_guarded_modules(*configs, code=""):
    """Fresh interpreter: import modecomb, run ``configs`` and ``code``, list the
    scipy and numpy.polynomial modules loaded."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    probe = PROBE.format(code=code)
    proc = subprocess.run([sys.executable, "-c", probe, *map(str, configs)],
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
    assert loaded_guarded_modules() == []


def test_twomode_and_scattering_runs_load_no_scipy(tmp_path):
    twomode = write_config(tmp_path, SMALL_TWOMODE, name="twomode.cfg",
                           out=str(tmp_path / "out-twomode"))
    scattering = write_config(tmp_path, SMALL_SCATTERING, name="scattering.cfg",
                              out=str(tmp_path / "out-scattering"))
    assert loaded_guarded_modules(twomode, scattering) == []


def test_calibration_run_and_temperature_sweep_load_no_scipy(tmp_path):
    calibration = write_config(tmp_path, SMALL_CALIBRATION)
    assert loaded_guarded_modules(calibration, code=SWEEP) == []


def test_multimode_run_loads_no_scipy(tmp_path):
    # the reconstruction brackets each interval by duality, without an LP
    config = write_config(tmp_path, SMALL_MULTIMODE)
    assert loaded_guarded_modules(config) == []
    with open(tmp_path / "out" / "report.json") as fh:
        assert json.load(fh)["metrics"]["intervals_converged"] == 5
