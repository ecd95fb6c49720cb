"""The benchmark's workloads: inputs made from a seed, one op, output checks.

Ops call the library through module attributes (``cli.run_scenario``,
``calibration.ppt_temperature_sweep``), never through names bound here,
so the traced run sees them.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import shutil
from dataclasses import dataclass

import numpy as np
from modecomb import calibration, cli
from modecomb.coupling_graph import build_coupling_matrix
from modecomb.gaussian_state import (
    AmplifierModel,
    amplify,
    output_covariance,
    thermal_covariance,
)
from modecomb.modesys import ModeSpec
from modecomb.scattering import scattering_matrices

TWO_PI = 2.0 * math.pi


@dataclass
class Outcome:
    """What one op produced, judged outside the timed region."""

    units: int
    digest: str
    artifact_bytes: int
    problems: list


def _non_finite(obj, where="metrics"):
    if isinstance(obj, dict):
        return [p for k, v in obj.items() for p in _non_finite(v, f"{where}.{k}")]
    if isinstance(obj, (list, tuple)):
        return [p for i, v in enumerate(obj) for p in _non_finite(v, f"{where}[{i}]")]
    if isinstance(obj, float) and not math.isfinite(obj):
        return [f"non-finite {where}"]
    return []


def _demo_config(pipeline, directory, seed, edits):
    """Built-in demo config with the benchmark's seed and an output dir in ``directory``.

    ``edits`` maps a line pattern to its replacement; each must match once.
    """
    os.makedirs(directory, exist_ok=True)
    path = cli.write_demo_config(pipeline, directory)
    with open(path) as fh:
        text = fh.read()
    out_dir = os.path.join(directory, f"out-{pipeline}")
    edits = {r"^seed: \d+$": f"seed: {seed}",
             r"^output_dir: \S+$": f"output_dir: {json.dumps(out_dir)}", **edits}
    for pattern, line in edits.items():
        text, n = re.subn(pattern, line, text, flags=re.M)
        if n != 1:
            raise RuntimeError(f"demo {pipeline}: {n} lines match {pattern!r}")
    with open(path, "w") as fh:
        fh.write(text)
    return path


class Workload:
    """One op repeated in a closed loop; subclasses define the three steps."""

    name = ""

    def prepare(self, seed, directory, tiny):
        """Make the inputs; this is the work ``setup_s`` measures after import."""
        raise NotImplementedError

    def reset(self):
        """Untimed clean-up before each op."""

    def op(self):
        raise NotImplementedError

    def evaluate(self, result):
        raise NotImplementedError


class _Scenarios(Workload):
    """Ops that run built-in demo scenarios through ``cli.run_scenario``."""

    PIPELINES = ()  # (pipeline, line edits for the tiny size)

    def prepare(self, seed, directory, tiny):
        self.configs = [_demo_config(p, directory, seed, edits if tiny else {})
                        for p, edits in self.PIPELINES]
        self.scenarios = []
        for path in self.configs:
            doc, digest = cli.load_config(path)
            self.scenarios.append(cli.validate_config(doc, path, digest))

    def reset(self):
        for scfg in self.scenarios:
            shutil.rmtree(scfg.output_dir, ignore_errors=True)

    def op(self):
        return [cli.run_scenario(path) for path in self.configs]

    def evaluate(self, reports):
        problems = []
        digest = hashlib.sha256()
        size = 0
        for rep in reports:
            for name in rep.files:
                path = os.path.join(rep.output_dir, name)
                if not os.path.isfile(path):
                    problems.append(f"{rep.pipeline}: listed file {name} is missing")
                    continue
                with open(path, "rb") as fh:
                    data = fh.read()
                size += len(data)
                digest.update(name.encode() + b"\0" + data)
            problems += [f"{rep.pipeline}: {p}" for p in _non_finite(rep.metrics)]
        if not problems:
            problems += self.check([rep.metrics for rep in reports])
        return Outcome(self.units(reports), digest.hexdigest(), size, problems)

    def units(self, reports):
        raise NotImplementedError

    def check(self, metrics):
        raise NotImplementedError


class MultimodeDemo(_Scenarios):
    """The multimode demo; the unit of work is one measurement interval."""

    name = "multimode-demo"
    PIPELINES = (("multimode", {r"^  n_samples: 100000$": "  n_samples: 50000",
                                r"^  interval_count: 75$": "  interval_count: 16"}),)

    def units(self, reports):
        return reports[0].metrics["interval_count"]

    def check(self, metrics):
        sig = metrics[0]["weighted_significance"]
        bad = {k: v for k, v in sig.items() if not v < -2.0}
        if len(sig) != 7 or bad:
            return [f"weighted significances not all below -2 over 7 bipartitions: {sig}"]
        return []


class TwomodeDemo(_Scenarios):
    """The twomode demo; the unit of work is one detuning point."""

    name = "twomode-demo"
    PIPELINES = (("twomode", {r"^  n_samples: 20000 .*$": "  n_samples: 5000",
                              r"^  interval_count: 10$": "  interval_count: 2",
                              r"^  detuning_count: 9$": "  detuning_count: 3",
                              r"^  histogram_detunings: \[4\].*$":
                                  "  histogram_detunings: [1]"}),)
    # Relative standard errors of the sample ratios allowed before failing.
    # Over seeds 1-30 at full size the largest of the 18 deviations per run
    # was 1.1-2.7 of them (median 1.7), so 4.5 fails about one seed in
    # 8,000 and still catches a 1% systematic error (tolerance 0.71%).
    SIGMAS = 4.5

    def units(self, reports):
        return len(reports[0].metrics["detunings_hz"])

    def check(self, metrics):
        m = metrics[0]
        # Half the chopped blocks are pump-on.  A standard deviation
        # estimated from n rows has relative standard error sqrt(1 / 2n), so
        # a ratio of two independent ones, as r_e and r_p are, has sqrt(1 / n).
        n_on = m["samples_per_block"] * m["blocks_per_interval"] // 2 * m["interval_count"]
        tol = self.SIGMAS * math.sqrt(1.0 / n_on)
        problems = []
        for key in ("r_e", "r_p"):
            for i, (got, want) in enumerate(zip(m[key], m[key + "_model"])):
                if abs(got / want - 1.0) > tol:
                    problems.append(f"{key}[{i}] = {got!r} vs model {want!r} "
                                    f"(tolerance {tol:.2%})")
        if int(np.argmax(m["r_e"])) != len(m["r_e"]) // 2:
            problems.append(f"r_e does not peak at the centre detuning: {m['r_e']}")
        return problems


class ShortDemos(_Scenarios):
    """The calibration demo, then the scattering demo; the unit is one pipeline run."""

    name = "short-demos"
    PIPELINES = (("calibration", {}), ("scattering", {}))
    GAIN_TRUTH = 10.0 ** (80.0 / 10.0)  # gain_db of the calibration demo
    GAIN_REL_TOL = 0.05
    N_MATCHES_NOMINAL = 4

    def units(self, reports):
        return len(reports)

    def check(self, metrics):
        cal, scat = metrics
        problems = []
        for fit in ("planck", "correlation"):
            gain = cal[fit]["gain"]
            if abs(gain / self.GAIN_TRUTH - 1.0) > self.GAIN_REL_TOL:
                problems.append(f"{fit} gain {gain!r} is not within 5% of 80 dB")
        if scat["n_matches_nominal"] != self.N_MATCHES_NOMINAL:
            problems.append(f"n_matches_nominal is {scat['n_matches_nominal']}, "
                            f"expected {self.N_MATCHES_NOMINAL}")
        return problems


class TempSweep(Workload):
    """``ppt_temperature_sweep`` on the two-mode synthetic inputs of the tests.

    The seed draws the relative measurement noise on the 41-point
    correlation lineshape.  Over 20 seeds at NOISE_REL = 0.005 the
    crossing scattered with a standard deviation of 0.14 K per unit of
    relative noise, so CROSSING_TOL_K = 1 K * NOISE_REL is about seven of
    them.  The unit of work is one sweep temperature.
    """

    name = "temp-sweep"
    PAIR = (ModeSpec.from_hz(0, 3.8245e9, 20e3, 20e3),
            ModeSpec.from_hz(1, 3.8375e9, 20e3, 20e3))
    CROSSING_NOISELESS_K = 0.11991209182258858  # frozen in the tests
    NOISE_REL = 0.005
    CROSSING_TOL_K = 1.0 * NOISE_REL

    def prepare(self, seed, directory, tiny):
        temperature, gain, n_add, eps = 0.05, 1e8, 0.08, TWO_PI * 6e3
        pair = list(self.PAIR)
        omegas = np.array([m.omega for m in pair])
        cm = build_coupling_matrix(pair, probe_omegas=omegas - 2.0 * eps,
                                   couplings={(0, 1): eps})
        g = np.full(2, TWO_PI * 20e3)
        net = scattering_matrices(cm, g, g).to_quadrature()
        v_th = thermal_covariance(pair, temperature)
        amp = AmplifierModel.uniform(2, gain, n_add)
        self.v_on = amplify(output_covariance(net, v_th, v_loss=v_th), amp)
        self.v_off = amplify(v_th, amp)
        self.deltas = TWO_PI * np.linspace(-60e3, 60e3, 41)
        clean = calibration.c_lineshape(self.deltas, gain, eps, pair, temperature)
        noise = np.random.default_rng([seed, 41]).standard_normal(clean.size)
        self.c_meas = clean * (1.0 + self.NOISE_REL * noise)
        self.temps = np.linspace(0.05, 0.2, 3) if tiny else np.linspace(0.05, 0.8, 11)

    def op(self):
        return calibration.ppt_temperature_sweep(
            self.v_on, self.v_off, self.deltas, self.c_meas, list(self.PAIR), self.temps)

    def evaluate(self, result):
        lambdas, crossing = result
        text = repr([float(x) for x in lambdas] + [crossing])
        problems = _non_finite([float(x) for x in lambdas] + [crossing or 0.0])
        if not np.all(np.diff(lambdas) > 0.0):
            problems.append(f"lambdas do not strictly increase: {text}")
        if crossing is None or not self.temps[0] < crossing < self.temps[-1]:
            problems.append(f"crossing {crossing!r} is not inside the grid")
        elif abs(crossing - self.CROSSING_NOISELESS_K) > self.CROSSING_TOL_K:
            problems.append(f"crossing {crossing!r} K is more than {self.CROSSING_TOL_K} K "
                            f"from {self.CROSSING_NOISELESS_K} K")
        return Outcome(len(self.temps), hashlib.sha256(text.encode()).hexdigest(),
                       0, problems)


WORKLOADS = {cls.name: cls for cls in (MultimodeDemo, TwomodeDemo, TempSweep, ShortDemos)}
