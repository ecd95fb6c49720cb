"""Scenario validation: every rejection exits 2 and names its dotted path."""

import json
from dataclasses import asdict

import pytest

from modecomb import CalibrationStore
from modecomb.cli import _write_json, main
from test_cli import (
    SMALL_CALIBRATION,
    SMALL_MULTIMODE,
    SMALL_SCATTERING,
    SMALL_TWOMODE,
    write_config,
)

TM, MM, CAL, SC = SMALL_TWOMODE, SMALL_MULTIMODE, SMALL_CALIBRATION, SMALL_SCATTERING
TM_PUMP = "{freq_hz: 3.8310e9, epsilon_hz: 15.0e3}"
TM_AMP = "amplifier:\n  gain_db: 40.0\n"
TM_AMP_BLOCK = TM[TM.index(TM_AMP):TM.index("sampling:")]
CAL_SECTION = CAL[CAL.index("calibration:"):]

# (template, text to replace, replacement, dotted path of the error)
REJECTIONS = {
    # field types and bounds
    "non-number": (TM, "temp_k: 0.007", "temp_k: warm", "environment.temp_k"),
    "non-finite": (TM, "detuning_start_hz: -30.0e3", "detuning_start_hz: .inf",
                   "twomode.detuning_start_hz"),
    "non-positive": (TM, "epsilon_hz: 15.0e3", "epsilon_hz: 0.0", "pumps[0].epsilon_hz"),
    "number-below-minimum": (TM, "added_photons: 0.15", "added_photons: -0.1",
                             "amplifier.added_photons"),
    "integer-below-minimum": (CAL, "temp_count: 15", "temp_count: 2",
                              "calibration.planck.temp_count"),
    "samples-below-minimum": (TM, "n_samples: 2000", "n_samples: 1", "sampling.n_samples"),
    "bool-for-integer": (TM, "interval_count: 2", "interval_count: true",
                         "sampling.interval_count"),
    "bool-for-seed": (TM, "seed: 11", "seed: true", "seed"),
    "non-bool-allow-unstable": (MM, "allow_unstable: true", "allow_unstable: 1",
                                "coupling.allow_unstable"),
    "temp-spacing-choice": (CAL, "temp_spacing: geometric", "temp_spacing: log",
                            "calibration.planck.temp_spacing"),
    "unknown-pipeline": (TM, "pipeline: twomode", "pipeline: threemode", "pipeline"),
    "missing-required": (TM, "    freq_lc_hz: 8.0e9\n", "", "system.mirror.freq_lc_hz"),
    "section-not-mapping": (TM, "environment:\n  temp_k: 0.007", "environment: 7",
                            "environment"),
    # mode and sweep indices
    "unknown-mode-index": (TM, "pair: [0, 1]", "pair: [0, 5]", "twomode.pair[1]"),
    "unknown-correlation-mode": (CAL, "pair: [0, 1]", "pair: [0, 7]",
                                 "calibration.correlation.pair[1]"),
    "equal-pair": (TM, "pair: [0, 1]", "pair: [1, 1]", "twomode.pair"),
    "equal-correlation-pair": (CAL, "pair: [0, 1]", "pair: [0, 0]",
                               "calibration.correlation.pair"),
    "histogram-index-out-of-range": (TM, "histogram_detunings: [1]",
                                     "histogram_detunings: [3]",
                                     "twomode.histogram_detunings[0]"),
    "histogram-bin-not-dividing-the-window": (TM, "histogram_detunings: [1]",
                                              "histogram_detunings: [1]\n  histogram_bin: 0.35",
                                              "twomode.histogram_bin"),
    "histogram-bin-wider-than-the-window": (TM, "histogram_detunings: [1]",
                                            "histogram_detunings: [1]\n  histogram_bin: 13.0",
                                            "twomode.histogram_bin"),
    "mode-index-gap": (MM, "{index: 3,", "{index: 4,", "system.modes"),
    "modes-out-of-frequency-order": (TM, "{index: 0, freq_hz: 3.8245e9",
                                     "{index: 0, freq_hz: 3.8400e9", "system.modes"),
    "mode-without-loss": (TM, "loss_ext_hz: 36.0e3, loss_int_hz: 4.0e3}",
                          "loss_ext_hz: 0.0, loss_int_hz: 0.0}", "system.modes"),
    "duplicate-probes": (MM, "multimode: {}",
                         "probes: {mode_indices: [0, 1, 1]}\nmultimode: {}",
                         "probes.mode_indices"),
    "ref-out-beyond-2n": (SC, "spacing_count: 5", "spacing_count: 5\n  ref_out: 8",
                          "scattering.ref_out"),
    # rules that tie several fields together
    "no-gain": (TM, TM_AMP, "amplifier:\n", "amplifier.gain_db"),
    "gain-below-unity": (TM, "gain_db: 40.0", "gain_db: -3.0", "amplifier"),
    # sigma_gain * sigma_noise = 100 * 0.02 bounds the fit covariance
    "cov-gain-noise-beyond-sigmas": (TM, "sigma_noise_photons: 0.02",
                                     "sigma_noise_photons: 0.02\n  cov_gain_noise: 50.0",
                                     "amplifier"),
    "calibration-json-with-inline-values": (
        TM, TM_AMP, "amplifier:\n  calibration_json: cal.json\n  gain_db: 40.0\n",
        "amplifier"),
    "calibration-json-unreadable": (
        TM, TM_AMP_BLOCK, "amplifier:\n  calibration_json: missing.json\n",
        "amplifier.calibration_json"),
    "epsilon-on-some-pumps": (MM, "{freq_hz: 3.84405e9, epsilon_hz: 30.0e3}",
                              "{freq_hz: 3.84405e9}", "pumps[1].epsilon_hz"),
    "flux-at-half-quantum": (TM, TM_PUMP, "{freq_hz: 3.8310e9, epsilon_hz: 15.0e3, "
                             "flux_phi0: 0.5}", "pumps[0].flux_phi0"),
    "sampling-needs-seed": (MM, "seed: 5\n", "", "seed"),
    "sampling-needs-pumps": (TM, f"pumps:\n  - {TM_PUMP}\n", "", "pumps"),
    "sampling-needs-amplifier": (TM, TM_AMP_BLOCK, "", "amplifier"),
    "noisy-calibration-needs-seed": (CAL, "seed: 3\n", "", "seed"),
    "multimode-needs-two-probes": (MM, "multimode: {}",
                                   "probes: {mode_indices: [2]}\nmultimode: {}",
                                   "probes.mode_indices"),
    "calibration-needs-a-subsection": (CAL, CAL_SECTION, "calibration: {}\n",
                                       "calibration"),
    "synthetic-planck-needs-gain": (CAL, "    gain_db: 80.0\n    added_photons: 0.08\n",
                                    "    added_photons: 0.08\n",
                                    "calibration.planck.gain_db"),
    "scattering-needs-two-pumps": (SC, "  - {freq_hz: 3.84405e9, epsilon_hz: 10.0e3}\n", "",
                                   "pumps"),
    "spacing-start-without-stop": (SC, "  spacing_stop_hz: 13.11e6\n", "", "scattering"),
    "section-of-another-pipeline": (SC, "spacing_count: 5", "spacing_count: 5\ntwomode:\n"
                                    "  pair: [0, 1]", "twomode"),
    "unknown-top-level-key": (SC, "seed: 1\n", "seed: 1\nbogus: 1\n", "bogus"),
    # keys that only repeated another key are unknown
    "gain-linear": (TM, TM_AMP, TM_AMP + "  gain_linear: 100.0\n", "amplifier.gain_linear"),
    "scattering-tolerance": (SC, "spacing_count: 5", "spacing_count: 5\n  tolerance_hz: 1.0e3",
                             "scattering.tolerance_hz"),
    "chop-rate": (TM, "histogram_detunings: [1]", "histogram_detunings: [1]\n  chop_hz: 2.0",
                  "twomode.chop_hz"),
    "interval-seconds": (TM, "interval_count: 2", "interval_count: 2\n  interval_seconds: 2.0",
                         "sampling.interval_seconds"),
}

# a misspelt key inside a section is refused, not replaced by its default
TYPOS = {
    "sampling": (MM, "n_samples: 3000", "n_sample: 3000", "sampling.n_sample"),
    "twomode": (TM, "pair: [0, 1]", "pairs: [0, 1]", "twomode.pairs"),
    "calibration": (CAL, "temp_count: 15", "temp_cnt: 15", "calibration.planck.temp_cnt"),
    "pumps": (TM, TM_PUMP, "{freq: 3.8310e9, epsilon_hz: 15.0e3}", "pumps[0].freq"),
    "multimode": (MM, "multimode: {}", "multimode: {foo: 1}", "multimode.foo"),
}


def assert_rejected(tmp_path, capsys, template, old, new, where):
    assert old in template
    path = write_config(tmp_path, template.replace(old, new, 1))
    assert main(["validate", str(path)]) == 2
    assert f"config field '{where}'" in capsys.readouterr().err


@pytest.mark.parametrize("case", sorted(REJECTIONS))
def test_rejection_exits_two_with_its_dotted_path(tmp_path, capsys, case):
    assert_rejected(tmp_path, capsys, *REJECTIONS[case])


@pytest.mark.parametrize("section", sorted(TYPOS))
def test_typo_in_a_nested_section_exits_two(tmp_path, capsys, section):
    assert_rejected(tmp_path, capsys, *TYPOS[section])


DATA_SECTIONS = {
    "planck": "freq_hz: 3.8245e9",
    "correlation": "gain_db: 80.0\n    eps_hz: 6.0e3",
}


@pytest.mark.parametrize("subsection", sorted(DATA_SECTIONS))
def test_one_column_data_exits_two(tmp_path, capsys, subsection):
    data = tmp_path / "one_column.csv"
    data.write_text("x\n1.0\n2.0\n3.0\n")
    cfg = CAL.replace(CAL_SECTION, f"calibration:\n  {subsection}:\n"
                      f"    {DATA_SECTIONS[subsection]}\n    data_csv: {data}\n")
    assert main(["run", str(write_config(tmp_path, cfg))]) == 2
    assert f"'calibration.{subsection}.data_csv'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "run"])
def test_calibration_file_with_a_non_psd_covariance_exits_two(tmp_path, capsys, command):
    store = tmp_path / "cal.json"
    _write_json(store, asdict(CalibrationStore(gain=1e4, added_photons=0.15, sigma_gain=100.0,
                                               sigma_noise=0.02, cov_gain_noise=50.0)))
    path = write_config(tmp_path, TM.replace(
        TM_AMP_BLOCK, f"amplifier:\n  calibration_json: {store}\n"))
    assert main([command, str(path)]) == 2
    assert ("config field 'amplifier.calibration_json': cov_gain_noise exceeds"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("name, value", [
    ("gain", float("nan")), ("gain", float("inf")), ("gain", None), ("sigma_noise", None),
    ("added_photons", True), ("cov_gain_noise", "0.0")],
    ids=["gain-nan", "gain-inf", "gain-null", "sigma-noise-null", "bool", "string"])
def test_calibration_file_number_that_is_not_finite_exits_two(
        tmp_path, capsys, command, name, value):
    # json reads NaN, Infinity and null; eps and sigma_eps alone may be null
    store = tmp_path / "cal.json"
    fields = {"gain": 1e4, "added_photons": 0.15, "eps": None, "sigma_eps": None}
    store.write_text(json.dumps({**fields, name: value}))
    path = write_config(tmp_path, TM.replace(
        TM_AMP_BLOCK, f"amplifier:\n  calibration_json: {store}\n"))
    assert main([command, str(path)]) == 2
    assert (f"config field 'amplifier.calibration_json': {name} in"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


def test_small_configs_validate(tmp_path):
    for i, template in enumerate((TM, MM, CAL, SC)):
        path = write_config(tmp_path, template, name=f"{i}.cfg")
        assert main(["validate", str(path)]) == 0


@pytest.mark.parametrize("command", ["validate", "run"])
def test_malformed_yaml_exits_two(tmp_path, capsys, command):
    path = write_config(tmp_path, TM.replace("temp_k: 0.007", "temp_k: [0.007", 1))
    assert main([command, str(path)]) == 2
    assert "is not valid YAML" in capsys.readouterr().err


@pytest.mark.parametrize("width, span", [(0.25, 6.0), (0.5, 6.0), (0.1, 6.0), (12.0, 6.0)])
def test_histogram_bins_that_split_the_window_are_accepted(tmp_path, width, span):
    # 0.1 on +-6 is 119.99999999999999 bins in floating point; 12 is one bin
    cfg = TM.replace("histogram_detunings: [1]", f"histogram_detunings: [1]\n"
                     f"  histogram_bin: {width}\n  histogram_span: {span}")
    assert main(["validate", str(write_config(tmp_path, cfg))]) == 0
