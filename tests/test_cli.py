"""Config validation, pipeline runs, determinism, and exit codes."""

import csv
import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import modecomb
from modecomb import CalibrationStore, CovarianceMatrix, sample
from modecomb.bases import mode_rotation
from modecomb.cli import (
    _couplings_for,
    _interval_covariances,
    _output_state,
    _jsonify,
    _write_covariance,
    _write_csv,
    load_config,
    main,
    run_scenario,
    write_demo_config,
)
from modecomb.config import TWO_PI, validate_config
from modecomb.coupling_graph import dressed_frequencies
from modecomb.errors import ConfigError
from modecomb.scattering import magnitude_db
from test_gaussian_state import WISHART_V, drift_stack, rectangle_probabilities

MIRROR = """\
system:
  mirror:
    freq_lc_hz: 8.0e9
    coupling_vac_hz: 1.588e6
"""

PAIR_MODES = """\
  modes:
    - {index: 0, freq_hz: 3.8245e9, loss_ext_hz: 36.0e3, loss_int_hz: 4.0e3}
    - {index: 1, freq_hz: 3.8375e9, loss_ext_hz: 36.0e3, loss_int_hz: 4.0e3}
"""

COMB_MODES = """\
  modes:
    - {index: 0, freq_hz: 3.8245e9, loss_ext_hz: 20.0e3, loss_int_hz: 20.0e3}
    - {index: 1, freq_hz: 3.8375e9, loss_ext_hz: 20.0e3, loss_int_hz: 20.0e3}
    - {index: 2, freq_hz: 3.8506e9, loss_ext_hz: 20.0e3, loss_int_hz: 20.0e3}
    - {index: 3, freq_hz: 3.8638e9, loss_ext_hz: 20.0e3, loss_int_hz: 20.0e3}
"""

SMALL_TWOMODE = """\
pipeline: twomode
output_dir: @OUT@
seed: 11
""" + MIRROR + PAIR_MODES + """\
pumps:
  - {freq_hz: 3.8310e9, epsilon_hz: 15.0e3}
environment:
  temp_k: 0.007
amplifier:
  gain_db: 40.0
  added_photons: 0.15
  sigma_gain_rel: 0.01
  sigma_noise_photons: 0.02
sampling:
  n_samples: 2000
  interval_count: 2
twomode:
  pair: [0, 1]
  detuning_start_hz: -30.0e3
  detuning_stop_hz: 30.0e3
  detuning_count: 3
  histogram_detunings: [1]
"""

SMALL_MULTIMODE = """\
pipeline: multimode
output_dir: @OUT@
seed: 5
""" + MIRROR + COMB_MODES + """\
pumps:
  - {freq_hz: 3.83100e9, epsilon_hz: 30.0e3}
  - {freq_hz: 3.84405e9, epsilon_hz: 30.0e3}
  - {freq_hz: 3.85720e9, epsilon_hz: 30.0e3}
  - {freq_hz: 3.84415e9, epsilon_hz: 30.0e3}
coupling:
  allow_unstable: true
environment:
  temp_k: 0.007
amplifier:
  gain_db: 80.0
  added_photons: 12.0
  sigma_gain_rel: 0.01
  sigma_noise_photons: 0.1
sampling:
  n_samples: 3000
  interval_count: 5
multimode: {}
"""

SMALL_CALIBRATION = """\
pipeline: calibration
output_dir: @OUT@
seed: 3
""" + MIRROR + PAIR_MODES + """\
environment:
  temp_k: 0.007
calibration:
  planck:
    gain_db: 80.0
    added_photons: 0.08
    freq_hz: 3.8245e9
    temp_start_k: 0.01
    temp_stop_k: 4.0
    temp_count: 15
    temp_spacing: geometric
    noise_rel: 0.01
  correlation:
    gain_db: 80.0
    eps_hz: 6.0e3
    pair: [0, 1]
    span_hz: 120.0e3
    count: 21
"""

SMALL_SCATTERING = """\
pipeline: scattering
output_dir: @OUT@
seed: 1
""" + MIRROR + COMB_MODES + """\
pumps:
  - {freq_hz: 3.83100e9, epsilon_hz: 10.0e3}
  - {freq_hz: 3.84405e9, epsilon_hz: 10.0e3}
scattering:
  spacing_start_hz: 12.99e6
  spacing_stop_hz: 13.11e6
  spacing_count: 5
"""


def write_config(tmp_path, template, name="scenario.cfg", out=None):
    path = tmp_path / name
    out_dir = out if out is not None else str(tmp_path / "out")
    path.write_text(template.replace("@OUT@", out_dir))
    return path


def read_report(out_dir):
    with open(os.path.join(out_dir, "report.json")) as fh:
        return json.load(fh)


def test_demo_configs_validate(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for pipeline in ("twomode", "multimode", "calibration", "scattering"):
        assert main(["demo", pipeline]) == 0
        assert main(["validate", f"demo-{pipeline}.cfg"]) == 0


def test_yaml_exponent_floats(tmp_path):
    # values like 8.0e9 must parse as numbers, not strings
    path = tmp_path / "floats.cfg"
    path.write_text("a: 8.0e9\nb: -1e-3\nc: 2.5E+06\n")
    doc, digest = load_config(path)
    assert doc == {"a": 8.0e9, "b": -1e-3, "c": 2.5e6}
    assert len(digest) == 64


def test_twomode_pipeline_run(tmp_path):
    path = write_config(tmp_path, SMALL_TWOMODE)
    report = run_scenario(path)
    out = report.output_dir
    for name in report.files:
        assert os.path.isfile(os.path.join(out, name))
    assert "squeezing_vs_detuning.csv" in report.files
    assert any(n.startswith("histograms_d") for n in report.files)
    with open(os.path.join(out, "squeezing_vs_detuning.csv"), newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:2] == ["detuning_hz", "r_e"]
    assert len(rows) == 1 + 3
    m = report.metrics
    assert len(m["r_e"]) == 3
    assert m["r_p_best"] <= min(m["r_p"]) + 1e-12


def test_multimode_pipeline_run_and_determinism(tmp_path):
    path_a = write_config(tmp_path, SMALL_MULTIMODE, name="a.cfg")
    report_a = run_scenario(path_a)
    digest_first = {}
    for name in report_a.files:
        with open(os.path.join(report_a.output_dir, name), "rb") as fh:
            digest_first[name] = hashlib.sha256(fh.read()).hexdigest()
    # second run into a fresh directory must be byte-identical
    sub = tmp_path / "again"
    sub.mkdir()
    path_b = write_config(sub, SMALL_MULTIMODE, name="a.cfg",
                          out=str(sub / "out"))
    report_b = run_scenario(path_b)
    assert report_a.files == report_b.files
    for name in report_b.files:
        if name == "report.json":
            continue  # report embeds the config path
        with open(os.path.join(report_b.output_dir, name), "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == digest_first[name], name
    table = json.load(open(os.path.join(report_a.output_dir,
                                        "entanglement_table.json")))
    assert len(table["bipartitions"]) == 7
    assert report_a.metrics["intervals_converged"] == 5
    # quality flags of each interval, counted in the metrics
    intervals = table["intervals"]
    assert [row["interval"] for row in intervals] == list(range(5))
    flagged = [row for row in intervals if row["flags"]]
    assert report_a.metrics["intervals_flagged"] == len(flagged)
    counts = report_a.metrics["flag_counts"]
    assert sum(counts.values()) == sum(len(row["flags"]) for row in intervals)
    for row in intervals:
        assert ("iq_residual_above_limit" in row["flags"]) == (row["iq_residual"] > 0.05)


def reference_interval_draw(v_model, scfg, i):
    """The earlier per-interval draw of the multimode pipeline, kept as an
    oracle: one ``sample_covariance`` call, then the drift turn."""
    v_hat = modecomb.sample_covariance(v_model, scfg.n_samples, [scfg.seed, 0, i])
    if scfg.drift_phase:
        phi = float(np.random.default_rng([scfg.seed, 1, i]).uniform(0.0, 2.0 * np.pi))
        v_hat = v_hat.rotate(np.full(v_model.n_modes, phi))
    return v_hat.v


@pytest.mark.parametrize("drift_phase", [False, True])
@pytest.mark.parametrize("count", [1, 75])
def test_interval_stack_matches_one_draw_per_interval(count, drift_phase):
    v_model = CovarianceMatrix(4, 1e8 * WISHART_V)
    scfg = SimpleNamespace(seed=7, n_samples=100_000, interval_count=count,
                           drift_phase=drift_phase)
    stack = _interval_covariances(scfg, v_model)
    assert stack.v.shape == (count, 8, 8)
    for i, row in enumerate(stack.v):
        assert np.array_equal(row, reference_interval_draw(v_model, scfg, i)), i


def reference_twomode(scfg):
    """The earlier per-detuning loop of the twomode pipeline, kept as an
    oracle: each detuning on its own, its intervals turned by their drift
    angles, one ``sample_covariance`` call per pump state, and the ratios
    and histograms of one matrix or one interval stack at a time."""
    sec, modes = scfg.section, scfg.system.modes
    n, pair = len(modes), sec["pair"]
    _, couplings = _couplings_for(scfg)
    amp = scfg.amplifier.amplifier(n)
    detunings = np.linspace(sec["detuning_start_hz"], sec["detuning_stop_hz"],
                            sec["detuning_count"])
    probes = np.tile(dressed_frequencies(modes, couplings), (len(detunings), 1))
    probes[:, pair[0]] += TWO_PI * detunings
    probes[:, pair[1]] -= TWO_PI * detunings
    v_on_all, v_off_all = (modecomb.amplify(_output_state(scfg, c, probes), amp).v
                           for c in (couplings, {}))
    rows_per_state = 2 * scfg.n_samples
    rows = []
    for d_idx in range(len(detunings)):
        v_on, v_off = CovarianceMatrix(n, v_on_all[d_idx]), CovarianceMatrix(n, v_off_all[d_idx])
        phis = np.zeros(scfg.interval_count)
        if scfg.drift_phase:
            phis = np.array([np.random.default_rng([scfg.seed, 1, d_idx, i]).uniform(0.0, TWO_PI)
                             for i in range(scfg.interval_count)])
        r = mode_rotation(np.repeat(phis[:, None], n, axis=1))
        on, off = (CovarianceMatrix(n, r @ v.v @ np.swapaxes(r, -1, -2)) for v in (v_on, v_off))
        r_e, r_p = modecomb.squeezing_stats(*(
            modecomb.sample_covariance(v, rows_per_state, [scfg.seed, 2, d_idx, state])
            for state, v in enumerate((on, off))), pair)
        r_e_model, r_p_model = modecomb.squeezing_stats(v_on, v_off, pair)
        row = {"r_e": r_e, "r_p": r_p, "r_e_model": r_e_model, "r_p_model": r_p_model,
               "v_on": v_on.v, "v_off": v_off.v}
        if d_idx in sec["histogram_detunings"]:
            row["hists"] = modecomb.histogram2d_subtracted(
                on, off, pair, rows_per_state, [scfg.seed, 3, d_idx],
                bin_width=sec["histogram_bin"], span=sec["histogram_span"])
        rows.append(row)
    return rows


def read_floats(path):
    """The numeric cells of a CSV artifact, header and label columns dropped."""
    with open(path, newline="") as fh:
        table = list(csv.reader(fh))[1:]
    return np.array([[float(x) for x in row[1:]] for row in table]), [row[0] for row in table]


@pytest.mark.parametrize("drift_phase", [False, True])
def test_twomode_pass_matches_one_detuning_at_a_time(tmp_path, drift_phase):
    cfg = SMALL_TWOMODE.replace(
        "  interval_count: 2\n", f"  interval_count: 2\n  drift_phase: {str(drift_phase).lower()}\n"
    ).replace("histogram_detunings: [1]", "histogram_detunings: [0, 2]")
    path = write_config(tmp_path, cfg)
    report = run_scenario(path)
    scfg = validate_config(load_config(path)[0], config_path=str(path))
    assert scfg.drift_phase is drift_phase
    rows = reference_twomode(scfg)
    for key in ("r_e", "r_p", "r_e_model", "r_p_model"):
        assert report.metrics[key] == [row[key] for row in rows], key
    for d_idx in (0, 2):
        got, labels = read_floats(os.path.join(report.output_dir, f"histograms_d{d_idx:02d}.csv"))
        hists = rows[d_idx]["hists"]
        assert labels == [a for a in sorted(hists) for _ in range(hists[a].counts[0].size)]
        want = np.vstack([np.column_stack([*h.counts.reshape(2, -1),
                                           *np.round(h.expected, 6).reshape(2, -1)])
                          for _, h in sorted(hists.items())])
        assert np.array_equal(got[:, [4, 5, 7, 8]], want), d_idx
    for state in ("on", "off"):
        got, _ = read_floats(os.path.join(report.output_dir, f"covariance_{state}_model.csv"))
        assert np.array_equal(got, rows[1][f"v_{state}"]), state


def test_twomode_drift_phase_run(tmp_path):
    cfg = SMALL_TWOMODE.replace("  interval_count: 2\n",
                                "  interval_count: 2\n  drift_phase: true\n")
    report = run_scenario(write_config(tmp_path, cfg))
    m = report.metrics
    assert all(np.isfinite(m["r_e"])) and min(m["r_e"]) >= 1.0
    assert "histograms_d01.csv" in report.files


def test_twomode_histograms_match_pooled_records(tmp_path):
    # The histogram CSV's model columns are rows * p of each drift-rotated
    # interval, rounded to 1e-6 row, and its counts and the pooled records of every chopped block
    # (``sample``, then np.histogram2d) both fit them. A 24-bin window of
    # +-300 holds most of the 40 dB records (SD about 150).
    cfg = SMALL_TWOMODE.replace("  n_samples: 2000\n  interval_count: 2\n",
                                "  n_samples: 5000\n  interval_count: 2\n"
                                "  drift_phase: true\n")
    cfg += "  histogram_bin: 25.0\n  histogram_span: 300.0\n"
    report = run_scenario(write_config(tmp_path, cfg))
    out = report.output_dir

    def model(name):
        with open(os.path.join(out, name), newline="") as fh:
            return CovarianceMatrix(2, [[float(x) for x in row[1:]]
                                        for row in list(csv.reader(fh))[1:]])

    # the model covariances are written for the middle detuning, index 1
    v = {True: model("covariance_on_model.csv"), False: model("covariance_off_model.csv")}
    seed, d_idx, blocks, rows = 11, 1, 4, 10_000  # 2 pump-on and 2 pump-off blocks
    phis = [np.random.default_rng([seed, 1, d_idx, i]).uniform(0.0, 2.0 * np.pi)
            for i in range(2)]
    stacks = {on: drift_stack(v[on], phis) for on in v}
    pooled = {True: [], False: []}
    for i in range(2):
        for b in range(blocks):
            smp = sample(v[b % 2 == 0], 5000, [seed, 0, d_idx, i, b])
            pooled[b % 2 == 0].append(smp.rotate(np.full(2, phis[i])).data)
    edges = np.linspace(-300.0, 300.0, 25)
    with open(os.path.join(out, "histograms_d01.csv"), newline="") as fh:
        table = list(csv.reader(fh))
    assert table[0] == ["axes", "row", "col", "x_low", "y_low", "count_on", "count_off",
                        "difference", "count_on_model", "count_off_model"]
    got = np.array([[float(x) for x in row[1:]] for row in table[1:]])
    assert [row[0] for row in table[1:]] == [a for a in ("I+I-", "I+Q-", "Q+Q-")
                                             for _ in range(24 * 24)]
    chi2 = {"drawn": 0.0, "records": 0.0}
    dof = 0
    for t, (a, b) in enumerate(((0, 2), (0, 3), (1, 3))):  # I+I-, I+Q-, Q+Q-
        part = got[t * 576:(t + 1) * 576]
        r, c = np.indices((24, 24)).reshape(2, -1)
        assert np.array_equal(part[:, :4], np.column_stack([r, c, edges[r], edges[c]]))
        assert np.array_equal(part[:, 6], part[:, 4] - part[:, 5])
        for s, on in enumerate((True, False)):
            want = rows * sum(rectangle_probabilities(m[np.ix_([a, b], [a, b])], edges)
                              for m in stacks[on].v).ravel()
            assert np.allclose(part[:, 7 + s], want, rtol=1e-12, atol=5e-7)  # written to 1e-6
            records = np.vstack(pooled[on])
            oracle = np.histogram2d(records[:, a], records[:, b], bins=[edges, edges])[0]
            big = want >= 5.0
            rest = 2 * rows - want[big].sum()
            dof += big.sum()
            for name, counts in (("drawn", part[:, 4 + s]), ("records", oracle.ravel())):
                kept = counts[big]
                chi2[name] += np.sum((kept - want[big]) ** 2 / want[big])
                chi2[name] += (2 * rows - kept.sum() - rest) ** 2 / rest
    for name, value in chi2.items():
        assert abs(value - dof) <= 5.0 * np.sqrt(2.0 * dof), (name, value, dof)


def test_workers_key_is_refused(tmp_path, capsys):
    # every pipeline runs serially, so the key is unknown
    path = write_config(tmp_path, SMALL_TWOMODE + "workers: 2\n")
    assert main(["run", str(path)]) == 2
    assert "config field 'workers': unknown key" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_calibration_pipeline_run(tmp_path):
    path = write_config(tmp_path, SMALL_CALIBRATION)
    report = run_scenario(path)
    out = report.output_dir
    store = CalibrationStore.from_json(os.path.join(out, "calibration.json"))
    assert store.gain == pytest.approx(1e8, rel=0.05)
    assert store.added_photons == pytest.approx(0.08, abs=0.02)
    # noiseless correlation branch recovers its parameters almost exactly
    assert report.metrics["correlation"]["eps_hz"] == pytest.approx(6e3, rel=1e-4)
    assert store.eps == pytest.approx(2 * np.pi * 6e3, rel=1e-4)


def test_planck_data_csv_fits_back_its_own_parameters(tmp_path):
    # the fit takes the load frequency in Hz, as planck_power does
    temps = np.geomspace(0.01, 4.0, 15)
    powers = modecomb.planck_power(temps, 1e8, 0.08, 3.8245e9)
    data = tmp_path / "planck.csv"
    data.write_text("temp_k,power\n" + "".join(
        f"{t!r},{p!r}\n" for t, p in zip(temps.tolist(), powers.tolist())))
    cfg = SMALL_CALIBRATION.replace(
        "    temp_start_k: 0.01\n    temp_stop_k: 4.0\n    temp_count: 15\n"
        "    temp_spacing: geometric\n    noise_rel: 0.01\n",
        f"    data_csv: {data}\n",
    )
    cfg = cfg[: cfg.index("  correlation:")]
    report = run_scenario(write_config(tmp_path, cfg))
    assert report.metrics["planck"]["gain"] == pytest.approx(1e8, rel=1e-9)
    assert report.metrics["planck"]["added_photons"] == pytest.approx(0.08, rel=1e-9)


def test_scattering_pipeline_run(tmp_path):
    path = write_config(tmp_path, SMALL_SCATTERING)
    report = run_scenario(path)
    out = report.output_dir
    assert "scattering_sweep.csv" in report.files
    assert "scattering_matched.csv" in report.files
    n_matches = report.metrics["n_matches"]
    assert len(n_matches) == 5
    # matching is best when the pump comb sits on the nominal spacing
    assert max(n_matches) == n_matches[2]
    with open(os.path.join(out, "scattering_sweep.csv"), newline="") as fh:
        header = next(csv.reader(fh))
    assert header[:3] == ["spacing_hz", "n_matches", "out"]


def test_scattering_sweep_is_in_the_ladder_basis(tmp_path):
    report = run_scenario(write_config(tmp_path, SMALL_SCATTERING))
    out = report.output_dir
    with open(os.path.join(out, "scattering_sweep.csv"), newline="") as fh:
        sweep = list(csv.DictReader(fh))
    with open(os.path.join(out, "scattering_matched.csv"), newline="") as fh:
        matched = {(r["out"], r["in"]): r for r in csv.DictReader(fh)}
    # a quadrature-basis S is real: every phase would be 0 or pi
    phases = np.abs([float(r["phase_rad"]) for r in sweep])
    assert np.any(np.minimum(phases, np.abs(phases - np.pi)) > 1e-3)
    m = report.metrics
    spacings = np.asarray(m["spacings_hz"])
    nominal = spacings[np.argmin(np.abs(spacings - m["nominal_spacing_hz"]))]
    row = next(r for r in sweep if float(r["spacing_hz"]) == nominal
               and (r["out"], r["in"]) == ("b0", "b0"))
    ref = matched[("b0", "b0")]
    assert (ref["ref_out"], ref["ref_in"]) == ("b0", "b0")
    assert float(row["mag_db"]) == pytest.approx(
        20.0 * np.log10(float(ref["ref_abs"])) + float(ref["mag_db"]), rel=1e-12)
    assert float(row["phase_rad"]) == float(ref["phase_rad"])


def test_zero_scattering_elements_read_minus_inf_in_both_tables(tmp_path, monkeypatch):
    monkeypatch.setenv("MODECOMB_OUT_ROOT", str(tmp_path))
    report = run_scenario(write_demo_config("scattering", str(tmp_path)))
    out = report.output_dir
    with open(os.path.join(out, "scattering_sweep.csv"), newline="") as fh:
        sweep = list(csv.DictReader(fh))
    with open(os.path.join(out, "scattering_matched.csv"), newline="") as fh:
        matched = {(r["out"], r["in"]): r for r in csv.DictReader(fh)}
    nominal = report.metrics["spacings_hz"][
        int(np.argmin(np.abs(np.asarray(report.metrics["spacings_hz"])
                             - report.metrics["nominal_spacing_hz"])))]
    at_nominal = {(r["out"], r["in"]): r for r in sweep
                  if float(r["spacing_hz"]) == nominal}
    # no pump couples b0 to b1: the element is exactly zero
    assert at_nominal[("b0", "b1")]["mag_db"] == "-inf"
    assert matched[("b0", "b1")]["mag_db"] == "-inf"
    ref_db = 20.0 * np.log10(float(matched[("b0", "b0")]["ref_abs"]))
    for key, row in matched.items():
        assert float(at_nominal[key]["mag_db"]) == pytest.approx(
            ref_db + float(row["mag_db"]), rel=1e-12), key


def test_scattering_tables_match_per_element_calls(tmp_path, monkeypatch):
    # reference: one magnitude_db and np.angle call per matrix element
    monkeypatch.setenv("MODECOMB_OUT_ROOT", str(tmp_path))
    nets = []

    def recording_network(*args, **kwargs):
        nets.append(network_call(*args, **kwargs))
        return nets[-1]

    network_call = modecomb.cli._network
    monkeypatch.setattr(modecomb.cli, "_network", recording_network)
    path = tmp_path / "demo-scattering.cfg"
    write_demo_config("scattering", str(tmp_path))
    path.write_text(path.read_text().replace("  ref_out: 0\n  ref_in: 0\n",
                                             "  ref_out: 2\n  ref_in: 2\n"))
    report = run_scenario(path)
    m = report.metrics
    assert len(nets) == len(m["spacings_hz"]) == 25
    labels = ["b0", "b1", "b2", "b3", "bdag0", "bdag1", "bdag2", "bdag3"]

    def cell(x):
        return repr(float(x))

    want_sweep = [[cell(s), str(n_match), labels[r], labels[c],
                   cell(magnitude_db(net.s[r, c])), cell(np.angle(net.s[r, c]))]
                  for s, n_match, net in zip(m["spacings_hz"], m["n_matches"], nets)
                  for r, c in np.ndindex(net.s.shape)]
    ladder = nets[int(np.argmin(np.abs(np.asarray(m["spacings_hz"])
                                       - m["nominal_spacing_hz"])))]
    ref_abs = abs(ladder.s[2, 2])
    want_matched = [[labels[r], labels[c], cell(magnitude_db(ladder.s[r, c], ref_abs)),
                     cell(np.angle(ladder.s[r, c])), "b2", "b2", cell(ref_abs)]
                    for r, c in np.ndindex(ladder.s.shape)]
    assert any(row[2] == "-inf" for row in want_matched)
    for name, want in (("scattering_sweep.csv", want_sweep),
                       ("scattering_matched.csv", want_matched)):
        with open(os.path.join(report.output_dir, name), newline="") as fh:
            assert list(csv.reader(fh))[1:] == want, name


def csv_writer_reference(out_dir, name, header, blocks):
    # the csv.writer form of cli._write_csv, kept as the reference for its
    # bytes: an integer array goes to csv.writer as Python ints, any other
    # array as Python floats
    def cells(c):
        if not isinstance(c, np.ndarray):
            return c
        return c.tolist() if c.dtype.kind in "iu" else c.astype(float).tolist()

    with open(os.path.join(out_dir, name), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for columns in blocks:
            w.writerows(zip(*map(cells, columns)))
    return name


def test_write_csv_cell_rule(tmp_path):
    # a numpy integer array column is written as str(int(x)) and any other
    # numpy array column as repr(float(x)); a list column as str() writes its
    # cells, which for float and np.float64 is the same repr
    floats = [0.1, 3.0, 0.0, -0.0, np.inf, -np.inf, np.nan, 1e16, 1e-5]
    _write_csv(tmp_path, "cells.csv", ["s", "i", "f", "f64", "a64", "ai", "a32"], [
        (["a", "b,c"], [3, -2], floats[:2], [np.float64(0.1), np.float64(-0.0)],
         np.array([1e16, np.nan]), np.array([3, -2]), np.array([0.1, 3.0], np.float32)),
        (["x"] * 7, [0] * 7, floats[2:], [np.float64(x) for x in floats[2:]],
         np.array(floats[2:]), np.arange(7, dtype=np.int32), np.array(floats[2:], np.float32)),
    ])
    assert (tmp_path / "cells.csv").read_bytes() == (
        b"s,i,f,f64,a64,ai,a32\r\n"
        b"a,3,0.1,0.1,1e+16,3,0.10000000149011612\r\n"
        b'"b,c",-2,3.0,-0.0,nan,-2,3.0\r\n'
        b"x,0,0.0,0.0,0.0,0,0.0\r\n"
        b"x,0,-0.0,-0.0,-0.0,1,-0.0\r\n"
        b"x,0,inf,inf,inf,2,inf\r\n"
        b"x,0,-inf,-inf,-inf,3,-inf\r\n"
        b"x,0,nan,nan,nan,4,nan\r\n"
        b"x,0,1e+16,1e+16,1e+16,5,1.0000000272564224e+16\r\n"
        b"x,0,1e-05,1e-05,1e-05,6,9.999999747378752e-06\r\n")
    # repeated values inside numpy columns, list cells csv must quote, an
    # empty block, a lone empty field and blocks given as a generator
    repeats = np.array([0.0, -0.0, np.nan, 0.0, -np.nan, np.inf, -np.inf, np.nan, -0.0, np.inf])
    tables = [
        (["x", "y,z", 'q"uote', "line\nfeed", "carriage\rreturn", ""], lambda: [
            (["", ",", '"', "\n", "a\r\nb", "", ",", '""', "plain", "\r"],
             list(range(10)), repeats, repeats.astype(np.float32),
             np.array([3, -2, 3, 0, 3, -2, 0, 0, 7, 3]), repeats.tolist()),
            ([], [], np.array([]), np.array([], np.float32), np.array([], int), []),
            (["a", "a"], [1, 1], repeats[::-5], repeats[1::-1].astype(np.float32),
             np.array([1, 1], np.int32), [np.float64(0.1), -0.0]),
        ]),
        (["lone"], lambda: [([""],), (["", "x", ""],), (np.array([-0.0, 0.0, -0.0]),)]),
        ([""], lambda: ((c,) for c in ([1, ""], np.arange(3.0), ["", '"']))),
        ([], lambda: [()]),
    ]
    for i, (header, blocks) in enumerate(tables):
        _write_csv(tmp_path, f"new{i}.csv", header, blocks())
        csv_writer_reference(tmp_path, f"ref{i}.csv", header, blocks())
        assert (tmp_path / f"new{i}.csv").read_bytes() == (tmp_path / f"ref{i}.csv").read_bytes(), i


@pytest.mark.parametrize("template", [SMALL_TWOMODE, SMALL_MULTIMODE, SMALL_CALIBRATION,
                                      SMALL_SCATTERING],
                         ids=["twomode", "multimode", "calibration", "scattering"])
def test_every_table_matches_the_csv_writer(tmp_path, monkeypatch, template):
    # every table a pipeline writes, written by both writers, in the same bytes
    reference = tmp_path / "reference"
    reference.mkdir()
    written = []

    def both(out_dir, name, header, blocks):
        blocks = list(blocks)
        csv_writer_reference(reference, name, header, blocks)
        written.append(name)
        return _write_csv(out_dir, name, header, blocks)

    monkeypatch.setattr(modecomb.cli, "_write_csv", both)
    report = run_scenario(write_config(tmp_path, template))
    assert written and sorted(written) == sorted(n for n in report.files if n.endswith(".csv"))
    for name in written:
        with open(os.path.join(report.output_dir, name), "rb") as fh:
            assert fh.read() == (reference / name).read_bytes(), name


# a lossless pump-coupled pair; the second pump matches no pair and only
# sets the comb spacing
PAIR_SCATTERING = """\
pipeline: scattering
output_dir: @OUT@
seed: 1
""" + MIRROR + """\
  modes:
    - {index: 0, freq_hz: 3.8245e9, loss_ext_hz: 40.0e3, loss_int_hz: 0.0}
    - {index: 1, freq_hz: 3.8375e9, loss_ext_hz: 40.0e3, loss_int_hz: 0.0}
pumps:
  - {freq_hz: 3.8310e9, epsilon_hz: 12.0e3}
  - {freq_hz: 3.8440e9, epsilon_hz: 12.0e3}
scattering:
  spacing_start_hz: 12.9e6
  spacing_stop_hz: 13.1e6
  spacing_count: 3
"""


def test_scattering_matched_db_table(tmp_path):
    report = run_scenario(write_config(tmp_path, PAIR_SCATTERING))
    assert report.metrics["n_matches_nominal"] == 1
    with open(os.path.join(report.output_dir, "scattering_matched.csv"), newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["out", "in", "mag_db", "phase_rad", "ref_out", "ref_in", "ref_abs"]
    assert len(rows) == 1 + 16
    table = {(r[0], r[1]): float(r[2]) for r in rows[1:]}
    assert table[("b0", "b0")] == pytest.approx(0.0, abs=1e-12)
    # the same network built from the library, probed in the pump frame
    modes = [modecomb.ModeSpec.from_hz(j, f, 40.0e3, 0.0)
             for j, f in enumerate((3.8245e9, 3.8375e9))]
    pumps = [modecomb.PumpTone.from_hz(3.8310e9), modecomb.PumpTone.from_hz(3.8440e9)]
    couplings = {(0, 1): 2.0 * np.pi * 12.0e3}
    probes, _ = modecomb.assign_probe_frequencies(
        modes, modecomb.match_four_wave(modes, pumps), couplings)
    s = modecomb.network(modes, couplings, probes).s
    expected = 20.0 * np.log10(abs(s[0, 3]) / abs(s[0, 0]))
    assert table[("b0", "bdag1")] == pytest.approx(expected, rel=1e-9)


def test_zero_reference_element_exits_two_before_any_artifact(tmp_path, capsys):
    # no pump couples b0 to b1, so S[0, 1] is exactly zero
    path = write_config(tmp_path, SMALL_SCATTERING + "  ref_in: 1\n")
    assert main(["validate", str(path)]) == 0
    assert main(["run", str(path)]) == 2
    assert "'scattering.ref_out', 'scattering.ref_in'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("template, edit, message", [
    # no pump sits midway between modes 0 and 1
    (SMALL_TWOMODE, ("freq_hz: 3.8310e9", "freq_hz: 3.9000e9"), "twomode.pair"),
    # no pump matches any pair of the comb
    (SMALL_MULTIMODE, ("  - {freq_hz: 3.83100e9, epsilon_hz: 30.0e3}\n"
                       "  - {freq_hz: 3.84405e9, epsilon_hz: 30.0e3}\n"
                       "  - {freq_hz: 3.85720e9, epsilon_hz: 30.0e3}\n"
                       "  - {freq_hz: 3.84415e9, epsilon_hz: 30.0e3}\n",
                       "  - {freq_hz: 3.90000e9, epsilon_hz: 30.0e3}\n"), "pumps"),
    # S[0, 1] is exactly zero at the nominal spacing
    (SMALL_SCATTERING + "  ref_in: 1\n", ("", ""), "scattering.ref_in"),
], ids=["twomode", "multimode", "scattering"])
def test_pipeline_config_error_leaves_no_output_directory(
        tmp_path, capsys, template, edit, message):
    path = write_config(tmp_path, template.replace(*edit))
    assert main(["validate", str(path)]) == 0
    assert main(["run", str(path)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_failed_run_keeps_an_existing_output_directory(tmp_path):
    path = write_config(tmp_path, SMALL_SCATTERING + "  ref_in: 1\n")
    (tmp_path / "out").mkdir()
    assert main(["run", str(path)]) == 2
    assert (tmp_path / "out").is_dir()


def test_bad_correlation_csv_leaves_no_artifact(tmp_path, capsys):
    data = tmp_path / "one_column.csv"
    data.write_text("detuning_hz\n-1000.0\n0.0\n1000.0\n")
    cfg = SMALL_CALIBRATION.replace(
        "    span_hz: 120.0e3\n    count: 21\n",
        f"    data_csv: {data}\n",
    )
    path = write_config(tmp_path, cfg)
    assert main(["run", str(path)]) == 2
    assert "calibration.correlation.data_csv" in capsys.readouterr().err
    # the planck subsection fits, but nothing is written before both have
    assert not (tmp_path / "out").exists()


def test_report_digest_matches_config(tmp_path):
    path = write_config(tmp_path, SMALL_SCATTERING)
    report = run_scenario(path)
    expected = hashlib.sha256(path.read_bytes()).hexdigest()
    assert report.config_digest == expected
    assert read_report(report.output_dir)["config"]["sha256"] == expected


def test_report_does_not_depend_on_the_config_path(tmp_path, monkeypatch):
    path = write_config(tmp_path, SMALL_SCATTERING)
    monkeypatch.chdir(tmp_path)
    written = []
    for config in (path.name, str(path)):  # relative, then absolute
        run_scenario(config)
        written.append((tmp_path / "out" / "report.json").read_bytes())
    assert written[0] == written[1]


def test_covariance_table_round_trips(tmp_path):
    a = np.random.default_rng(5).standard_normal((6, 6))
    v = CovarianceMatrix(3, a @ a.T)
    assert _write_covariance(tmp_path, "cov.csv", v) == "cov.csv"
    with open(tmp_path / "cov.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    labels = ["I0", "Q0", "I1", "Q1", "I2", "Q2"]
    assert rows[0] == ["row"] + labels
    assert [r[0] for r in rows[1:]] == labels
    assert np.array_equal([[float(x) for x in r[1:]] for r in rows[1:]], v.v)


def test_out_root_env_redirects_relative_dirs(tmp_path, monkeypatch):
    root = tmp_path / "rooted"
    monkeypatch.setenv("MODECOMB_OUT_ROOT", str(root))
    path = write_config(tmp_path, SMALL_SCATTERING, out="rel-out")
    report = run_scenario(path)
    assert report.output_dir == str(root / "rel-out")
    assert os.path.isfile(root / "rel-out" / "report.json")


def test_validate_rejects_unknown_mode_index(tmp_path):
    bad = SMALL_TWOMODE.replace("pair: [0, 1]", "pair: [0, 5]")
    path = write_config(tmp_path, bad)
    assert main(["validate", str(path)]) == 2
    with pytest.raises(ConfigError, match="twomode.pair"):
        run_scenario(path)


def test_validate_rejects_unknown_top_level_key(tmp_path):
    path = write_config(tmp_path, SMALL_SCATTERING + "\nbogus: 1\n")
    assert main(["validate", str(path)]) == 2


def test_unstable_pump_needs_override(tmp_path):
    hot = SMALL_TWOMODE.replace("epsilon_hz: 15.0e3", "epsilon_hz: 21.0e3")
    path = write_config(tmp_path, hot)
    with pytest.raises(ConfigError, match="allow_unstable"):
        run_scenario(path)
    assert main(["run", str(path)]) == 2


def test_insufficient_data_exits_three(tmp_path):
    data = tmp_path / "two_rows.csv"
    data.write_text("detuning_hz,c\n-1000.0,5.0\n1000.0,5.0\n")
    cfg = SMALL_CALIBRATION.replace(
        "    span_hz: 120.0e3\n    count: 21\n",
        f"    data_csv: {data}\n",
    )
    # drop the planck branch so the correlation failure decides the exit code
    cfg = cfg[: cfg.index("  planck:")] + cfg[cfg.index("  correlation:") :]
    path = write_config(tmp_path, cfg)
    assert main(["run", str(path)]) == 3


def test_non_finite_entanglement_table_exits_three(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(modecomb.cli, "significance", lambda values, sigmas: float("nan"))
    path = write_config(tmp_path, SMALL_MULTIMODE)
    assert main(["run", str(path)]) == 3
    assert ("non-finite value in entanglement_table.json.bipartitions[0].weighted_significance"
            in capsys.readouterr().err)
    assert not (tmp_path / "out" / "entanglement_table.json").exists()
    assert not (tmp_path / "out" / "report.json").exists()


def test_non_finite_calibration_file_exits_three(tmp_path, capsys, monkeypatch):
    fit = modecomb.calibration.planck_fit
    monkeypatch.setattr(modecomb.calibration, "planck_fit", lambda *args, **kwargs: replace(
        fit(*args, **kwargs), cov_gain_noise=float("inf")))
    path = write_config(tmp_path, SMALL_CALIBRATION)
    assert main(["run", str(path)]) == 3
    assert "non-finite value in calibration.json.cov_gain_noise" in capsys.readouterr().err
    assert not (tmp_path / "out" / "calibration.json").exists()
    assert not (tmp_path / "out" / "report.json").exists()


def test_jsonify_writes_bools_as_bools():
    # bool is an int subclass, and np.bool_ is neither, so both are tested first
    got = _jsonify({"a": True, "b": np.bool_(False), "c": np.array([True])}, "x")
    assert got == {"a": True, "b": False, "c": [True]}
    assert all(type(x) is bool for x in (got["a"], got["b"], got["c"][0]))
    assert json.dumps(got, sort_keys=True) == '{"a": true, "b": false, "c": [true]}'


def test_non_finite_data_exits_two(tmp_path):
    data = tmp_path / "nan.csv"
    data.write_text("detuning_hz,c\n-1000.0,nan\n0.0,5.0\n1000.0,5.0\n")
    cfg = SMALL_CALIBRATION.replace(
        "    span_hz: 120.0e3\n    count: 21\n",
        f"    data_csv: {data}\n",
    )
    path = write_config(tmp_path, cfg)
    assert main(["run", str(path)]) == 2


def test_missing_seed_rejected_for_sampling_pipelines(tmp_path):
    cfg = SMALL_TWOMODE.replace("seed: 11\n", "")
    path = write_config(tmp_path, cfg)
    with pytest.raises(ConfigError, match="seed"):
        run_scenario(path)


def test_write_demo_config_rejects_unknown(tmp_path):
    with pytest.raises(ConfigError):
        write_demo_config("nonsense", str(tmp_path))


def test_demo_into_missing_directory_exits_two(tmp_path, capsys):
    missing = tmp_path / "missing" / "dir"
    assert main(["demo", "twomode", "--dir", str(missing)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot write config file")
    assert "Traceback" not in err
    assert not missing.exists()


def test_python_dash_m_entry_point():
    src = os.path.dirname(os.path.dirname(os.path.abspath(modecomb.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "modecomb", "--help"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: modecomb")
    assert "RuntimeWarning" not in proc.stderr
