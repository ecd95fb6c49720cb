"""Config-driven scenario runner.

A scenario is one YAML document describing the mode comb, the pump tones,
the measurement chain and exactly one analysis pipeline.  ``run_scenario``
builds the network, executes the pipeline and writes a deterministic set
of artifacts (``report.json`` plus CSV tables) into the output directory.

Pipelines
---------
``twomode``
    Pump-probe detuning sweep on one mode pair.  Each interval is four
    chopped blocks of ``n_samples`` rows, two pump-on and two pump-off;
    each detuning reports the raw and pump-referenced squeezing ratios of
    their pooled sample covariances and, for selected detunings,
    background-subtracted 2D quadrature histograms, drawn from their exact
    bin probabilities with the expected counts beside them.
``multimode``
    Repeated measurement intervals of the full comb output.  Every
    interval's sample covariance is drawn, de-embedded through the
    calibrated amplifier, reconstructed to the nearest physical
    covariance and tested against every bipartition; the per-interval
    witness values are combined into weighted significances.
``calibration``
    Amplification-chain fits: a thermal-sweep power fit and/or a
    correlation-lineshape fit, persisted as a calibration file that the
    sampling pipelines can load back.
``scattering``
    Scattering magnitude tables as the pump comb spacing is swept
    through the four-wave matching condition.

Reruns with identical config and seed are byte-identical: every random
draw derives from a per-task seed sequence, JSON keys are sorted, floats
are written with ``repr`` and no timestamps appear in any artifact.

Exit codes: 0 success, 2 configuration errors, 3 numerical failures.
The environment variable ``MODECOMB_OUT_ROOT`` relocates relative output
directories without touching the config file.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import sys
from collections import Counter
from dataclasses import asdict, dataclass, field

import numpy as np

from . import calibration as cal
from .config import TWO_PI, load_config, validate_config
from .coupling_graph import (
    assign_probe_frequencies,
    dressed_frequencies,
    match_four_wave,
    pair_couplings,
)
from .entanglement import (
    all_bipartition_reports,
    entanglement_sigma,
    ppt_min_eigenvalue,
    propagate_errors,
    significance,
)
from .errors import ConfigError, ModecombError, NumericalError, UnstablePumpError
from .gaussian_state import (
    CovarianceMatrix,
    amplify,
    covariance_sem,
    deamplify,
    histogram2d_subtracted,
    output_covariance,
    sample_covariance_stack,
    squeezing_stats,
    thermal_covariance,
)
from .modesys import PumpTone
from .reconstruct import reconstruct_intervals
from .scattering import magnitude_db, network

# ---------------------------------------------------------------------------
# Shared pipeline plumbing


@dataclass
class RunReport:
    """Artifact manifest and headline numbers of one pipeline run."""

    pipeline: str
    config_digest: str
    output_dir: str
    files: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "pipeline": self.pipeline,
            "config": {"sha256": self.config_digest},
            "files": sorted(self.files),
            "metrics": self.metrics,
        }


def _jsonify(obj, where):
    """``obj`` with numpy values as Python ones; a non-finite float raises
    NumericalError naming its dotted path, which starts at ``where``."""
    if isinstance(obj, dict):
        return {str(k): _jsonify(v, f"{where}.{k}") for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v, f"{where}[{i}]") for i, v in enumerate(obj)]
    if isinstance(obj, (np.floating, float)):
        obj = float(obj)
        if not math.isfinite(obj):
            raise NumericalError(f"non-finite value in {where}")
        return obj
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def _write_json(path, payload):
    """Write a JSON artifact; a non-finite value raises before the file opens."""
    payload = _jsonify(payload, os.path.basename(path))
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


def _csv_fields(column, lone=False):
    """The CSV fields of one column, each distinct value formatted once.

    A numpy integer array column gives ``str(int(x))`` per element, any other
    numpy array column ``repr(float(x))``, float32 included; floats are told
    apart by their float64 bits, so -0.0 and 0.0 keep their own reprs. Any
    other column gives ``str(x)`` per cell, quoted as the csv module quotes
    it: a field holding ``,``, ``"``, ``\\r`` or ``\\n`` (or an empty field
    ``lone`` in its row) goes in double quotes with its quotes doubled.
    """
    if isinstance(column, np.ndarray):
        ints = column.dtype.kind in "iu"
        keys, inverse = np.unique(column if ints else column.astype(float).view(np.int64),
                                  return_inverse=True)
        text = map(str, keys.tolist()) if ints else map(repr, keys.view(float).tolist())
        return np.array(list(text), dtype=object)[inverse].tolist()
    cells = list(map(str, column))
    quoted = {s: '"' + s.replace('"', '""') + '"' for s in set(cells)
              if (lone and not s) or any(ch in s for ch in ',"\r\n')}
    return [quoted.get(s, s) for s in cells] if quoted else cells


def _write_csv(out_dir, name, header, blocks):
    """Write a CSV artifact and return its name. ``blocks`` yields groups of
    rows, each as a sequence of equal-length columns, whose cells
    ``_csv_fields`` formats. Lines end in ``\\r\\n``, as the csv module ends
    them."""
    with open(os.path.join(out_dir, name), "w", newline="") as fh:
        fh.write(",".join(_csv_fields(header, len(header) == 1)) + "\r\n")
        for columns in blocks:
            rows = zip(*(_csv_fields(c, len(columns) == 1) for c in columns))
            fh.writelines(",".join(row) + "\r\n" for row in rows)
    return name


def _write_covariance(out_dir, name, v):
    """Write one covariance matrix as a CSV table with I/Q labels; a stack
    is refused before the file is opened."""
    matrix = v._single(name)
    labels = [f"{q}{j}" for j in range(v.n_modes) for q in "IQ"]
    return _write_csv(out_dir, name, ["row"] + labels, [(labels, *matrix.T)])


def _couplings_for(scfg, pumps=None):
    """Four-wave matches and complex pair couplings for the configured comb.

    Explicit per-pump strengths (epsilon_hz) override the microscopic
    flux-drive chain; multiple pumps matching one pair add coherently.
    """
    modes = scfg.system.modes
    pumps = scfg.pumps if pumps is None else pumps
    matches = match_four_wave(modes, pumps, tolerance=scfg.tolerance)
    if scfg.pump_eps is not None:
        couplings = {}
        for mt in matches:
            key = (mt.mode_j, mt.mode_k)
            eps = scfg.pump_eps[mt.pump_index] * cmath.exp(
                -2j * pumps[mt.pump_index].theta)
            couplings[key] = couplings.get(key, 0.0) + eps
    else:
        couplings = pair_couplings(modes, pumps, scfg.system.mirror, matches)
    return matches, couplings


def _network(scfg, couplings, probe_omegas=None):
    """Ladder-basis scattering pair of the configured network.

    ``probe_omegas`` of shape (K, N) gives a stack of K networks. A pump
    above threshold is a config problem unless the config allows it.
    """
    try:
        return network(scfg.system.modes, couplings, probe_omegas,
                       scfg.allow_unstable)
    except UnstablePumpError as exc:
        raise ConfigError(
            f"{exc}; set 'coupling: {{allow_unstable: true}}' to run the "
            f"network above threshold anyway") from exc


def _output_state(scfg, couplings, probe_omegas=None):
    pair = _network(scfg, couplings, probe_omegas=probe_omegas).to_quadrature()
    v_th = thermal_covariance(scfg.system.modes, scfg.temperature)
    return output_covariance(pair, v_th, v_loss=v_th)


def _drift_angles(scfg, n_modes, *stream):
    """Per-mode drift angles (K, n_modes): every mode of interval i, and every
    row of it, turns by one angle drawn from seed [seed, 1, *stream, i];
    zeros with ``drift_phase`` off."""
    if not scfg.drift_phase:
        return np.zeros((scfg.interval_count, n_modes))
    phis = [np.random.default_rng([scfg.seed, 1, *stream, i]).uniform(0.0, TWO_PI)
            for i in range(scfg.interval_count)]
    return np.repeat(np.array(phis)[:, None], n_modes, axis=1)


# ---------------------------------------------------------------------------
# twomode pipeline


def _run_twomode(scfg, out_dir):
    sec = scfg.section
    pair = sec["pair"]
    modes = scfg.system.modes
    n = len(modes)
    _, couplings = _couplings_for(scfg)
    if (min(pair), max(pair)) not in couplings:
        raise ConfigError(
            f"config field 'twomode.pair': no pump couples modes "
            f"{pair[0]} and {pair[1]}; check the pump frequencies")
    amp = scfg.amplifier.amplifier(n)

    blocks = 4  # chopped blocks per interval, 2 pump-on and 2 pump-off
    detunings = np.linspace(sec["detuning_start_hz"], sec["detuning_stop_hz"],
                            sec["detuning_count"])

    # one stacked network per pump state, one row per detuning
    deltas = TWO_PI * np.asarray(detunings, dtype=float)
    probes = np.tile(dressed_frequencies(modes, couplings), (len(detunings), 1))
    probes[:, pair[0]] += deltas
    probes[:, pair[1]] -= deltas
    v_on, v_off = (amplify(_output_state(scfg, c, probes), amp) for c in (couplings, {}))

    rows_per_state = scfg.n_samples * (blocks // 2)  # per interval
    # one covariance per detuning and interval, turned by the interval's drift
    turns = np.array([_drift_angles(scfg, n, d_idx) for d_idx in range(len(detunings))])
    on, off = (CovarianceMatrix(n, v.v[:, None]).rotate(turns) for v in (v_on, v_off))
    # each detuning pools its intervals' rows, one seed per detuning and state
    v_hat = [sample_covariance_stack(v, rows_per_state,
                                     [[scfg.seed, 2, d_idx, state]
                                      for d_idx in range(len(detunings))])
             for state, v in enumerate((on, off))]
    ratios = dict(zip(("r_e", "r_p", "r_e_model", "r_p_model"),
                      (*squeezing_stats(*v_hat, pair), *squeezing_stats(v_on, v_off, pair))))
    files = [_write_csv(out_dir, "squeezing_vs_detuning.csv", ("detuning_hz", *ratios),
                        [(detunings, *ratios.values())])]

    def histogram_columns(hists):
        # one block per axis pair, so only one pair's rows are built at a time;
        # expected counts to 1e-6 row, far inside a bin's Poisson spread: their
        # full 17-digit reprs doubled the time this file takes to write
        for axes, h in sorted(hists.items()):
            h_on, h_off = h.counts.reshape(2, -1)
            r, c = np.indices(h.counts.shape[1:]).reshape(2, -1)
            yield ([axes] * r.size, r, c, h.edges[r], h.edges[c],
                   h_on, h_off, h_on - h_off, *np.round(h.expected, 6).reshape(2, -1))

    for d_idx in sec["histogram_detunings"]:
        hists = histogram2d_subtracted(*(CovarianceMatrix(n, v.v[d_idx]) for v in (on, off)),
                                       pair, rows_per_state, [scfg.seed, 3, d_idx],
                                       bin_width=sec["histogram_bin"],
                                       span=sec["histogram_span"])
        files.append(_write_csv(
            out_dir, f"histograms_d{d_idx:02d}.csv",
            ["axes", "row", "col", "x_low", "y_low", "count_on", "count_off",
             "difference", "count_on_model", "count_off_model"],
            histogram_columns(hists)))

    mid = len(detunings) // 2
    files += [_write_covariance(out_dir, name, CovarianceMatrix(n, v.v[mid]))
              for name, v in (("covariance_on_model.csv", v_on),
                              ("covariance_off_model.csv", v_off))]

    r_p = ratios["r_p"]
    best = int(np.argmin(r_p))
    metrics = {
        "detunings_hz": [float(d) for d in detunings],
        **ratios,
        "r_p_best": r_p[best],
        "r_p_best_detuning_hz": float(detunings[best]),
        "samples_per_block": scfg.n_samples,
        "blocks_per_interval": blocks,
        "interval_count": scfg.interval_count,
    }
    return metrics, files


# ---------------------------------------------------------------------------
# multimode pipeline


def _interval_covariances(scfg, v_model):
    """Seeded sample covariance of every interval, drift phase applied.

    Interval i draws from seed [seed, 0, i] and, with ``drift_phase`` on,
    turns every mode by one angle drawn from seed [seed, 1, i].
    """
    v_hat = sample_covariance_stack(v_model, scfg.n_samples,
                                    [[scfg.seed, 0, i] for i in range(scfg.interval_count)])
    return v_hat.rotate(_drift_angles(scfg, v_model.n_modes))


def _run_multimode(scfg, out_dir):
    idx = scfg.probe_indices
    n_sub = len(idx)
    _, couplings = _couplings_for(scfg)
    if not couplings:
        raise ConfigError("config field 'pumps': no pump matches any mode "
                          "pair; the multimode pipeline needs a coupled comb")
    v_out_full = _output_state(scfg, couplings)
    v_out = v_out_full.submatrix(idx)
    amp = scfg.amplifier.amplifier(n_sub)
    v_model = amplify(v_out, amp)

    # the seeded draws define the intervals; from here on all of them are
    # one (K, 2N, 2N) stack
    v_hat = _interval_covariances(scfg, v_model)
    sigma = propagate_errors(v_hat, amp,
                             sem=covariance_sem(v_hat, scfg.n_samples))
    # interval objectives only feed averages, so a loose bracket width
    # keeps the per-interval cost low
    rec = reconstruct_intervals(deamplify(v_hat, amp), sigma=sigma,
                                t_width=1e-3, max_iter=30000)
    reports = all_bipartition_reports(rec.v)

    v_rec_mean = CovarianceMatrix(n_sub, np.mean(rec.v.v, axis=0))
    v_hat_mean = CovarianceMatrix(n_sub, np.mean(v_hat.v, axis=0))
    # one sigma per interval and bipartition, shape (K, B)
    h, g = (np.stack([getattr(rep, x) for rep in reports], axis=1) for x in "hg")
    sigmas = entanglement_sigma(sigma[:, None], h, g, reports[0].angles[:, None])

    table = {"n_intervals": scfg.interval_count, "bipartitions": []}
    sig_w, ppt_lambda = {}, {}
    for rep, sig in zip(reports, sigmas.T):
        label = rep.bipartition.label
        ppt_lambda[label] = ppt_min_eigenvalue(v_rec_mean, rep.bipartition)
        sig_w[label] = significance(rep.value, sig)
        table["bipartitions"].append({
            "label": label,
            "svl_mean": float(np.mean(rep.value)),
            "weighted_significance": sig_w[label],
            "ppt_lambda_mean_state": ppt_lambda[label],
            "values": rep.value,
            "sigmas": sig,
        })

    flags = [sorted(set(rec_flags).union(*(rep.flags[i] for rep in reports)))
             for i, rec_flags in enumerate(rec.flags)]
    table["intervals"] = [{"interval": i, "iq_residual": reports[0].iq_residual[i],
                           "reconstruction_objective": rec.objective[i],
                           "reconstruction_t_lower": rec.t_lower[i], "flags": fl}
                          for i, fl in enumerate(flags)]
    flag_counts = Counter(flag for fl in flags for flag in fl)

    _write_json(os.path.join(out_dir, "entanglement_table.json"), table)
    files = ["entanglement_table.json"] + [
        _write_covariance(out_dir, name, v)
        for name, v in (("covariance_output_model.csv", v_out),
                        ("covariance_measured_model.csv", v_model),
                        ("covariance_measured_mean.csv", v_hat_mean),
                        ("covariance_reconstructed_mean.csv", v_rec_mean))]

    metrics = {
        "mode_indices": list(idx),
        "weighted_significance": sig_w,
        "max_weighted_significance": max(sig_w.values()),
        "ppt_lambda_mean_state": ppt_lambda,
        "reconstruction_objective_mean": float(np.mean(rec.objective)),
        "reconstruction_objective_max": float(np.max(rec.objective)),
        "reconstruction_gap_max": float(np.max(rec.objective - rec.t_lower)),
        "intervals_converged": int(np.sum(rec.converged)),
        "intervals_flagged": sum(bool(fl) for fl in flags),
        "flag_counts": dict(flag_counts),
        "interval_count": scfg.interval_count,
        "n_samples": scfg.n_samples,
    }
    return metrics, files


# ---------------------------------------------------------------------------
# calibration pipeline


def _load_data_csv(subsection, path):
    """Rows of a measured-data CSV after its header line; a bad file exits 2."""
    where = f"config field 'calibration.{subsection}.data_csv'"
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{where}: cannot load {path!r}: {exc}") from exc
    if data.shape[1] < 2:
        raise ConfigError(f"{where}: file {path!r} needs two columns")
    if not np.all(np.isfinite(data)):
        raise ConfigError(f"{where}: file {path!r} contains non-finite values")
    return data


def _run_calibration(scfg, out_dir):
    sec = scfg.section
    modes = scfg.system.modes
    # every subsection is loaded and fitted before the first file is written,
    # so a bad input leaves no artifact behind
    tables = []
    metrics = {}
    planck_fit = None
    corr_fit = None

    if sec["planck"] is not None:
        p = sec["planck"]
        freq = p["freq_hz"]
        bandwidth = p["bandwidth_hz"]
        if p["data_csv"] is not None:
            data = _load_data_csv("planck", p["data_csv"])
            temps, powers = data[:, 0], data[:, 1]
            sigma = None
        else:
            if p["temp_spacing"] == "geometric":
                temps = np.geomspace(p["temp_start_k"], p["temp_stop_k"],
                                     p["temp_count"])
            else:
                temps = np.linspace(p["temp_start_k"], p["temp_stop_k"],
                                    p["temp_count"])
            gain = 10.0 ** (p["gain_db"] / 10.0)
            powers = cal.planck_power(temps, gain, p["added_photons"], freq,
                                      bandwidth=bandwidth)
            sigma = None
            if p["noise_rel"] > 0:
                rng = np.random.default_rng([scfg.seed, 0])
                powers = powers * (1.0 + p["noise_rel"] *
                                   rng.standard_normal(temps.size))
                sigma = p["noise_rel"] * np.abs(powers)
        planck_fit = cal.planck_fit(temps, powers, freq, bandwidth=bandwidth,
                                    sigma=sigma, absolute_sigma=sigma is not None)
        model = cal.planck_power(temps, planck_fit.gain,
                                 planck_fit.added_photons, freq,
                                 bandwidth=bandwidth)
        tables.append(("planck_fit.csv", ["temp_k", "power", "power_model"],
                       [(temps, powers, model)]))
        metrics["planck"] = {
            "gain": planck_fit.gain,
            "gain_db": 10.0 * math.log10(planck_fit.gain),
            "added_photons": planck_fit.added_photons,
            "sigma_gain": planck_fit.sigma_gain,
            "sigma_noise": planck_fit.sigma_noise,
            "residual_rms": float(np.sqrt(np.mean(planck_fit.residuals ** 2))),
        }

    if sec["correlation"] is not None:
        c = sec["correlation"]
        pair_modes = [modes[c["pair"][0]], modes[c["pair"][1]]]
        gain = 10.0 ** (c["gain_db"] / 10.0)
        eps = TWO_PI * c["eps_hz"]
        if c["data_csv"] is not None:
            data = _load_data_csv("correlation", c["data_csv"])
            deltas, c_meas = TWO_PI * data[:, 0], data[:, 1]
        else:
            deltas = TWO_PI * np.linspace(-c["span_hz"] / 2.0,
                                          c["span_hz"] / 2.0, c["count"])
            c_meas = cal.c_lineshape(deltas, gain, eps, pair_modes,
                                     scfg.temperature)
            if c["noise_rel"] > 0:
                rng = np.random.default_rng([scfg.seed, 1])
                c_meas = c_meas * (1.0 + c["noise_rel"] *
                                   rng.standard_normal(deltas.size))
        corr_fit = cal.fit_gain_from_correlations(
            deltas, c_meas, pair_modes, scfg.temperature, p0=(gain, eps))
        model = cal.c_lineshape(deltas, corr_fit.gain, corr_fit.eps,
                                pair_modes, scfg.temperature)
        tables.append(("correlation_fit.csv", ["detuning_hz", "c", "c_model"],
                       [(deltas / TWO_PI, c_meas, model)]))
        metrics["correlation"] = {
            "gain": corr_fit.gain,
            "gain_db": 10.0 * math.log10(corr_fit.gain),
            "eps_hz": corr_fit.eps / TWO_PI,
            "sigma_gain": corr_fit.sigma_gain,
            "sigma_eps_hz": corr_fit.sigma_eps / TWO_PI,
            "residual_rms": float(np.sqrt(np.mean(corr_fit.residuals ** 2))),
        }

    files = [_write_csv(out_dir, *table) for table in tables]
    meta = {"source": "fit"}
    if planck_fit is not None:
        store = cal.CalibrationStore(
            gain=planck_fit.gain,
            added_photons=planck_fit.added_photons,
            sigma_gain=planck_fit.sigma_gain,
            sigma_noise=planck_fit.sigma_noise,
            cov_gain_noise=planck_fit.cov_gain_noise,
            eps=None if corr_fit is None else corr_fit.eps,
            sigma_eps=None if corr_fit is None else corr_fit.sigma_eps,
            meta=meta,
        )
    else:
        meta["added_photons"] = "not fitted; correlation lineshape only"
        store = cal.CalibrationStore(
            gain=corr_fit.gain,
            added_photons=0.0,
            sigma_gain=corr_fit.sigma_gain,
            eps=corr_fit.eps,
            sigma_eps=corr_fit.sigma_eps,
            meta=meta,
        )
    _write_json(os.path.join(out_dir, "calibration.json"), asdict(store))
    files.append("calibration.json")
    metrics["calibration_file"] = "calibration.json"
    return metrics, files


# ---------------------------------------------------------------------------
# scattering pipeline


def _run_scattering(scfg, out_dir):
    sec = scfg.section
    modes = scfg.system.modes
    n = len(modes)
    pump_freqs = np.array([p.omega_p for p in scfg.pumps]) / TWO_PI
    center = float(np.mean(pump_freqs))
    offsets = pump_freqs - center
    nominal = float(np.mean(np.diff(np.sort(pump_freqs))))
    if nominal <= 0:
        raise ConfigError("config field 'pumps': pump frequencies must be "
                          "distinct for a spacing sweep")

    start = sec["spacing_start_hz"]
    stop = sec["spacing_stop_hz"]
    if start is None:
        start, stop = nominal - 60.0e3, nominal + 60.0e3
    spacings = np.linspace(start, stop, sec["spacing_count"])

    def comb_at(spacing):
        scale = spacing / nominal
        return [
            PumpTone(TWO_PI * (center + off * scale), phi_ac=p.phi_ac,
                     theta=p.theta)
            for off, p in zip(offsets, scfg.pumps)
        ]

    def one_spacing(s_idx):
        pumps = comb_at(spacings[s_idx])
        matches, couplings = _couplings_for(scfg, pumps=pumps)
        probes, _ = assign_probe_frequencies(modes, matches, couplings)
        return len(matches), _network(scfg, couplings, probe_omegas=probes)

    results = [one_spacing(s_idx) for s_idx in range(len(spacings))]
    nominal_idx = int(np.argmin(np.abs(spacings - nominal)))
    ladder = results[nominal_idx][1]
    reference = (sec["ref_out"], sec["ref_in"])
    ref_abs = abs(ladder.s[reference])
    if ref_abs == 0.0:
        raise ConfigError(
            f"config field 'scattering.ref_out', 'scattering.ref_in': S{reference} "
            f"is zero at the nominal spacing and cannot be the dB reference")

    labels = [f"b{j}" for j in range(n)] + [f"bdag{j}" for j in range(n)]
    out, into = (g.ravel().tolist() for g in np.meshgrid(labels, labels, indexing="ij"))
    s_all = np.stack([net.s for _, net in results])
    n_matches = [m for m, _ in results]
    files = [_write_csv(
        out_dir, "scattering_sweep.csv",
        ["spacing_hz", "n_matches", "out", "in", "mag_db", "phase_rad"],
        [(np.repeat(spacings, len(out)), np.repeat(n_matches, len(out)),
          out * len(results), into * len(results),
          magnitude_db(s_all).ravel(), np.angle(s_all).ravel())])]
    # |S| in dB against the reference element, which every row names
    files.append(_write_csv(
        out_dir, "scattering_matched.csv",
        ["out", "in", "mag_db", "phase_rad", "ref_out", "ref_in", "ref_abs"],
        [(out, into, magnitude_db(ladder.s, ref_abs).ravel(), np.angle(ladder.s).ravel(),
          [labels[reference[0]]] * len(out), [labels[reference[1]]] * len(out),
          np.full(len(out), ref_abs))]))

    gains_db = magnitude_db(np.abs(np.diagonal(s_all, axis1=1, axis2=2)).max(axis=1))
    metrics = {
        "nominal_spacing_hz": nominal,
        "spacings_hz": [float(s) for s in spacings],
        "n_matches": n_matches,
        "max_reflection_gain_db": gains_db.tolist(),
        "n_matches_nominal": n_matches[nominal_idx],
        "peak_gain_db": float(np.max(gains_db)),
    }
    return metrics, files


# ---------------------------------------------------------------------------
# Entry points


_RUNNERS = {
    "twomode": _run_twomode,
    "multimode": _run_multimode,
    "calibration": _run_calibration,
    "scattering": _run_scattering,
}


def run_scenario(config_path):
    """Execute the scenario described by a config file.

    Returns the RunReport on success; raises ConfigError for description
    problems and NumericalError when a fit or solve fails.
    """
    doc, digest = load_config(config_path)
    scfg = validate_config(doc, config_path=str(config_path), digest=digest)
    created = not os.path.isdir(scfg.output_dir)
    os.makedirs(scfg.output_dir, exist_ok=True)
    try:
        metrics, files = _RUNNERS[scfg.pipeline](scfg, scfg.output_dir)
    except Exception:
        # a run that fails leaves behind no empty directory of its own making
        if created and not os.listdir(scfg.output_dir):
            os.rmdir(scfg.output_dir)
        raise
    metrics = _jsonify(metrics, "metrics")
    report = RunReport(
        pipeline=scfg.pipeline,
        config_digest=digest,
        output_dir=scfg.output_dir,
        files=sorted(files) + ["report.json"],
        metrics=metrics,
    )
    _write_json(os.path.join(scfg.output_dir, "report.json"), report.to_dict())
    for name in report.files:
        if not os.path.isfile(os.path.join(scfg.output_dir, name)):
            raise NumericalError(f"pipeline did not produce {name}")
    return report


# ---------------------------------------------------------------------------
# Ready-made demo scenarios


_DEMO_CONFIGS = {
    "twomode": """\
# Two-mode squeezing sweep: one pump at the pair's sum-frequency midpoint,
# probe detuned symmetrically, chopped on/off sampling.
pipeline: twomode
output_dir: out-twomode
seed: 11

system:
  mirror:
    freq_lc_hz: 8.0e9
    coupling_vac_hz: 1.588e6
  modes:
    - {index: 0, freq_hz: 3.8245e9, loss_ext_hz: 36.0e3, loss_int_hz: 4.0e3}
    - {index: 1, freq_hz: 3.8375e9, loss_ext_hz: 36.0e3, loss_int_hz: 4.0e3}

# One pump centered between the two modes; epsilon_hz pins the coupling
# strength directly instead of deriving it from the flux drive.
pumps:
  - {freq_hz: 3.8310e9, epsilon_hz: 15.0e3, theta_rad: 0.0}

environment:
  temp_k: 0.007

# Quiet preamplifier-backed chain: low added noise makes the squeezing
# dip visible in the single-mode-referenced ratio.
amplifier:
  gain_db: 40.0
  added_photons: 0.15
  sigma_gain_rel: 0.01
  sigma_noise_photons: 0.02

sampling:
  n_samples: 20000        # per chopped block
  interval_count: 10
  drift_phase: false

twomode:
  pair: [0, 1]
  detuning_start_hz: -40.0e3
  detuning_stop_hz: 40.0e3
  detuning_count: 9
  histogram_detunings: [4]   # indices into the detuning sweep
  histogram_bin: 0.25
  histogram_span: 6.0
""",
    "multimode": """\
# Four-mode comb driven by four pumps, each matched to one mode pair.
# Every interval is sampled, de-embedded, reconstructed to the closest
# physical covariance and tested against all seven bipartitions.
pipeline: multimode
output_dir: out-multimode
seed: 7

system:
  mirror:
    freq_lc_hz: 8.0e9
    coupling_vac_hz: 1.588e6
  modes:
    - {index: 0, freq_hz: 3.8245e9, loss_ext_hz: 20.0e3, loss_int_hz: 20.0e3}
    - {index: 1, freq_hz: 3.8375e9, loss_ext_hz: 20.0e3, loss_int_hz: 20.0e3}
    - {index: 2, freq_hz: 3.8506e9, loss_ext_hz: 20.0e3, loss_int_hz: 20.0e3}
    - {index: 3, freq_hz: 3.8638e9, loss_ext_hz: 20.0e3, loss_int_hz: 20.0e3}

# Slightly uneven mode spacing separates the pair resonances, so each of
# the four pumps addresses exactly one pair: (0,1), (1,2), (2,3), (0,3).
pumps:
  - {freq_hz: 3.83100e9, epsilon_hz: 30.0e3}
  - {freq_hz: 3.84405e9, epsilon_hz: 30.0e3}
  - {freq_hz: 3.85720e9, epsilon_hz: 30.0e3}
  - {freq_hz: 3.84415e9, epsilon_hz: 30.0e3}

coupling:
  allow_unstable: true   # |eps| exceeds the pairwise threshold here

environment:
  temp_k: 0.007

# Measurement chain: phase-insensitive amplification with calibrated
# uncertainties (sigma_gain_rel is the relative gain error).
amplifier:
  gain_db: 80.0
  added_photons: 12.0
  sigma_gain_rel: 0.01
  sigma_noise_photons: 0.1

sampling:
  n_samples: 100000
  interval_count: 75
  drift_phase: false

multimode: {}
""",
    "calibration": """\
# Amplification-chain calibration on synthetic data: thermal-sweep power
# fit plus a two-mode correlation lineshape fit; results are persisted to
# calibration.json for the sampling pipelines.
pipeline: calibration
output_dir: out-calibration
seed: 3

system:
  mirror:
    freq_lc_hz: 8.0e9
    coupling_vac_hz: 1.588e6
  modes:
    - {index: 0, freq_hz: 3.8245e9, loss_ext_hz: 20.0e3, loss_int_hz: 20.0e3}
    - {index: 1, freq_hz: 3.8375e9, loss_ext_hz: 20.0e3, loss_int_hz: 20.0e3}

environment:
  temp_k: 0.007

calibration:
  planck:
    gain_db: 80.0          # ground truth for the synthetic sweep
    added_photons: 0.08
    freq_hz: 3.8245e9
    temp_start_k: 0.01
    temp_stop_k: 4.0
    temp_count: 20
    temp_spacing: geometric
    noise_rel: 0.01
  correlation:
    gain_db: 80.0
    eps_hz: 6.0e3
    pair: [0, 1]
    span_hz: 120.0e3
    count: 41
    noise_rel: 0.0
""",
    "scattering": """\
# Scattering response against pump comb spacing: the comb is rescaled
# about its center and the full |S| table recorded at each spacing.
pipeline: scattering
output_dir: out-scattering
seed: 1

system:
  mirror:
    freq_lc_hz: 8.0e9
    coupling_vac_hz: 1.588e6
  modes:
    - {index: 0, freq_hz: 3.8245e9, loss_ext_hz: 20.0e3, loss_int_hz: 20.0e3}
    - {index: 1, freq_hz: 3.8375e9, loss_ext_hz: 20.0e3, loss_int_hz: 20.0e3}
    - {index: 2, freq_hz: 3.8505e9, loss_ext_hz: 20.0e3, loss_int_hz: 20.0e3}
    - {index: 3, freq_hz: 3.8635e9, loss_ext_hz: 20.0e3, loss_int_hz: 20.0e3}

pumps:
  - {freq_hz: 3.8310e9, epsilon_hz: 10.0e3}
  - {freq_hz: 3.8440e9, epsilon_hz: 10.0e3}
  - {freq_hz: 3.8570e9, epsilon_hz: 10.0e3}

scattering:
  spacing_start_hz: 12.94e6
  spacing_stop_hz: 13.06e6
  spacing_count: 25
  ref_out: 0
  ref_in: 0
""",
}


def write_demo_config(pipeline, directory="."):
    """Write the ready-made config for a pipeline; returns its path."""
    if pipeline not in _DEMO_CONFIGS:
        raise ConfigError(f"no demo scenario for pipeline {pipeline!r}; "
                          f"choose from {sorted(_DEMO_CONFIGS)}")
    path = os.path.join(directory, f"demo-{pipeline}.cfg")
    try:
        with open(path, "w") as fh:
            fh.write(_DEMO_CONFIGS[pipeline])
    except OSError as exc:
        raise ConfigError(f"cannot write config file {path!r}: {exc}") from exc
    return path


# ---------------------------------------------------------------------------
# Command line interface


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="modecomb",
        description="Pump-comb network simulation and entanglement analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario config")
    p_run.add_argument("config", help="path to the scenario YAML file")

    p_val = sub.add_parser("validate", help="check a config without running it")
    p_val.add_argument("config", help="path to the scenario YAML file")

    p_demo = sub.add_parser("demo", help="write a ready-made scenario config")
    p_demo.add_argument("pipeline", choices=sorted(_DEMO_CONFIGS),
                        help="which pipeline to demonstrate")
    p_demo.add_argument("--dir", default=".",
                        help="directory for the config file (default: .)")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            report = run_scenario(args.config)
            print(f"{report.pipeline}: wrote {len(report.files)} files "
                  f"to {report.output_dir}")
            return 0
        if args.command == "validate":
            doc, digest = load_config(args.config)
            scfg = validate_config(doc, config_path=args.config, digest=digest)
            print(f"ok: pipeline={scfg.pipeline} modes={len(scfg.system.modes)} "
                  f"pumps={len(scfg.pumps)} output_dir={scfg.output_dir}")
            return 0
        path = write_demo_config(args.pipeline, args.dir)
        print(f"wrote {path}")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except ModecombError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
