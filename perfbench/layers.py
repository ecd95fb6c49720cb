"""Which modecomb functions the traced run times, and the per-layer metrics.

``TARGETS`` names every timed callable with its layer.  ``METRICS`` turns
the spans of the traced ops into per-op numbers and records, for each
one, the end-to-end metric it should move and on which workload, plus
the workloads where the prediction is no change.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np
from modecomb.entanglement import IQ_RESIDUAL_LIMIT

from tracer import Target, self_times

MM, TM, TS, SD = "multimode-demo", "twomode-demo", "temp-sweep", "short-demos"
OP_TIME = ("op_s_p50", "units_per_s")


def _decorrelated(args, kwargs, result):
    return {"flagged": int(result[2] > IQ_RESIDUAL_LIMIT)}


def _reconstructed(args, kwargs, result):
    return {"unconverged": int(not result.converged),
            "fastpath": int(result.objective == 0.0)}


def _sampled(args, kwargs, result):
    return {"rows": result.n_samples}


def _lineshape(args, kwargs, result):
    return {"points": int(np.size(result))}


_ENT, _GS = "modecomb.entanglement", "modecomb.gaussian_state"
_CG, _CAL = "modecomb.coupling_graph", "modecomb.calibration"

TARGETS = (
    Target("entanglement.decorrelate", _ENT, "decorrelate_iq", _decorrelated),
    Target("entanglement.witness", _ENT, "svl_test"),
    Target("entanglement.witness", _ENT, "ppt_min_eigenvalue"),
    Target("entanglement.errors", _ENT, "propagate_errors"),
    Target("entanglement.errors", _ENT, "entanglement_sigma"),
    Target("entanglement.errors", _ENT, "significance"),
    Target("reconstruct", "modecomb.reconstruct", "reconstruct_physical", _reconstructed),
    Target("gaussian_state.sample", _GS, "sample", _sampled),
    Target("gaussian_state.cov_sem", _GS, "QuadratureSamples.covariance"),
    Target("gaussian_state.cov_sem", _GS, "QuadratureSamples.covariance_with_sem"),
    # the pipelines rotate samples only for drift compensation
    Target("gaussian_state.squeezing", _GS, "QuadratureSamples.rotate"),
    Target("gaussian_state.squeezing", _GS, "squeezing_stats"),
    Target("gaussian_state.squeezing", _GS, "histogram2d_subtracted"),
    Target("gaussian_state.squeezing", _GS, "drift_compensation_angle"),
    Target("gaussian_state.output_cov", _GS, "output_covariance"),
    Target("scattering", "modecomb.scattering", "scattering_matrices"),
    Target("scattering", "modecomb.scattering", "ScatteringPair.to_quadrature"),
    Target("coupling_graph", _CG, "match_four_wave"),
    Target("coupling_graph", _CG, "pair_couplings"),
    Target("coupling_graph", _CG, "mode_frequency_shifts"),
    Target("coupling_graph", _CG, "build_coupling_matrix"),
    Target("coupling_graph", _CG, "assign_probe_frequencies"),
    Target("calibration.lineshape", _CAL, "c_lineshape", _lineshape),
    Target("calibration.fit", _CAL, "fit_gain_from_correlations"),
    Target("calibration.fit", _CAL, "planck_fit"),
    Target("calibration.sweep", _CAL, "ppt_temperature_sweep"),
    Target("cli.config", "modecomb.cli", "load_config"),
    Target("cli.config", "modecomb.cli", "validate_config"),
    Target("cli.run", "modecomb.cli", "run_scenario"),
)


class Summary:
    """Per-op totals over the spans of ``n_ops`` traced ops."""

    def __init__(self, spans, n_ops, artifact_bytes=0.0, cpu_s=0.0, overhead=0.0):
        self.spans = spans
        self.n_ops = n_ops
        self.self_s = self_times(spans)
        self.extra = {"cli.artifact_bytes": artifact_bytes, "run.cpu_s": cpu_s,
                      "trace.overhead_frac": overhead}

    def named(self, names):
        return [s for s in self.spans if s.name in names]

    def calls(self, *names):
        return len(self.named(names)) / self.n_ops

    def attr(self, key, *names):
        return sum(s.attrs.get(key, 0) for s in self.named(names)) / self.n_ops

    def frac(self, key, *names):
        spans = self.named(names)
        return sum(s.attrs.get(key, 0) for s in spans) / len(spans) if spans else 0.0

    def layer_self_s(self, layer):
        return sum(self.self_s[s.id] for s in self.spans if s.layer == layer) / self.n_ops

    def nested_calls(self, name, under):
        """Calls of ``name`` that have a span named ``under`` among their ancestors."""
        by_id = {s.id: s for s in self.spans}

        def inside(s):
            while s.parent is not None and s.parent in by_id:
                s = by_id[s.parent]
                if s.name == under:
                    return True
            return False

        return sum(inside(s) for s in self.named({name}))

    def shares(self):
        """Each layer's share of all self time, the base being the sum."""
        totals = Counter()
        for s in self.spans:
            totals[s.layer] += self.self_s[s.id]
        base = sum(totals.values())
        return {layer: t / base for layer, t in sorted(totals.items())} if base else {}


@dataclass(frozen=True)
class LayerMetric:
    """A per-layer metric and the end-to-end numbers it should move."""

    name: str
    unit: str
    better: str
    value: object
    moves: dict
    no_change: tuple = ()


def _per_fit(s):
    fits = len(s.named({"fit_gain_from_correlations"}))
    return s.nested_calls("c_lineshape", "fit_gain_from_correlations") / fits if fits else 0.0


_IQ = {MM: OP_TIME}
_SOLVE = {TS: OP_TIME, TM: OP_TIME, SD: OP_TIME}
_CALIB = {TS: ("op_s_p50",), SD: ("op_s_p50",)}
_CLI = {SD: OP_TIME + ("setup_s",), MM: ("setup_s",), TM: ("setup_s",)}
_DIAG = {}

METRICS = (
    LayerMetric("entanglement.decorrelate.calls", "count/op", "lower",
                lambda s: s.calls("decorrelate_iq"), _IQ, (TM, TS, SD)),
    LayerMetric("entanglement.decorrelate.self_s", "s/op", "lower",
                lambda s: s.layer_self_s("entanglement.decorrelate"), _IQ, (TM, TS, SD)),
    LayerMetric("entanglement.witness.calls", "count/op", "lower",
                lambda s: s.calls("svl_test", "ppt_min_eigenvalue"), _IQ, (TM, SD)),
    LayerMetric("entanglement.witness.self_s", "s/op", "lower",
                lambda s: s.layer_self_s("entanglement.witness"), _IQ, (TM, SD)),
    LayerMetric("entanglement.errors.self_s", "s/op", "lower",
                lambda s: s.layer_self_s("entanglement.errors"), _IQ, (TM, TS, SD)),
    LayerMetric("entanglement.iq_flagged_frac", "frac", "lower",
                lambda s: s.frac("flagged", "decorrelate_iq"), _IQ, (TM, TS, SD)),
    LayerMetric("reconstruct.calls", "count/op", "lower",
                lambda s: s.calls("reconstruct_physical"), _IQ, (TM, TS, SD)),
    LayerMetric("reconstruct.self_s", "s/op", "lower",
                lambda s: s.layer_self_s("reconstruct"), _IQ, (TM, TS, SD)),
    LayerMetric("reconstruct.unconverged", "count/op", "lower",
                lambda s: s.attr("unconverged", "reconstruct_physical"), _IQ, (TM, TS, SD)),
    LayerMetric("reconstruct.fastpath_frac", "frac", "higher",
                lambda s: s.frac("fastpath", "reconstruct_physical"), _IQ, (TM, TS, SD)),
    LayerMetric("gaussian_state.sample.calls", "count/op", "lower",
                lambda s: s.calls("sample"), {TM: OP_TIME, MM: OP_TIME}, (TS, SD)),
    LayerMetric("gaussian_state.sample.rows", "rows/op", "lower",
                lambda s: s.attr("rows", "sample"), {TM: OP_TIME, MM: OP_TIME}, (TS, SD)),
    LayerMetric("gaussian_state.sample.self_s", "s/op", "lower",
                lambda s: s.layer_self_s("gaussian_state.sample"),
                {TM: OP_TIME, MM: OP_TIME}, (TS, SD)),
    LayerMetric("gaussian_state.cov_sem.self_s", "s/op", "lower",
                lambda s: s.layer_self_s("gaussian_state.cov_sem"),
                {TM: OP_TIME, MM: OP_TIME}, (TS, SD)),
    LayerMetric("gaussian_state.squeezing.self_s", "s/op", "lower",
                lambda s: s.layer_self_s("gaussian_state.squeezing"),
                {TM: OP_TIME}, (MM, TS, SD)),
    LayerMetric("gaussian_state.output_cov.calls", "count/op", "lower",
                lambda s: s.calls("output_covariance"), _SOLVE, (MM,)),
    LayerMetric("gaussian_state.output_cov.self_s", "s/op", "lower",
                lambda s: s.layer_self_s("gaussian_state.output_cov"), _SOLVE, (MM,)),
    LayerMetric("scattering.solves", "count/op", "lower",
                lambda s: s.calls("scattering_matrices"), _SOLVE, (MM,)),
    LayerMetric("scattering.self_s", "s/op", "lower",
                lambda s: s.layer_self_s("scattering"), _SOLVE, (MM,)),
    LayerMetric("coupling_graph.calls", "count/op", "lower",
                lambda s: s.calls(*(t.attr for t in TARGETS if t.layer == "coupling_graph")),
                _SOLVE, (MM,)),
    LayerMetric("coupling_graph.self_s", "s/op", "lower",
                lambda s: s.layer_self_s("coupling_graph"), _SOLVE, (MM,)),
    LayerMetric("calibration.lineshape.calls", "count/op", "lower",
                lambda s: s.calls("c_lineshape"), _CALIB, (MM, TM)),
    LayerMetric("calibration.lineshape.points", "points/op", "lower",
                lambda s: s.attr("points", "c_lineshape"), _CALIB, (MM, TM)),
    LayerMetric("calibration.lineshape.self_s", "s/op", "lower",
                lambda s: s.layer_self_s("calibration.lineshape"), _CALIB, (MM, TM)),
    LayerMetric("calibration.fit.calls", "count/op", "lower",
                lambda s: s.calls("fit_gain_from_correlations", "planck_fit"), _CALIB, (MM, TM)),
    LayerMetric("calibration.fit.self_s", "s/op", "lower",
                lambda s: s.layer_self_s("calibration.fit"), _CALIB, (MM, TM)),
    LayerMetric("calibration.fit.correlation_calls", "count/op", "lower",
                lambda s: s.calls("fit_gain_from_correlations"), _CALIB, (MM, TM)),
    LayerMetric("calibration.fit.lineshape_calls_per_fit", "count/fit", "lower",
                _per_fit, _CALIB, (MM, TM)),
    LayerMetric("calibration.sweep.self_s", "s/op", "lower",
                lambda s: s.layer_self_s("calibration.sweep"), {TS: ("op_s_p50",)},
                (MM, TM, SD)),
    LayerMetric("cli.config.self_s", "s/op", "lower",
                lambda s: s.layer_self_s("cli.config"), _CLI, (TS,)),
    LayerMetric("cli.run.self_s", "s/op", "lower",
                lambda s: s.layer_self_s("cli.run"), _CLI, (TS,)),
    LayerMetric("cli.artifact_bytes", "bytes/op", "lower",
                lambda s: s.extra["cli.artifact_bytes"], _CLI, (TS,)),
    LayerMetric("run.cpu_s", "s/op", "lower",
                lambda s: s.extra["run.cpu_s"], _DIAG),
    LayerMetric("trace.overhead_frac", "frac", "lower",
                lambda s: s.extra["trace.overhead_frac"], _DIAG),
)


def layer_metrics(summary):
    """name -> {"value", "unit"} for every per-layer metric."""
    return {m.name: {"value": float(m.value(summary)), "unit": m.unit} for m in METRICS}


def prediction_map():
    """Layer metric -> end-to-end metrics it moves per workload, and no-change workloads."""
    return {m.name: {"moves": {w: list(e2e) for w, e2e in m.moves.items()},
                     "no_change": list(m.no_change)} for m in METRICS}
