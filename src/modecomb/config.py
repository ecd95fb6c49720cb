"""Scenario files: the key table, its reader and the resolved scenario.

``SCHEMA`` lists every key a scenario may carry.  A section maps each of
its keys to ``(type, default, bound)``:

* the type is ``float``, ``int``, ``bool`` or ``str``; ``dict`` for a
  section, whose bound is its own table; ``list`` for a list, whose bound
  is the table of every item, or ``None`` for a list of indices, which
  ``validate_config`` checks against the mode or sweep count;
* the default is the value of an absent key, or ``REQUIRED``;
* the bound is a minimum for numbers (``POSITIVE`` means > 0) and a tuple
  of choices for strings.

``_read`` checks a mapping against its table and refuses every key the
table does not list, in every section.  The rules that tie several fields
together follow as plain code in ``validate_config``.  Every check raises
ConfigError with the dotted path of the offending field, so a bad file is
diagnosable without reading tracebacks.
"""

from __future__ import annotations

import hashlib
import math
import os
import re
from dataclasses import dataclass
from typing import Optional

import yaml

from . import calibration as cal
from .errors import ConfigError, GainBelowUnityError
from .gaussian_state import histogram_bins
from .modesys import MirrorSpec, ModeSpec, ModeSystem, PumpTone

TWO_PI = 2.0 * math.pi
OUT_ROOT_ENV = "MODECOMB_OUT_ROOT"
PIPELINES = ("twomode", "multimode", "calibration", "scattering")
REQUIRED = object()
POSITIVE = object()

SCHEMA = {
    "pipeline": (str, REQUIRED, PIPELINES),
    "output_dir": (str, REQUIRED, None),
    "seed": (int, None, 0),
    "system": (dict, REQUIRED, {
        "mirror": (dict, REQUIRED, {
            "freq_lc_hz": (float, REQUIRED, POSITIVE),
            "coupling_vac_hz": (float, REQUIRED, POSITIVE),
        }),
        "modes": (list, REQUIRED, {
            "index": (int, None, 0),  # defaults to the position in the list
            "freq_hz": (float, REQUIRED, POSITIVE),
            "loss_ext_hz": (float, REQUIRED, 0.0),
            "loss_int_hz": (float, REQUIRED, 0.0),
        }),
    }),
    "pumps": (list, (), {
        "freq_hz": (float, REQUIRED, POSITIVE),
        "flux_phi0": (float, 0.0, 0.0),
        "theta_rad": (float, 0.0, None),
        "epsilon_hz": (float, None, POSITIVE),
    }),
    "coupling": (dict, {}, {
        "tolerance_hz": (float, None, POSITIVE),
        "allow_unstable": (bool, False, None),
    }),
    "environment": (dict, {}, {"temp_k": (float, 0.0, 0.0)}),
    "amplifier": (dict, None, {
        "calibration_json": (str, None, None),
        "gain_db": (float, None, None),  # required without calibration_json
        "added_photons": (float, None, 0.0),  # required without calibration_json
        "sigma_gain_rel": (float, 0.0, 0.0),
        "sigma_noise_photons": (float, 0.0, 0.0),
        "cov_gain_noise": (float, 0.0, None),
    }),
    "sampling": (dict, {}, {
        "n_samples": (int, 100000, 2),
        "interval_count": (int, 75, 1),
        "drift_phase": (bool, False, None),
    }),
    "probes": (dict, {}, {"mode_indices": (list, None, None)}),  # default: all modes
    "twomode": (dict, {}, {
        "pair": (list, (0, 1), None),
        "detuning_start_hz": (float, -40.0e3, None),
        "detuning_stop_hz": (float, 40.0e3, None),
        "detuning_count": (int, 9, 1),
        "histogram_bin": (float, 0.25, POSITIVE),
        "histogram_span": (float, 6.0, POSITIVE),
        "histogram_detunings": (list, None, None),  # default: the middle detuning
    }),
    "multimode": (dict, {}, {}),
    "calibration": (dict, {}, {
        "planck": (dict, None, {
            "data_csv": (str, None, None),
            "freq_hz": (float, REQUIRED, POSITIVE),
            "bandwidth_hz": (float, 1.0, POSITIVE),
            # the synthetic sweep, used without data_csv
            "gain_db": (float, None, None),
            "added_photons": (float, None, 0.0),
            "temp_start_k": (float, 0.01, POSITIVE),
            "temp_stop_k": (float, 4.0, POSITIVE),
            "temp_count": (int, 20, 3),
            "temp_spacing": (str, "geometric", ("geometric", "linear")),
            "noise_rel": (float, 0.01, 0.0),
        }),
        "correlation": (dict, None, {
            "data_csv": (str, None, None),
            "pair": (list, (0, 1), None),
            "gain_db": (float, REQUIRED, None),
            "eps_hz": (float, REQUIRED, POSITIVE),
            # the synthetic lineshape, used without data_csv
            "span_hz": (float, 120.0e3, POSITIVE),
            "count": (int, 41, 5),
            "noise_rel": (float, 0.0, 0.0),
        }),
    }),
    "scattering": (dict, {}, {
        "spacing_start_hz": (float, None, POSITIVE),
        "spacing_stop_hz": (float, None, POSITIVE),
        "spacing_count": (int, 25, 1),
        "ref_out": (int, 0, 0),
        "ref_in": (int, 0, 0),
    }),
}

# accepted Python types and their name in messages; bool is refused as a number
_TYPES = {float: ((int, float), "a number"), int: (int, "an integer"),
          bool: (bool, "true or false"), str: (str, "a string"),
          dict: (dict, "a mapping"), list: (list, "a list")}


class _ConfigLoader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """Safe loader (libyaml's if present) that also reads floats like 8.0e9 and 1e-3."""


_ConfigLoader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(
        r"""^(?:[-+]?(?:[0-9][0-9_]*)\.[0-9_]*(?:[eE][-+]?[0-9]+)?
         |[-+]?(?:[0-9][0-9_]*)(?:[eE][-+]?[0-9]+)
         |[-+]?\.[0-9_]+(?:[eE][-+]?[0-9]+)?
         |[-+]?\.(?:inf|Inf|INF)
         |\.(?:nan|NaN|NAN))$""",
        re.X,
    ),
    list("-+0123456789."),
)


def _fail(path, message):
    raise ConfigError(f"config field '{path}': {message}")


def _read(mapping, table, path):
    """Checked copy of ``mapping`` holding every key of ``table``."""
    unknown = [key for key in mapping if key not in table]
    if unknown:
        _fail(f"{path}.{unknown[0]}" if path else unknown[0],
              f"unknown key; expected one of {sorted(table)}")
    return {key: _value(mapping.get(key), f"{path}.{key}" if path else key, *field)
            for key, field in table.items()}


def _value(value, where, kind, default, bound):
    """``value`` checked against one table row; None takes the default."""
    if value is None:
        if default is REQUIRED:
            _fail(where, "value is required")
        if kind is not dict or default is None:
            return default
        value = default
    accepted, name = _TYPES[kind]
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted):
        _fail(where, f"expected {name}, got {value!r}")
    if kind is dict:
        return _read(value, bound, where)
    if kind is list:
        if bound is None:
            return value
        return [_value(item, f"{where}[{i}]", dict, REQUIRED, bound)
                for i, item in enumerate(value)]
    if kind is str and bound is not None and value not in bound:
        _fail(where, f"expected one of {sorted(bound)}, got {value!r}")
    if kind is float:
        value = float(value)
        if not math.isfinite(value):
            _fail(where, "value must be finite")
    if bound is POSITIVE:
        if value <= 0:
            _fail(where, f"value must be positive, got {value!r}")
    elif kind in (int, float) and bound is not None and value < bound:
        _fail(where, f"value must be >= {bound}, got {value!r}")
    return value


def _indices(values, where, count, what):
    """``values`` as integers in 0..count-1."""
    for i, v in enumerate(values):
        if isinstance(v, bool) or not isinstance(v, int):
            _fail(f"{where}[{i}]", f"expected an integer {what}, got {v!r}")
        if not 0 <= v < count:
            _fail(f"{where}[{i}]", f"{what} {v} outside 0..{count - 1}")
    return list(values)


def _modes(values, where, n_modes, length=None):
    """Distinct mode indices; ``length`` fixes how many."""
    if not values or (length is not None and len(values) != length):
        _fail(where, f"expected {length or 'one or more'} mode indices, got {values!r}")
    values = _indices(values, where, n_modes, "mode index")
    if len(set(values)) != len(values):
        _fail(where, "mode indices must differ")
    return tuple(values)


def _require(section, where, *keys):
    for key in keys:
        if section[key] is None:
            _fail(f"{where}.{key}", "value is required")


@dataclass
class ScenarioConfig:
    """Validated scenario with resolved physical objects."""

    pipeline: str
    output_dir: str
    seed: Optional[int]
    system: ModeSystem
    pumps: list
    pump_eps: Optional[list]
    tolerance: Optional[float]
    allow_unstable: bool
    temperature: float
    amplifier: Optional[cal.CalibrationStore]
    n_samples: int
    interval_count: int
    drift_phase: bool
    probe_indices: list
    section: dict
    config_path: str
    digest: str


def load_config(path):
    """Raw YAML document of a scenario file."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    try:
        doc = yaml.load(raw, Loader=_ConfigLoader)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file {path!r} is not valid YAML: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config file {path!r} must contain a mapping at top level")
    return doc, hashlib.sha256(raw).hexdigest()


def _amplifier(amp, raw):
    """Calibration store of the ``amplifier`` section, or None without one."""
    if amp is None:
        return None
    path = amp["calibration_json"]
    if path is not None:
        extra = sorted(set(raw) - {"calibration_json"})
        if extra:
            _fail("amplifier", f"calibration_json replaces inline values; "
                               f"remove {extra}")
        try:
            store = cal.CalibrationStore.from_json(path)
        except (OSError, ValueError, TypeError, KeyError) as exc:
            _fail("amplifier.calibration_json",
                  f"cannot load calibration from {path!r}: {exc}")
        # JSON allows NaN, Infinity and null where the chain needs numbers
        for name, value in vars(store).items():
            if name == "meta" or (value is None and name in ("eps", "sigma_eps")):
                continue
            if (isinstance(value, bool) or not isinstance(value, (int, float))
                    or not math.isfinite(value)):
                _fail("amplifier.calibration_json",
                      f"{name} in {path!r} must be a finite number, got {value!r}")
    else:
        _require(amp, "amplifier", "gain_db", "added_photons")
        gain = 10.0 ** (amp["gain_db"] / 10.0)
        store = cal.CalibrationStore(
            gain=gain,
            added_photons=amp["added_photons"],
            sigma_gain=amp["sigma_gain_rel"] * gain,
            sigma_noise=amp["sigma_noise_photons"],
            cov_gain_noise=amp["cov_gain_noise"],
        )
    try:  # the amplifier model checks gain >= 1 and a PSD fit covariance
        store.amplifier(1)
    except (ValueError, GainBelowUnityError) as exc:
        _fail("amplifier.calibration_json" if path else "amplifier", str(exc))
    return store


def validate_config(doc, config_path="<config>", digest=""):
    """Check a raw scenario document and resolve it to a ScenarioConfig."""
    cfg = _read(doc, SCHEMA, "")
    pipeline, seed = cfg["pipeline"], cfg["seed"]
    for other in PIPELINES:
        if other != pipeline and doc.get(other):
            _fail(other, f"pipeline is {pipeline!r}; remove the {other!r} "
                         f"section or switch pipeline (exactly one runs)")

    mirror = cfg["system"]["mirror"]
    mirror = MirrorSpec.from_hz(mirror["freq_lc_hz"], mirror["coupling_vac_hz"])
    modes = cfg["system"]["modes"]
    if not modes:
        _fail("system.modes", "expected a non-empty list of mode mappings")
    try:  # modesys refuses modes without loss and modes out of frequency order
        specs = sorted((ModeSpec.from_hz(pos if m["index"] is None else m["index"],
                                         m["freq_hz"], m["loss_ext_hz"], m["loss_int_hz"])
                        for pos, m in enumerate(modes)), key=lambda m: m.index)
        indices = [m.index for m in specs]
        if indices != list(range(len(specs))):
            _fail("system.modes", f"mode indices must be 0..{len(specs) - 1} "
                                  f"without gaps, got {indices}")
        system = ModeSystem(tuple(specs), mirror)
    except ValueError as exc:
        _fail("system.modes", str(exc))
    n_modes = len(specs)

    pumps = []
    for pos, p in enumerate(cfg["pumps"]):
        if p["flux_phi0"] >= 0.5:
            _fail(f"pumps[{pos}].flux_phi0", "flux amplitude must stay below half "
                                             "a flux quantum")
        pumps.append(PumpTone.from_hz(p["freq_hz"], phi_ac=p["flux_phi0"],
                                      theta=p["theta_rad"]))
    given = [p["epsilon_hz"] is not None for p in cfg["pumps"]]
    if any(given) and not all(given):
        _fail(f"pumps[{given.index(False)}].epsilon_hz",
              "explicit coupling strengths must be given on all pumps or none")
    pump_eps = [TWO_PI * p["epsilon_hz"] for p in cfg["pumps"]] if any(given) else None

    amplifier = _amplifier(cfg["amplifier"], doc.get("amplifier"))
    raw_probes = cfg["probes"]["mode_indices"]
    probe_indices = (list(range(n_modes)) if raw_probes is None else
                     sorted(_modes(raw_probes, "probes.mode_indices", n_modes)))

    if pipeline in ("twomode", "multimode"):
        if seed is None:
            _fail("seed", f"the {pipeline} pipeline samples quadrature records "
                          f"and needs a seed for reproducibility")
        if not pumps:
            _fail("pumps", f"the {pipeline} pipeline needs at least one pump")
        if amplifier is None:
            _fail("amplifier", f"the {pipeline} pipeline emulates the "
                               f"measurement chain and needs an amplifier")

    section = cfg[pipeline]
    if pipeline == "twomode":
        section["pair"] = _modes(section["pair"], "twomode.pair", n_modes, 2)
        count = section["detuning_count"]
        hist = section["histogram_detunings"]
        section["histogram_detunings"] = sorted(set(_indices(
            [count // 2] if hist is None else hist, "twomode.histogram_detunings",
            count, "sweep index")))
        try:
            histogram_bins(section["histogram_bin"], section["histogram_span"])
        except ValueError as exc:
            _fail("twomode.histogram_bin", str(exc))
    elif pipeline == "multimode":
        if len(probe_indices) < 2:
            _fail("probes.mode_indices", "multimode analysis needs at least "
                                         "two modes")
    elif pipeline == "calibration":
        planck, corr = section["planck"], section["correlation"]
        if planck is None and corr is None:
            _fail("calibration", "give a planck and/or a correlation subsection")
        noisy = False
        if planck is not None and planck["data_csv"] is None:
            _require(planck, "calibration.planck", "gain_db", "added_photons")
            noisy = planck["noise_rel"] > 0
        if corr is not None:
            corr["pair"] = _modes(corr["pair"], "calibration.correlation.pair", n_modes, 2)
            noisy = noisy or (corr["data_csv"] is None and corr["noise_rel"] > 0)
        if noisy and seed is None:
            _fail("seed", "a seed is required when calibration data is "
                          "synthesized with noise")
    else:
        if len(pumps) < 2:
            _fail("pumps", "the scattering sweep rescales the pump comb and "
                           "needs at least two pumps")
        if (section["spacing_start_hz"] is None) != (section["spacing_stop_hz"] is None):
            _fail("scattering", "give both spacing_start_hz and spacing_stop_hz "
                                "or neither")
        for name in ("ref_out", "ref_in"):
            if section[name] >= 2 * n_modes:
                _fail(f"scattering.{name}", f"scattering index {section[name]} "
                                            f"outside 0..{2 * n_modes - 1}")

    output_dir = cfg["output_dir"]
    out_root = os.environ.get(OUT_ROOT_ENV)
    if out_root and not os.path.isabs(output_dir):
        output_dir = os.path.join(out_root, output_dir)

    sampling, tol_hz = cfg["sampling"], cfg["coupling"]["tolerance_hz"]
    return ScenarioConfig(
        pipeline=pipeline,
        output_dir=output_dir,
        seed=seed,
        system=system,
        pumps=pumps,
        pump_eps=pump_eps,
        tolerance=None if tol_hz is None else TWO_PI * tol_hz,
        allow_unstable=cfg["coupling"]["allow_unstable"],
        temperature=cfg["environment"]["temp_k"],
        amplifier=amplifier,
        n_samples=sampling["n_samples"],
        interval_count=sampling["interval_count"],
        drift_phase=sampling["drift_phase"],
        probe_indices=probe_indices,
        section=section,
        config_path=config_path,
        digest=digest,
    )
