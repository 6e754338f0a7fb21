"""Experiment runner: validates a manifest, runs the named experiment and
emits columnar data with full provenance.

Verbs: run <manifest>, validate <manifest>, list-experiments.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .io import (ManifestError, parse_keyvalues, parse_quantity, parse_angle,
                 parse_list, load_params, format_params, write_columns,
                 _TIME_UNITS, _EFIELD_UNITS, _FREQ_UNITS, _LENGTH_UNITS,
                 _BFIELD_UNITS)
from .model import (TWO_PI, SystemParams, qubit_splitting_approx)
from .pulses import (make_cphase_schedule, make_rz_schedule, idle_frequencies,
                     make_rx_sweep_schedule, CPHASE_MIN_DURATION)
from .propagation import lab_hamiltonian
from .gates import (predict_rz_angle, simulate_rz_angle, rz_duration_for_angle,
                    NoiseModel, run_noise_monte_carlo, rz_matrix,
                    calibrate_lambda, build_corrected_rx, build_sweep_echo_rx,
                    naive_maker)
from .effective import hprime_text
from .twoqubit import TwoQubitLayout, cphase_angle, cz_duration_search

EXPERIMENTS = {}
REQUIRED = object()         # default of a field the manifest must set


# field parsers: (text, field name) -> value, raising ManifestError

def _integer(minimum):
    def parse(text, key):
        try:
            value = int(text)
        except ValueError as exc:
            raise ManifestError(f"field {key!r}: expected an integer, got "
                                f"{text!r}") from exc
        if value < minimum:
            raise ManifestError(f"field {key!r}: must be at least {minimum}, "
                                f"got {value}")
        return value
    return parse


def _quantity(units, above=None, at_least=None):
    def parse(text, key):
        value = parse_quantity(text, units, key)
        if above is not None and not value > above:
            raise ManifestError(f"field {key!r}: must be above {above:g}, "
                                f"got {text!r}")
        if at_least is not None and not value >= at_least:
            raise ManifestError(f"field {key!r}: must be at least "
                                f"{at_least:g}, got {text!r}")
        return value
    return parse


def _quantities(units, **limits):
    return lambda text, key: parse_list(text, _quantity(units, **limits), key)


def _angles(text, key):
    return parse_list(text, parse_angle, key)


def _rz_angles(text, key):
    angles = _angles(text, key)
    if 0.0 in angles:
        raise ManifestError(f"field {key!r}: an angle of 0 has no Rz pulse")
    return angles


def _x_angles(text, key):
    angles = _angles(text, key)
    if not all(a > 0 for a in angles):
        raise ManifestError(f"field {key!r}: X-gate angles must be positive, "
                            f"got {text!r}")
    return angles


def _name(*allowed):
    def parse(text, key):
        if text not in allowed:
            raise ManifestError(f"field {key!r}: {text!r} is not one of "
                                f"{list(allowed)}")
        return text
    return parse


def _names(*allowed):
    return lambda text, key: parse_list(text, _name(*allowed), key)


def _flag(text, key):
    value = text.lower()
    if value not in ("yes", "true", "1", "no", "false", "0"):
        raise ManifestError(f"field {key!r}: expected yes or no, got {text!r}")
    return value in ("yes", "true", "1")


def experiment(kind, **fields):
    """Register an experiment with its manifest fields, each given as
    name=(parser, default); a default of REQUIRED makes the field required."""
    def wrap(fn):
        EXPERIMENTS[kind] = (fn, fields)
        return fn
    return wrap


class Manifest:
    """A manifest whose fields are parsed and range-checked at load; a
    relative params_file is read from the directory `base`."""

    def __init__(self, raw: dict, base: Path):
        self.raw = dict(raw)
        kind = raw.get("kind")
        if kind not in EXPERIMENTS:
            raise ManifestError(
                f"kind = {kind!r} is not an experiment "
                f"(known: {sorted(EXPERIMENTS)})")
        self.kind = kind
        _, fields = EXPERIMENTS[kind]
        for key in raw:
            if key not in fields and key not in ("kind", "output",
                                                 "params_file"):
                raise ManifestError(f"unknown manifest field {key!r} for "
                                    f"kind {kind!r}")
        self.values = {}
        for key, (parse, default) in fields.items():
            if key in raw:
                self.values[key] = parse(raw[key], key)
            elif default is REQUIRED:
                raise ManifestError(f"manifest for {kind!r} is missing "
                                    f"required field {key!r}")
            else:
                self.values[key] = default
        if kind == "cphase-curve" and not self["t_min"] < self["t_max"]:
            raise ManifestError("field 't_max': must be above 't_min'")
        if "output" not in raw:
            raise ManifestError("manifest is missing required field 'output'")
        self.output = raw["output"]
        _check_output_path(self.output)
        self.params = (load_params(str(base / raw["params_file"]))
                       if "params_file" in raw else SystemParams())
        if "sweep-echo" in self.values.get("variants", ()):
            # the sweep gate's theta_x rises all the way to lambda = 1, so
            # a two-point table gives theta_max
            theta_max = calibrate_lambda(self.params, make_rx_sweep_schedule,
                                         n_points=2).theta_max()
            if max(self["thetas"]) > theta_max + 1e-9:
                raise ManifestError(
                    f"field 'thetas': the sweep-echo gate reaches at most "
                    f"{theta_max:.4f} rad, got {raw['thetas']!r}")

    def __getitem__(self, key):
        return self.values[key]

    def provenance(self) -> dict:
        out = {"donorspin_version": __version__}
        out.update(self.raw)
        out.update({f"param_{k}": v for k, v in format_params(self.params).items()})
        return out


def _check_output_path(path: str) -> None:
    """Raise ManifestError if `path` is a directory or lies under a file."""
    ancestor = Path(path).parent
    while not ancestor.exists():
        ancestor = ancestor.parent
    if Path(path).is_dir() or not ancestor.is_dir():
        raise ManifestError(f"field 'output': cannot write a file at {path!r}")


def load_manifest(path: str) -> Manifest:
    with open(path) as fh:
        return Manifest(parse_keyvalues(fh.read()), Path(path).parent)


@experiment("splitting-curve", points=(_integer(1), REQUIRED),
            dE_min=(_quantity(_EFIELD_UNITS), -2e4),
            dE_max=(_quantity(_EFIELD_UNITS), 2e4))
def run_splitting_curve(m: Manifest):
    grid = np.linspace(m["dE_min"], m["dE_max"], m["points"])
    params = m.params

    def one(dE):
        sched = make_rz_schedule(params, 1e-9)  # any schedule; static sample
        H = lab_hamiltonian(params, sched, 0.0, noise_dE=dE - float(
            sched.dE_envelope(0.0)))
        ev = np.linalg.eigvalsh(H)
        return dE, ev[1] - ev[0], float(qubit_splitting_approx(params, dE))

    rows = [one(dE) for dE in grid]
    write_columns(m.output, m.provenance(),
                  ("dE_V_per_m", "dq_exact_rad_s", "dq_approx_rad_s"), rows)
    gap = max(abs(r[1] - r[2]) for r in rows)
    return f"max |exact - approx| = {gap / TWO_PI / 1e6:.4f} MHz"


@experiment("rz-angle-curve", points=(_integer(1), REQUIRED),
            t_min=(_quantity(_TIME_UNITS, above=0.0), 2e-9),
            t_max=(_quantity(_TIME_UNITS, above=0.0), 25e-9))
def run_rz_angle_curve(m: Manifest):
    grid = np.linspace(m["t_min"], m["t_max"], m["points"])
    params = m.params

    def one(T):
        pred, _ = predict_rz_angle(params, T)
        sim = simulate_rz_angle(params, T)
        return T, sim, pred

    rows = [one(T) for T in grid]
    write_columns(m.output, m.provenance(),
                  ("T_s", "theta_sim_rad", "theta_pred_rad"), rows)
    gap = max(min(abs(r[1] - r[2]), 2 * np.pi - abs(r[1] - r[2])) for r in rows)
    return f"max angle gap = {gap:.4f} rad"


def _noise_scan(m: Manifest, segments, target, dt):
    """(sigma, mean infidelity) of one gate at each manifest sigma."""
    return [(sigma, run_noise_monte_carlo(
        m.params, segments, target, NoiseModel(sigma, m["samples"], m["seed"]),
        dt).mean_infidelity) for sigma in m["sigmas"]]


@experiment("rz-noise", angles=(_rz_angles, REQUIRED),
            sigmas=(_quantities(_EFIELD_UNITS, at_least=0.0), REQUIRED),
            samples=(_integer(1), 200), seed=(_integer(0), 0))
def run_rz_noise(m: Manifest):
    params = m.params
    rows = []
    for theta in m["angles"]:
        T = rz_duration_for_angle(params, theta)
        if T == 0.0:
            # a nonzero multiple of 2pi: one physical full turn, not T = 0
            T = rz_duration_for_angle(params, -2 * np.pi, unreduced=True)
        rows += [(theta, *row) for row in _noise_scan(
            m, make_rz_schedule(params, T), rz_matrix(theta), None)]
    write_columns(m.output, m.provenance(),
                  ("theta_rad", "sigma_V_per_m", "mean_infidelity"), rows)
    return f"{len(rows)} grid points"


@experiment("rx-noise", thetas=(_x_angles, REQUIRED),
            sigmas=(_quantities(_EFIELD_UNITS, at_least=0.0), REQUIRED),
            samples=(_integer(1), 200), seed=(_integer(0), 0),
            variants=(_names("naive", "sweep", "sweep-echo"),
                      ["naive", "sweep"]))
def run_rx_noise(m: Manifest):
    params, variants = m.params, m["variants"]
    sweep_cal = calibrate_lambda(params, make_rx_sweep_schedule)
    naive_cal = None
    rows = []
    for variant in variants:
        for theta in m["thetas"]:
            if variant == "sweep-echo":
                gate = build_sweep_echo_rx(params, theta, sweep_cal)
            elif variant == "naive":
                if naive_cal is None:
                    naive_cal = calibrate_lambda(params, naive_maker(params),
                                                 n_points=21)
                gate = build_corrected_rx(params, theta, naive_cal,
                                          variant="naive")
            else:
                gate = build_corrected_rx(params, theta, sweep_cal,
                                          variant="sweep")
            rows += [(float(variants.index(variant)), theta, *row)
                     for row in _noise_scan(m, gate.segments, gate.target,
                                            0.2e-9)]
    write_columns(m.output, m.provenance(),
                  ("variant_index", "theta_rad", "sigma_V_per_m",
                   "mean_infidelity"), rows)
    return f"variants {variants}, {len(rows)} grid points"


@experiment("cphase-curve", points=(_integer(1), REQUIRED),
            t_min=(_quantity(_TIME_UNITS, above=CPHASE_MIN_DURATION), 100e-9),
            t_max=(_quantity(_TIME_UNITS, above=CPHASE_MIN_DURATION), 750e-9),
            separation=(_quantity(_LENGTH_UNITS, above=0.0), 5e-7),
            find_cz=(_flag, False))
def run_cphase_curve(m: Manifest):
    lo, hi = m["t_min"], m["t_max"]
    layout = TwoQubitLayout(separation_r=m["separation"], params_1=m.params,
                            params_2=m.params)

    def one(T):
        rep = cphase_angle(layout, make_cphase_schedule(m.params, T))
        return T, abs(rep.phi), rep.nonadiabaticity

    rows = [one(T) for T in np.linspace(lo, hi, m["points"])]
    write_columns(m.output, m.provenance(),
                  ("T_s", "abs_phi_rad", "nonadiabaticity"), rows)
    note = f"{len(rows)} durations"
    if m["find_cz"]:
        t_cz = cz_duration_search(layout, lo, hi)
        note += f"; |phi| = pi at T = {t_cz * 1e9:.2f} ns"
    return note


@experiment("hprime-dump", dE=(_quantity(_EFIELD_UNITS), None),
            Ea=(_quantity(_EFIELD_UNITS), 0.0),
            Ba=(_quantity(_BFIELD_UNITS), 0.0),
            omega_E=(_quantity(_FREQ_UNITS), None),
            omega_B=(_quantity(_FREQ_UNITS), None))
def run_hprime_dump(m: Manifest):
    params = m.params
    wE0, wB0 = idle_frequencies(params)
    dE = params.dE_idle if m["dE"] is None else m["dE"]
    wE = wE0 if m["omega_E"] is None else m["omega_E"]
    wB = wB0 if m["omega_B"] is None else m["omega_B"]
    text = hprime_text(params, dE, m["Ea"], m["Ba"], wE, wB)
    with open(m.output, "w") as fh:
        for key, value in m.provenance().items():
            fh.write(f"# {key} = {value}\n")
        fh.write(text)
    return "H' written"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="donorspin",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="verb", required=True)
    p_run = sub.add_parser("run", help="execute a manifest")
    p_run.add_argument("manifest")
    p_val = sub.add_parser("validate", help="check a manifest without running")
    p_val.add_argument("manifest")
    sub.add_parser("list-experiments", help="show known experiment kinds")
    args = parser.parse_args(argv)

    try:
        if args.verb == "list-experiments":
            for kind, (_, fields) in sorted(EXPERIMENTS.items()):
                required = [k for k, (_, d) in fields.items() if d is REQUIRED]
                optional = [k for k in fields if k not in required]
                print(f"{kind}: required {required}, optional {optional}")
            return 0
        manifest = load_manifest(args.manifest)
        if args.verb == "validate":
            print("manifest is valid")
            return 0
        fn, _ = EXPERIMENTS[manifest.kind]
        Path(manifest.output).parent.mkdir(parents=True, exist_ok=True)
        note = fn(manifest)
        print(f"{manifest.kind}: {note} -> {manifest.output}")
        return 0
    except ManifestError as exc:
        print(f"manifest error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, ValueError) as exc:
        print(f"simulation error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
