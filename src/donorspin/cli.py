"""Experiment runner: validates a manifest, runs the named experiment and
emits columnar data with full provenance.

Verbs: run <manifest>, validate <manifest>, dump-hprime, list-experiments.
"""
from __future__ import annotations

import argparse
import sys

import numpy as np

from . import __version__
from .io import (ManifestError, parse_keyvalues, parse_quantity, parse_angle,
                 parse_list, load_params, format_params, write_columns,
                 _TIME_UNITS, _EFIELD_UNITS, _FREQ_UNITS, _LENGTH_UNITS)
from .model import (TWO_PI, SystemParams, qubit_splitting_approx)
from .pulses import make_rz_schedule, idle_frequencies
from .propagation import lab_hamiltonian
from .gates import (predict_rz_angle, simulate_rz_angle, rz_duration_for_angle,
                    NoiseModel, run_noise_monte_carlo, rz_matrix,
                    calibrate_lambda, build_corrected_rx, build_sweep_echo_rx)
from .effective import hprime_text
from .twoqubit import (TwoQubitLayout, cphase_angle, cz_duration_search,
                       make_coupled_cphase_schedule)

EXPERIMENTS = {}


def experiment(kind, required, optional=()):
    def wrap(fn):
        EXPERIMENTS[kind] = (fn, tuple(required), tuple(optional))
        return fn
    return wrap


class Manifest:
    def __init__(self, raw: dict):
        self.raw = dict(raw)
        kind = raw.get("kind")
        if kind not in EXPERIMENTS:
            raise ManifestError(
                f"kind = {kind!r} is not an experiment "
                f"(known: {sorted(EXPERIMENTS)})")
        self.kind = kind
        _, required, optional = EXPERIMENTS[kind]
        base = {"kind", "output", "seed", "params_file"}
        for key in required:
            if key not in raw:
                raise ManifestError(f"manifest for {kind!r} is missing "
                                    f"required field {key!r}")
        for key in raw:
            if key not in base and key not in required and key not in optional:
                raise ManifestError(f"unknown manifest field {key!r} for "
                                    f"kind {kind!r}")
        if "output" not in raw:
            raise ManifestError("manifest is missing required field 'output'")
        self.output = raw["output"]
        self.seed = self.integer("seed", 0)
        self.params = (load_params(raw["params_file"])
                       if "params_file" in raw else SystemParams())

    def quantity(self, key, units, default=None):
        if key not in self.raw:
            return default
        return parse_quantity(self.raw[key], units, key)

    def angle_list(self, key):
        return parse_list(self.raw[key], parse_angle, key)

    def number_list(self, key, units):
        return parse_list(self.raw[key],
                          lambda t, f: parse_quantity(t, units, f), key)

    def integer(self, key, default=None):
        if key not in self.raw:
            return default
        try:
            return int(self.raw[key])
        except ValueError as exc:
            raise ManifestError(f"field {key!r}: expected an integer, got "
                                f"{self.raw[key]!r}") from exc

    def provenance(self) -> dict:
        out = {"donorspin_version": __version__}
        out.update(self.raw)
        out.update({f"param_{k}": v for k, v in format_params(self.params).items()})
        return out


def load_manifest(path: str) -> Manifest:
    with open(path) as fh:
        return Manifest(parse_keyvalues(fh.read()))


@experiment("splitting-curve", required=("points",),
            optional=("dE_min", "dE_max"))
def run_splitting_curve(m: Manifest):
    lo = m.quantity("dE_min", _EFIELD_UNITS, -2e4)
    hi = m.quantity("dE_max", _EFIELD_UNITS, 2e4)
    grid = np.linspace(lo, hi, m.integer("points"))
    params = m.params

    def one(dE):
        sched = make_rz_schedule(params, 1e-9)  # any schedule; static sample
        H = lab_hamiltonian(params, sched, 0.0, noise_dE=dE - float(
            sched.dE_envelope.value(0.0)), basis="position").matrix
        ev = np.linalg.eigvalsh(H)
        return dE, ev[1] - ev[0], float(qubit_splitting_approx(params, dE))

    rows = [one(dE) for dE in grid]
    write_columns(m.output, m.provenance(),
                  ("dE_V_per_m", "dq_exact_rad_s", "dq_approx_rad_s"), rows)
    gap = max(abs(r[1] - r[2]) for r in rows)
    return f"max |exact - approx| = {gap / TWO_PI / 1e6:.4f} MHz"


@experiment("rz-angle-curve", required=("points",),
            optional=("t_min", "t_max", "frame"))
def run_rz_angle_curve(m: Manifest):
    lo = m.quantity("t_min", _TIME_UNITS, 2e-9)
    hi = m.quantity("t_max", _TIME_UNITS, 25e-9)
    frame = m.raw.get("frame", "effective")
    grid = np.linspace(lo, hi, m.integer("points"))
    params = m.params

    def one(T):
        pred, _ = predict_rz_angle(params, T)
        sim = simulate_rz_angle(params, T, frame=frame)
        return T, sim, pred

    rows = [one(T) for T in grid]
    write_columns(m.output, m.provenance(),
                  ("T_s", "theta_sim_rad", "theta_pred_rad"), rows)
    gap = max(min(abs(r[1] - r[2]), 2 * np.pi - abs(r[1] - r[2])) for r in rows)
    return f"max angle gap = {gap:.4f} rad"


@experiment("rz-noise", required=("angles", "sigmas"),
            optional=("samples", "frame"))
def run_rz_noise(m: Manifest):
    angles = m.angle_list("angles")
    sigmas = m.number_list("sigmas", _EFIELD_UNITS)
    samples = m.integer("samples", 200)
    frame = m.raw.get("frame", "effective")
    params = m.params
    if 0.0 in angles:
        raise ManifestError("field 'angles': an angle of 0 has no Rz pulse")
    rows = []
    for theta in angles:
        T = rz_duration_for_angle(params, theta, frame=frame)
        if T == 0.0:
            # a nonzero multiple of 2pi: one physical full turn, not T = 0
            T = rz_duration_for_angle(params, -2 * np.pi, frame=frame,
                                      unreduced=True)
        sched = make_rz_schedule(params, T)
        target = rz_matrix(theta)
        for sigma in sigmas:
            model = NoiseModel(sigma, samples, m.seed)
            mc = run_noise_monte_carlo(params, sched, target, model, frame)
            rows.append((theta, sigma, mc.mean_infidelity))
    write_columns(m.output, m.provenance(),
                  ("theta_rad", "sigma_V_per_m", "mean_infidelity"), rows)
    return f"{len(rows)} grid points"


def _rx_noise_common(m: Manifest, variants):
    from .gates import naive_maker
    from .pulses import make_rx_sweep_schedule
    thetas = m.angle_list("thetas")
    sigmas = m.number_list("sigmas", _EFIELD_UNITS)
    samples = m.integer("samples", 200)
    params = m.params
    sweep_cal = calibrate_lambda(
        params, lambda p, lam: make_rx_sweep_schedule(p, lam))
    naive_cal = None
    rows = []
    for variant in variants:
        for theta in thetas:
            if variant == "sweep-echo":
                gate = build_sweep_echo_rx(params, theta, sweep_cal)
            elif variant == "naive":
                if naive_cal is None:
                    naive_cal = calibrate_lambda(params, naive_maker(params),
                                                 n_points=21,
                                                 truncate_at_peak=True)
                gate = build_corrected_rx(params, theta, naive_cal,
                                          variant="naive")
            else:
                gate = build_corrected_rx(params, theta, sweep_cal,
                                          variant="sweep")
            for sigma in sigmas:
                model = NoiseModel(sigma, samples, m.seed)
                mc = run_noise_monte_carlo(params, gate.segments, gate.target,
                                           model, dt=0.2e-9)
                rows.append((float(variants.index(variant)), theta, sigma,
                             mc.mean_infidelity))
    return rows


@experiment("rx-noise", required=("thetas", "sigmas"),
            optional=("samples", "variants"))
def run_rx_noise(m: Manifest):
    variants = [v.strip() for v in m.raw.get("variants", "naive,sweep").split(",")]
    rows = _rx_noise_common(m, variants)
    write_columns(m.output, m.provenance(),
                  ("variant_index", "theta_rad", "sigma_V_per_m",
                   "mean_infidelity"), rows)
    return f"variants {variants}, {len(rows)} grid points"


@experiment("sweep-echo-noise", required=("thetas", "sigmas"),
            optional=("samples",))
def run_sweep_echo_noise(m: Manifest):
    rows = _rx_noise_common(m, ["sweep-echo"])
    write_columns(m.output, m.provenance(),
                  ("variant_index", "theta_rad", "sigma_V_per_m",
                   "mean_infidelity"), rows)
    return f"{len(rows)} grid points"


@experiment("cphase-curve", required=("points",),
            optional=("t_min", "t_max", "separation", "find_cz"))
def run_cphase_curve(m: Manifest):
    lo = m.quantity("t_min", _TIME_UNITS, 100e-9)
    hi = m.quantity("t_max", _TIME_UNITS, 750e-9)
    sep = m.quantity("separation", _LENGTH_UNITS, 5e-7)
    layout = TwoQubitLayout(separation_r=sep, params_1=m.params,
                            params_2=m.params)
    grid = np.linspace(lo, hi, m.integer("points"))

    def one(T):
        sched = make_coupled_cphase_schedule(layout, T)
        rep = cphase_angle(layout, sched)
        return T, abs(rep.phi), rep.nonadiabaticity

    rows = [one(T) for T in grid]
    write_columns(m.output, m.provenance(),
                  ("T_s", "abs_phi_rad", "nonadiabaticity"), rows)
    note = f"{len(rows)} durations"
    if m.raw.get("find_cz", "no").lower() in ("yes", "true", "1"):
        t_cz = cz_duration_search(layout, lo, hi)
        note += f"; |phi| = pi at T = {t_cz * 1e9:.2f} ns"
    return note


@experiment("hprime-dump", required=(),
            optional=("dE", "Ea", "Ba", "omega_E", "omega_B"))
def run_hprime_dump(m: Manifest):
    params = m.params
    wE0, wB0 = idle_frequencies(params)
    dE = m.quantity("dE", _EFIELD_UNITS, params.dE_idle)
    Ea = m.quantity("Ea", _EFIELD_UNITS, 0.0)
    Ba = m.quantity("Ba", {"t": 1.0, "mt": 1e-3}, 0.0)
    wE = m.quantity("omega_E", _FREQ_UNITS, wE0)
    wB = m.quantity("omega_B", _FREQ_UNITS, wB0)
    text = hprime_text(params, dE, Ea, Ba, wE, wB)
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
    p_dump = sub.add_parser("dump-hprime",
                            help="write H' at given envelope values")
    p_dump.add_argument("--output", default="hprime.txt")
    p_dump.add_argument("--dE", default=None)
    p_dump.add_argument("--Ea", default=None)
    p_dump.add_argument("--Ba", default=None)
    sub.add_parser("list-experiments", help="show known experiment kinds")
    args = parser.parse_args(argv)

    try:
        if args.verb == "list-experiments":
            for kind, (_, required, optional) in sorted(EXPERIMENTS.items()):
                print(f"{kind}: required {list(required)}, "
                      f"optional {list(optional)}")
            return 0
        if args.verb == "validate":
            load_manifest(args.manifest)
            print("manifest is valid")
            return 0
        if args.verb == "dump-hprime":
            raw = {"kind": "hprime-dump", "output": args.output}
            for key in ("dE", "Ea", "Ba"):
                val = getattr(args, key)
                if val is not None:
                    raw[key] = val
            manifest = Manifest(raw)
            note = run_hprime_dump(manifest)
            print(note)
            return 0
        manifest = load_manifest(args.manifest)
        fn, _, _ = EXPERIMENTS[manifest.kind]
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
