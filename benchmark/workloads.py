"""The three benchmark workloads.

Each workload is a closed loop with one caller: its operations run one
after another in a single process, each waiting for the previous one. The
benchmark seed only draws inputs (Monte Carlo seed, quasi-static offsets);
the library receives the drawn values. Library functions are looked up
through their modules at call time, so the traced run sees every call.

The seed picks one of CASES fixed input cases (case = seed % CASES), and
each case's inputs are drawn from a generator seeded with the case number.
Every case's outputs are recorded in references.json, so every seed runs
the checks against this commit's results, not only seed-independent bounds.

A workload has:
  setup(ds, seed)          -> state; timed as set-up
  operations(state)        -> [(name, fn(outputs) -> output)]; one solve pass
  check_setup(state, refs) -> [error]
  check(state, outputs, refs, full) -> {name: error}; `full` adds the
                              expensive oracle checks (run once, untimed)
  observed(state, outputs) -> values recorded as references

`refs` carries the tolerances, the seed-independent reference values and
the recorded values of the seed's case (see references.json).
"""
from __future__ import annotations

import warnings

import numpy as np

UNITARITY_LIMIT = 1e-8      # EvolutionResult marks a propagator invalid here
CASES = 5                   # input cases recorded in references.json


def case_rng(seed):
    """Generator for the inputs of the seed's case."""
    return np.random.default_rng(seed % CASES)


def unitarity_defect(U):
    U = np.asarray(U)
    prod = np.matmul(np.conj(np.swapaxes(U, -1, -2)), U)
    return float(np.abs(prod - np.eye(U.shape[-1])).max())


def _rel(a, b):
    return abs(a - b) / abs(b)


def _circular(a, b):
    return abs((a - b + np.pi) % (2 * np.pi) - np.pi)


def _complex_matrix(pairs):
    return np.array(pairs, dtype=float).view(complex)[..., 0]


def _pairs(matrix):
    return np.stack([matrix.real, matrix.imag], axis=-1).tolist()


# ---------------------------------------------------------------------------
# noise-mc: quasi-static-noise Monte Carlo of the pi/2 sweep-and-echo and
# corrected sweep X gates, as the rx_noise / sweep_echo_noise manifests do

MC_THETA = np.pi / 2
MC_SIGMAS = (10.0, 30.0, 100.0, 300.0)      # V/m, the manifests' list
MC_SAMPLES = 12                             # antithetic: 6 distinct draws
MC_DT = 0.2e-9                              # the CLI's Monte Carlo step
MC_GATES = ("sweep-echo", "corrected")


class NoiseMC:
    name = "noise-mc"

    def setup(self, ds, seed):
        params = ds.model.SystemParams()
        cal = ds.gates.calibrate_lambda(
            params, lambda p, lam: ds.pulses.make_rx_sweep_schedule(p, lam))
        built = {
            "sweep-echo": ds.gates.build_sweep_echo_rx(params, MC_THETA, cal),
            "corrected": ds.gates.build_corrected_rx(params, MC_THETA, cal,
                                                     variant="sweep"),
        }
        mc_seed = int(case_rng(seed).integers(2**31 - 1))
        return {"ds": ds, "params": params, "cal": cal, "gates": built,
                "mc_seed": mc_seed}

    @staticmethod
    def op_name(gate, sigma):
        return f"mc {gate} sigma={sigma:g}"

    def operations(self, state):
        ds, params = state["ds"], state["params"]
        ops = []
        for gname in MC_GATES:
            gate = state["gates"][gname]
            for sigma in MC_SIGMAS:
                model = ds.gates.NoiseModel(sigma, MC_SAMPLES, state["mc_seed"])

                def run(outputs, gate=gate, model=model):
                    return ds.gates.run_noise_monte_carlo(
                        params, gate.segments, gate.target, model, dt=MC_DT)

                ops.append((self.op_name(gname, sigma), run))
        return ops

    def check_setup(self, state, refs):
        tol, ref = refs["tolerances"], refs["values"]
        errors = []
        if state["mc_seed"] != refs["case"]["mc_seed"]:
            errors.append(f"Monte Carlo seed {state['mc_seed']} != recorded "
                          f"{refs['case']['mc_seed']}")
        theta_max = state["cal"].theta_max()
        if abs(theta_max - ref["theta_max"]) > tol["theta_max_abs"]:
            errors.append(f"calibration theta_max {theta_max!r} != "
                          f"{ref['theta_max']!r}")
        for gname in MC_GATES:
            T = state["gates"][gname].total_time
            if _rel(T, ref[f"total_time {gname}"]) > tol["total_time_rel"]:
                errors.append(f"{gname} total time {T!r} != "
                              f"{ref[f'total_time {gname}']!r}")
        return errors

    def check(self, state, outputs, refs, full):
        tol, case = refs["tolerances"], refs["case"]
        ds, params = state["ds"], state["params"]
        errors = {}
        for gname in MC_GATES:
            prev = None
            for sigma in MC_SIGMAS:
                name = self.op_name(gname, sigma)
                if name not in outputs:
                    prev = None
                    continue
                mc = outputs[name]
                msg = []
                inf, leak = mc.infidelities, mc.leakages
                if not (np.all(np.isfinite(inf)) and inf.min() >= -tol["negative"]
                        and inf.max() <= 1):
                    msg.append("infidelity outside [0, 1]")
                if not (leak.min() >= -tol["negative"]
                        and leak.max() <= tol["max_leakage"]):
                    msg.append(f"leakage {leak.max():.3e} outside "
                               f"[0, {tol['max_leakage']}]")
                if prev is not None and mc.mean_infidelity < prev - tol["negative"]:
                    msg.append("mean infidelity decreases with sigma")
                want = case[f"mean_infidelity {name}"]
                if _rel(mc.mean_infidelity, want) > tol["mean_infidelity_rel"]:
                    msg.append(f"mean infidelity {mc.mean_infidelity!r} "
                               f"!= reference {want!r}")
                if full:
                    msg.extend(self._spot_check(ds, params, state["gates"][gname],
                                                mc, tol))
                prev = mc.mean_infidelity
                if msg:
                    errors[name] = "; ".join(msg)
        # the composite's point: it beats the bare corrected gate at strong noise
        top = MC_SIGMAS[-1]
        echo = outputs.get(self.op_name("sweep-echo", top))
        corr = outputs.get(self.op_name("corrected", top))
        if echo is not None and corr is not None:
            ratio = corr.mean_infidelity / echo.mean_infidelity
            if ratio < tol["echo_advantage"]:
                name = self.op_name("sweep-echo", top)
                errors[name] = "; ".join(filter(None, (
                    errors.get(name),
                    f"sweep-echo only {ratio:.2f}x better than corrected")))
        return errors

    @staticmethod
    def _spot_check(ds, params, gate, mc, tol):
        """Recompute the first sample unbatched and check the batch."""
        d0 = float(mc.samples[0])
        block = ds.gates.composite_qubit_block(params, gate.segments, d0,
                                               "effective", MC_DT)
        inf0 = ds.gates.gate_infidelity(block, gate.target, 2)
        msg = []
        if abs(inf0 - mc.infidelities[0]) > tol["batch_vs_scalar_abs"]:
            msg.append(f"batched sample 0 infidelity {mc.infidelities[0]!r} "
                       f"!= unbatched {inf0!r}")
        U = ds.gates.evolve_segments(params, gate.segments, d0, "effective",
                                     MC_DT)
        defect = unitarity_defect(U)
        if defect >= UNITARITY_LIMIT:
            msg.append(f"unitarity defect {defect:.2e}")
        return msg

    def observed(self, state, outputs):
        obs = {"mc_seed": state["mc_seed"],
               "theta_max": state["cal"].theta_max()}
        for gname in MC_GATES:
            obs[f"total_time {gname}"] = state["gates"][gname].total_time
        for name, mc in outputs.items():
            obs[f"mean_infidelity {name}"] = mc.mean_infidelity
            obs[f"max_leakage {name}"] = float(mc.leakages.max())
        return obs


# ---------------------------------------------------------------------------
# lab-oracle: the criterion 5/6 oracle, the full-drive sweep gate propagated
# in the lab position frame at the library's default step

LAB_OFFSET_RANGE = 50.0       # V/m; each case's offset is drawn in +-this


class LabOracle:
    name = "lab-oracle"

    def setup(self, ds, seed):
        params = ds.model.SystemParams()
        sched = ds.pulses.make_rx_sweep_schedule(params, 1.0)
        offset = float(case_rng(seed).uniform(-LAB_OFFSET_RANGE,
                                              LAB_OFFSET_RANGE))
        return {"ds": ds, "params": params, "sched": sched, "offset": offset}

    def operations(self, state):
        ds, params, sched = state["ds"], state["params"], state["sched"]

        def propagate(outputs):
            return ds.propagation.evolve(params, sched, noise_dE=state["offset"],
                                         frame="lab-position")

        def extract(outputs):
            return ds.gates.extract_qubit_gate(outputs["propagate"], params)

        return [("propagate", propagate), ("extract", extract)]

    def check_setup(self, state, refs):
        if state["offset"] != refs["case"]["offset"]:
            return [f"offset {state['offset']!r} != recorded "
                    f"{refs['case']['offset']!r}"]
        return []

    def check(self, state, outputs, refs, full):
        tol, case = refs["tolerances"], refs["case"]
        errors = {}
        if "propagate" in outputs:
            defect = unitarity_defect(outputs["propagate"].propagator.matrix)
            if defect >= UNITARITY_LIMIT:
                errors["propagate"] = f"unitarity defect {defect:.2e}"
        if "extract" in outputs:
            gate, leak = outputs["extract"]
            ds, params = state["ds"], state["params"]
            msg = []
            if leak > tol["max_leakage"]:
                msg.append(f"leakage {leak:.2e} > {tol['max_leakage']}")
            dev = ds.gates.gate_infidelity(gate.matrix,
                                           _complex_matrix(case["gate"]), 2)
            if dev > tol["gate_vs_reference"]:
                msg.append(f"gate infidelity {dev:.2e} against reference")
            if abs(leak - case["leakage"]) > tol["leakage_vs_reference_abs"]:
                msg.append(f"leakage {leak!r} != reference {case['leakage']!r}")
            if full:
                eff = ds.propagation.evolve(params, state["sched"],
                                            noise_dE=state["offset"],
                                            frame="effective")
                g_eff, _ = ds.gates.extract_qubit_gate(eff, params)
                gap = ds.gates.gate_infidelity(g_eff.matrix, gate.matrix, 2)
                if gap >= tol["lab_vs_effective"]:
                    msg.append(f"lab-vs-effective infidelity {gap:.2e}")
            if msg:
                errors["extract"] = "; ".join(msg)
        return errors

    def observed(self, state, outputs):
        obs = {"offset": state["offset"]}
        if "extract" in outputs:
            gate, leak = outputs["extract"]
            obs.update(gate=_pairs(gate.matrix), leakage=leak)
        if "propagate" in outputs:
            obs["unitarity_defect"] = unitarity_defect(
                outputs["propagate"].propagator.matrix)
        return obs


# ---------------------------------------------------------------------------
# cz-search: the scripts/cz_search.py pipeline at 500 nm

CZ_SEPARATION = 500e-9
CZ_BRACKET = (120e-9, 745e-9)
CZ_SEARCH_SAMPLES = 300
CZ_CHECK_SAMPLES = 400
CZ_SIM_DT = 0.1e-9
# each case's offsets are drawn in +-CZ_OFFSET_RANGE V/m; the 64-dim phase
# moves by ~0.1 rad per 0.5 V/m here
CZ_OFFSET_RANGE = 1.0


class CzSearch:
    name = "cz-search"

    def setup(self, ds, seed):
        params = ds.model.SystemParams()
        layout = ds.twoqubit.TwoQubitLayout(separation_r=CZ_SEPARATION,
                                            params_1=params, params_2=params)
        offsets = tuple(float(x) for x in case_rng(seed).uniform(
            -CZ_OFFSET_RANGE, CZ_OFFSET_RANGE, 2))
        return {"ds": ds, "params": params, "layout": layout,
                "offsets": offsets}

    def operations(self, state):
        ds, params, layout = state["ds"], state["params"], state["layout"]

        def search(outputs):
            return ds.twoqubit.cz_duration_search(layout, *CZ_BRACKET,
                                                  n_samples=CZ_SEARCH_SAMPLES)

        def cphase(outputs):
            sched = ds.pulses.make_cphase_schedule(params, outputs["search"])
            return ds.twoqubit.cphase_angle(layout, sched,
                                            n_samples=CZ_CHECK_SAMPLES)

        def sim64(outputs):
            sched = ds.pulses.make_cphase_schedule(params, outputs["search"])
            # the 64-dim oracle always flags its nonadiabaticity at 500 nm
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                return ds.twoqubit.simulate_two_qubit(
                    layout, sched, noise_dE=state["offsets"], dt=CZ_SIM_DT)

        return [("search", search), ("cphase", cphase), ("sim64", sim64)]

    def check_setup(self, state, refs):
        if list(state["offsets"]) != refs["case"]["offsets"]:
            return [f"offsets {state['offsets']!r} != recorded "
                    f"{refs['case']['offsets']!r}"]
        return []

    def check(self, state, outputs, refs, full):
        tol, ref, case = refs["tolerances"], refs["values"], refs["case"]
        errors = {}
        if "search" in outputs:
            T = outputs["search"]
            if abs(T - ref["t_cz"]) > tol["t_cz_abs"]:
                errors["search"] = f"T_cz {T!r} != {ref['t_cz']!r}"
        if "cphase" in outputs:
            phi = outputs["cphase"].phi
            msg = []
            if abs(phi - ref["phi_quadrature"]) > tol["phi_abs"]:
                msg.append(f"phi {phi!r} != {ref['phi_quadrature']!r}")
            if abs(abs(phi) - np.pi) > tol["phi_vs_pi"]:
                msg.append(f"|phi| = {abs(phi)!r} is not pi")
            if msg:
                errors["cphase"] = "; ".join(msg)
        if "sim64" in outputs:
            sim = outputs["sim64"]
            defect = unitarity_defect(sim.propagator)
            msg = []
            if defect >= UNITARITY_LIMIT:
                msg.append(f"unitarity defect {defect:.2e}")
            if not sim.report.phases_consistent():
                msg.append("phases inconsistent")
            if _circular(sim.report.phi, case["phi_64"]) > tol["phi_abs"]:
                msg.append(f"64-dim phi {sim.report.phi!r} != "
                           f"{case['phi_64']!r}")
            if defect > tol["defect_64_reference"]:
                msg.append(f"unitarity defect {defect:.2e} above "
                           f"{tol['defect_64_reference']}")
            if msg:
                errors["sim64"] = "; ".join(msg)
        return errors

    def observed(self, state, outputs):
        obs = {"offsets": list(state["offsets"])}
        if "search" in outputs:
            obs["t_cz"] = outputs["search"]
        if "cphase" in outputs:
            obs["phi_quadrature"] = outputs["cphase"].phi
        if "sim64" in outputs:
            obs["phi_64"] = outputs["sim64"].report.phi
            obs["defect_64"] = unitarity_defect(outputs["sim64"].propagator)
            obs["nonadiabaticity_64"] = outputs["sim64"].report.nonadiabaticity
        return obs


WORKLOADS = {w.name: w for w in (NoiseMC(), LabOracle(), CzSearch())}
