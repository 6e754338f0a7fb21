import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from donorspin.io import (ManifestError, parse_keyvalues, parse_quantity,
                          parse_angle, load_params, format_params,
                          write_columns, _FREQ_UNITS, _EFIELD_UNITS,
                          _TIME_UNITS, _LENGTH_UNITS)
from donorspin.model import TWO_PI, SystemParams
from donorspin.cli import Manifest, load_manifest, EXPERIMENTS, main

MANIFEST_DIR = Path(__file__).resolve().parent.parent / "manifests"
MANIFESTS = sorted(MANIFEST_DIR.glob("*.txt"))

PARAM_TEXT = """
# reference device
hyperfine_A = 117 MHz
gamma_e = 27.97 GHz/T
gamma_n = 17.23 MHz/T
delta_gamma = -0.002
donor_depth_d = 15 nm
B0 = 0.2 T
Vt = auto
dE_idle = 1e4 V/m
"""


def read_columns(path):
    """Inverse of write_columns: (provenance dict, data array)."""
    provenance = {}
    data = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body:
                    k, _, v = body.partition("=")
                    provenance[k.strip()] = v.strip()
                continue
            if line:
                data.append([float(x) for x in line.split()])
    return provenance, np.array(data)


def data_rows(path):
    """The lines of an output file below its '#' header."""
    return [ln for ln in Path(path).read_text().splitlines()
            if not ln.startswith("#")]


class TestParsing:
    def test_quantities(self):
        assert parse_quantity("117 MHz", _FREQ_UNITS, "f") == TWO_PI * 117e6
        assert parse_quantity("2.5", None, "x") == 2.5
        assert parse_quantity("3 kV/m", _EFIELD_UNITS, "e") == 3000.0

    def test_super_unit_rounds_once(self):
        # the decimal text is scaled exactly, then rounded to a float once
        assert parse_quantity("1.001 kV/m", _EFIELD_UNITS, "e") == 1001.0
        for k in range(1, 100000):          # 0.001 to 99.999
            s = f"{k // 1000}.{k % 1000:03d}"
            assert parse_quantity(s + " kV/m", _EFIELD_UNITS, "e") == \
                float(s + "e3")
            assert parse_quantity(s + " MHz", _FREQ_UNITS, "f") == \
                float(s + "e6") * TWO_PI

    def test_unknown_unit_names_field(self):
        with pytest.raises(ManifestError, match="'f'"):
            parse_quantity("1 parsec", _FREQ_UNITS, "f")

    def test_angles(self):
        assert parse_angle("pi", "a") == pytest.approx(math.pi)
        assert parse_angle("-pi/4", "a") == pytest.approx(-math.pi / 4)
        assert parse_angle("2pi", "a") == pytest.approx(2 * math.pi)
        assert parse_angle("0.75 pi", "a") == pytest.approx(0.75 * math.pi)
        assert parse_angle("90 deg", "a") == pytest.approx(math.pi / 2)
        assert parse_angle("1.25", "a") == 1.25

    def test_params_file_roundtrip(self, tmp_path):
        path = tmp_path / "device.params"
        path.write_text(PARAM_TEXT)
        params = load_params(str(path))
        assert params.hyperfine_A == pytest.approx(TWO_PI * 117e6)
        assert params.Vt == pytest.approx(params.B0 *
                                          (params.gamma_e + params.gamma_n))
        # header view parses back to the same numbers
        view = format_params(params)
        path.write_text("\n".join(f"{k} = {v}" for k, v in view.items()))
        clone = load_params(str(path))
        assert clone.gamma_e == pytest.approx(params.gamma_e, rel=1e-9)
        assert clone.dE_idle == params.dE_idle

    def test_rejects_unknown_parameter(self, tmp_path):
        path = tmp_path / "device.params"
        path.write_text("mystery_knob = 2\n")
        with pytest.raises(ManifestError, match="unknown parameter"):
            load_params(str(path))

    def test_out_of_range_parameter_names_it(self, tmp_path):
        path = tmp_path / "device.params"
        path.write_text("B0 = -0.2 T\n")
        with pytest.raises(ManifestError, match="B0 must be positive"):
            load_params(str(path))

    def test_params_file_path_containing_equals(self, tmp_path, capsys):
        # a path is read as a path even where it looks like 'key = value'
        folder = tmp_path / "run=1"
        folder.mkdir()
        path = folder / "device.params"
        path.write_text(PARAM_TEXT.replace("B0 = 0.2 T", "B0 = 0.25 T"))
        assert load_params(str(path)).B0 == 0.25
        man = tmp_path / "m.txt"
        man.write_text(f"kind = splitting-curve\npoints = 3\n"
                       f"params_file = {path}\noutput = x\n")
        assert main(["validate", str(man)]) == 0
        assert load_manifest(str(man)).params.B0 == 0.25

    def test_shipped_params_file_is_the_reference_device(self):
        # sub-unit scales divide by an exact power of ten: 15 nm is the
        # literal 15e-9
        assert load_params(str(MANIFEST_DIR / "device.params")) == \
            SystemParams()
        assert parse_quantity("15 nm", _LENGTH_UNITS, "d") == 15e-9
        assert parse_quantity("150 ns", _TIME_UNITS, "t") == 150e-9

    def test_relative_params_file_is_read_beside_the_manifest(
            self, tmp_path, monkeypatch):
        folder = tmp_path / "run"
        folder.mkdir()
        (folder / "device.params").write_text(
            PARAM_TEXT.replace("B0 = 0.2 T", "B0 = 0.25 T"))
        man = folder / "m.txt"
        man.write_text("kind = splitting-curve\npoints = 3\n"
                       "params_file = device.params\noutput = x\n")
        monkeypatch.chdir(tmp_path)
        assert load_manifest(str(man)).params.B0 == 0.25
        assert main(["validate", str(man)]) == 0

    def test_keyvalue_bad_line(self):
        with pytest.raises(ManifestError, match="line 1"):
            parse_keyvalues("not a key value line")


class TestManifest:
    def test_unknown_kind(self):
        with pytest.raises(ManifestError, match="kind"):
            Manifest({"kind": "teleport", "output": "x"}, Path())

    def test_missing_required_field_named(self):
        with pytest.raises(ManifestError, match="'points'"):
            Manifest({"kind": "splitting-curve", "output": "x"}, Path())

    def test_unknown_field_named(self):
        with pytest.raises(ManifestError, match="'froop'"):
            Manifest({"kind": "splitting-curve", "output": "x",
                      "points": "5", "froop": "1"}, Path())

    def test_missing_output(self):
        with pytest.raises(ManifestError, match="output"):
            Manifest({"kind": "splitting-curve", "points": "5"}, Path())


class TestColumns:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "out.txt"
        rows = [(1.0, 2.5e-7), (3.0, -1.2e4)]
        write_columns(path, {"seed": 7, "kind": "demo"}, ("a", "b"), rows)
        prov, data = read_columns(path)
        assert prov["seed"] == "7"
        assert np.allclose(data, np.array(rows))


class TestCliRuns:
    def _run(self, args):
        return main(args)

    def test_list_experiments(self, capsys):
        assert self._run(["list-experiments"]) == 0
        out = capsys.readouterr().out
        for kind in EXPERIMENTS:
            assert kind in out

    def test_validate_and_run_splitting_curve(self, tmp_path, capsys):
        man = tmp_path / "m.txt"
        out = tmp_path / "curve.txt"
        man.write_text(f"kind = splitting-curve\npoints = 11\n"
                       f"output = {out}\n")
        assert self._run(["validate", str(man)]) == 0
        assert self._run(["run", str(man)]) == 0
        prov, data = read_columns(out)
        assert prov["points"] == "11"
        assert data.shape == (11, 3)
        # deterministic re-run produces identical bytes
        first = out.read_bytes()
        assert self._run(["run", str(man)]) == 0
        assert out.read_bytes() == first

    def test_header_reconstructs_manifest(self, tmp_path):
        man = tmp_path / "m.txt"
        out1 = tmp_path / "a.txt"
        out2 = tmp_path / "b.txt"
        man.write_text(f"kind = splitting-curve\npoints = 7\n"
                       f"dE_min = -5 kV/m\noutput = {out1}\n")
        assert main(["run", str(man)]) == 0
        prov, data1 = read_columns(out1)
        # rebuild a manifest from the recorded provenance
        keys = ("kind", "points", "dE_min")
        man2 = tmp_path / "m2.txt"
        man2.write_text("".join(f"{k} = {prov[k]}\n" for k in keys)
                        + f"output = {out2}\n")
        assert main(["run", str(man2)]) == 0
        _, data2 = read_columns(out2)
        assert np.array_equal(data1, data2)

    def test_invalid_manifest_exit_code(self, tmp_path, capsys):
        man = tmp_path / "bad.txt"
        man.write_text("kind = nonsense\noutput = x\n")
        assert self._run(["validate", str(man)]) == 2
        assert "manifest error" in capsys.readouterr().err

    def test_non_integer_field_exit_code(self, tmp_path, capsys):
        man = tmp_path / "m.txt"
        man.write_text(f"kind = splitting-curve\npoints = 2.5\n"
                       f"output = {tmp_path / 'curve.txt'}\n")
        assert self._run(["run", str(man)]) == 2
        assert "'points'" in capsys.readouterr().err

    def test_rz_noise_full_turn_runs(self, tmp_path):
        # 2pi reduces to a zero-length pulse; the run makes one full turn
        man = tmp_path / "m.txt"
        out = tmp_path / "rzn.txt"
        man.write_text(f"kind = rz-noise\nangles = 2pi\nsigmas = 10 V/m\n"
                       f"samples = 2\noutput = {out}\n")
        assert main(["run", str(man)]) == 0
        _, data = read_columns(out)
        assert data.shape == (1, 3)
        assert 0 <= data[0, 2] < 1e-2

    def test_rz_noise_just_below_a_full_turn_runs(self, tmp_path):
        # -1e-8 rad lies above the angle of the shortest pulse the duration
        # search tries; it runs as one full turn
        man = tmp_path / "m.txt"
        out = tmp_path / "rzn.txt"
        man.write_text(f"kind = rz-noise\nangles = -1e-8\nsigmas = 10 V/m\n"
                       f"samples = 2\noutput = {out}\n")
        assert main(["validate", str(man)]) == 0
        assert main(["run", str(man)]) == 0
        _, data = read_columns(out)
        assert data.shape == (1, 3)
        assert 0 <= data[0, 2] < 1e-2

    def test_rz_noise_zero_angle_exit_code(self, tmp_path, capsys):
        man = tmp_path / "m.txt"
        man.write_text(f"kind = rz-noise\nangles = 0, pi\nsigmas = 10 V/m\n"
                       f"output = {tmp_path / 'rzn.txt'}\n")
        assert self._run(["run", str(man)]) == 2
        assert "'angles'" in capsys.readouterr().err

    def test_rz_angle_curve_runs(self, tmp_path):
        man = tmp_path / "m.txt"
        out = tmp_path / "rz.txt"
        man.write_text(f"kind = rz-angle-curve\npoints = 4\nt_min = 4 ns\n"
                       f"t_max = 14 ns\noutput = {out}\n")
        assert main(["run", str(man)]) == 0
        _, data = read_columns(out)
        assert data.shape == (4, 3)

    def _hprime(self, tmp_path, name, fields=""):
        """Run an hprime-dump manifest with the given field lines; returns
        (exit code, output path)."""
        man = tmp_path / f"{name}.manifest"
        out = tmp_path / f"{name}.txt"
        man.write_text(f"kind = hprime-dump\n{fields}output = {out}\n")
        return main(["run", str(man)]), out

    def test_hprime_dump_structure(self, tmp_path):
        code, out = self._hprime(tmp_path, "hp")
        assert code == 0
        text = out.read_text()
        assert "g.dn" not in text  # labels are joined words like gdnDn
        assert len([ln for ln in data_rows(out) if ln]) == 8

    def test_hprime_dump_drive_frequency_sets_the_rows(self, tmp_path):
        # H' at the CZ plateau: the drive frequency field moves the rows
        # away from those at the idle drive frequency
        from donorspin.pulses import cphase_drive_frequency
        wE = f"{float(cphase_drive_frequency(SystemParams()))!r} rad/s"
        plateau = "dE = 2000 V/m\nEa = 40 V/m\n"
        code, driven = self._hprime(tmp_path, "driven",
                                    plateau + f"omega_E = {wE}\n")
        assert code == 0
        code, idle = self._hprime(tmp_path, "idle", plateau)
        assert code == 0
        assert data_rows(driven) != data_rows(idle)

    def test_hprime_dump_field_accepts_every_params_file_unit(self, tmp_path):
        # Ba takes the B-field units of a params file, microtesla included
        assert self._hprime(tmp_path, "uT", "Ba = 500 uT\n")[0] == 0
        assert self._hprime(tmp_path, "mT", "Ba = 0.5 mT\n")[0] == 0
        assert data_rows(tmp_path / "uT.txt") == data_rows(tmp_path / "mT.txt")

    def test_shipped_hprime_dump_reads_the_reference_device(
            self, tmp_path, monkeypatch):
        # the manifest reads device.params beside it, from any directory,
        # and writes the rows of the built-in defaults
        monkeypatch.chdir(tmp_path)
        assert main(["run", str(MANIFEST_DIR / "hprime_dump.txt")]) == 0
        shipped = tmp_path / "out" / "hprime_idle.txt"
        assert "# params_file = device.params" in shipped.read_text()
        code, defaults = self._hprime(tmp_path, "defaults")
        assert code == 0
        assert data_rows(shipped) == data_rows(defaults)

    def test_hprime_dump_bad_field_exit_code(self, tmp_path, capsys):
        assert self._hprime(tmp_path, "hp", "omega_E = fast\n")[0] == 2
        assert "'omega_E'" in capsys.readouterr().err

    def test_cli_entrypoint_subprocess(self, tmp_path):
        man = tmp_path / "m.txt"
        out = tmp_path / "hp.txt"
        man.write_text(f"kind = hprime-dump\noutput = {out}\n")
        proc = subprocess.run(
            [sys.executable, "-m", "donorspin.cli", "run", str(man)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert out.exists()

    def test_rx_noise_tiny_grid(self, tmp_path):
        man = tmp_path / "m.txt"
        out = tmp_path / "rx.txt"
        man.write_text(f"kind = rx-noise\nthetas = pi/2\nsigmas = 100 V/m\n"
                       f"samples = 4\nvariants = sweep\nseed = 5\n"
                       f"output = {out}\n")
        assert main(["run", str(man)]) == 0
        _, data = read_columns(out)
        assert data.shape == (1, 4)
        assert 0 <= data[0, 3] < 0.5

    def test_cphase_curve_tiny_grid(self, tmp_path):
        man = tmp_path / "m.txt"
        out = tmp_path / "cp.txt"
        man.write_text(f"kind = cphase-curve\npoints = 3\nt_min = 200 ns\n"
                       f"t_max = 400 ns\noutput = {out}\n")
        assert main(["run", str(man)]) == 0
        _, data = read_columns(out)
        assert data.shape == (3, 3)
        assert (np.diff(data[:, 1]) > 0).all()

    def test_cphase_curve_reports_the_cz_pulse(self, tmp_path):
        # the curve is |phi| of the same bare-frequency pulse that the CZ
        # search and scripts/cz_search.py use
        from donorspin.pulses import make_cphase_schedule
        from donorspin.twoqubit import TwoQubitLayout, cphase_angle
        man = tmp_path / "m.txt"
        out = tmp_path / "cp.txt"
        man.write_text(f"kind = cphase-curve\npoints = 2\nt_min = 200 ns\n"
                       f"t_max = 400 ns\noutput = {out}\n")
        assert main(["run", str(man)]) == 0
        _, data = read_columns(out)
        P = SystemParams()
        layout = TwoQubitLayout(params_1=P, params_2=P)
        for row, text in zip(data, ("200 ns", "400 ns")):
            T = parse_quantity(text, _TIME_UNITS, "t")
            phi = cphase_angle(layout, make_cphase_schedule(P, T)).phi
            assert abs(row[1] - abs(phi)) < 1e-12


@pytest.mark.parametrize("body, field", [
    ("kind = splitting-curve\npoints = 2.5\n", "points"),
    ("kind = rz-noise\nangles = pi\nsigmas = 10 V/m\nsamples = -3\n",
     "samples"),
    ("kind = rz-noise\nangles = pi\nsigmas = 10 V/m\nframe = effective\n",
     "frame"),
    ("kind = rx-noise\nthetas = pi/2\nsigmas = 10 V/m\nvariants = bogus\n",
     "variants"),
    ("kind = rx-noise\nthetas = pi/0\nsigmas = 10 V/m\n", "thetas"),
    ("kind = rx-noise\nthetas = 1.2.3pi\nsigmas = 10 V/m\n", "thetas"),
    ("kind = rx-noise\nthetas = --pi\nsigmas = 10 V/m\n", "thetas"),
    ("kind = rx-noise\nthetas = nan\nsigmas = 10 V/m\n", "thetas"),
    ("kind = splitting-curve\npoints = 3\ndE_min = nan\n", "dE_min"),
    ("kind = splitting-curve\npoints = 3\ndE_min = inf V/m\n", "dE_min"),
    ("kind = splitting-curve\npoints = 3\ndE_min = 1e999999 kV/m\n",
     "dE_min"),
    ("kind = rx-noise\nthetas = 0\nsigmas = 10 V/m\n", "thetas"),
    ("kind = rx-noise\nthetas = 0\nsigmas = 10 V/m\nvariants = sweep-echo\n",
     "thetas"),
    ("kind = rx-noise\nthetas = pi/2, pi\nsigmas = 10 V/m\n"
     "variants = sweep-echo\n", "thetas"),
    ("kind = rx-noise\nthetas = pi\nsigmas = 10 V/m\n"
     "variants = sweep, sweep-echo\n", "thetas"),
    ("kind = splitting-curve\npoints = 3\n"
     "params_file = no-such-dir/device.params\n", "params_file"),
    ("kind = rz-noise\nangles = ,\nsigmas = 10 V/m\n", "angles"),
    ("kind = rz-angle-curve\npoints = 2\nframe = lab-position\n", "frame"),
    ("kind = splitting-curve\npoints = 2\nseed = 1\n", "seed"),
    ("kind = cphase-curve\npoints = 2\nt_min = 5 ns\n", "t_min"),
    ("kind = cphase-curve\npoints = 2\nt_min = 400 ns\nt_max = 300 ns\n"
     "find_cz = yes\n", "t_max"),
], ids=["points", "samples", "frame", "variants", "angle-over-zero",
        "angle-two-points", "angle-two-signs", "angle-nan", "quantity-nan",
        "quantity-inf", "quantity-overflow", "rx-zero-angle",
        "sweep-echo-zero-angle", "sweep-echo-beyond-range",
        "rx-sweep-echo-beyond-range",
        "missing-params-file", "empty-list", "removed-frame", "seed",
        "cphase-shorter-than-its-ramps", "cphase-reversed-bracket"])
def test_validate_rejects_what_run_rejects(tmp_path, capsys, body, field):
    man = tmp_path / "m.txt"
    man.write_text(body + f"output = {tmp_path / 'out.txt'}\n")
    for verb in ("validate", "run"):
        assert main([verb, str(man)]) == 2
        err = capsys.readouterr().err
        assert "manifest error" in err and repr(field) in err
    assert not (tmp_path / "out.txt").exists()


@pytest.mark.parametrize("output", ["plain/hp.txt", "plain/deeper/hp.txt",
                                    "folder"])
def test_unwritable_output_rejected_at_load(tmp_path, capsys, output):
    # a path under a regular file, or a directory, cannot be written
    (tmp_path / "folder").mkdir()
    (tmp_path / "plain").write_text("")
    man = tmp_path / "m.txt"
    man.write_text(f"kind = hprime-dump\noutput = {tmp_path / output}\n")
    for verb in ("validate", "run"):
        assert main([verb, str(man)]) == 2
        err = capsys.readouterr().err
        assert "manifest error" in err and "'output'" in err


def test_run_creates_missing_output_directories(tmp_path):
    out = tmp_path / "new" / "hp.txt"
    man = tmp_path / "m.txt"
    man.write_text(f"kind = hprime-dump\noutput = {out}\n")
    assert main(["validate", str(man)]) == 0
    assert not out.parent.exists()
    assert main(["run", str(man)]) == 0
    assert out.exists()


@pytest.mark.parametrize("path", MANIFESTS, ids=lambda p: p.name)
def test_shipped_manifest_validates(path, capsys, tmp_path, monkeypatch):
    # from a directory without the manifests' out/ directory
    monkeypatch.chdir(tmp_path)
    assert main(["validate", str(path)]) == 0
    assert "manifest is valid" in capsys.readouterr().out


def test_every_field_is_set_by_a_shipped_manifest():
    # a field that only tests set is surface no shipped experiment uses
    set_fields = {kind: set() for kind in EXPERIMENTS}
    for path in MANIFESTS:
        raw = parse_keyvalues(path.read_text())
        set_fields[raw["kind"]].update(raw)
    unset = {kind: [key for key in fields if key not in set_fields[kind]]
             for kind, (_, fields) in EXPERIMENTS.items()}
    assert unset == {kind: [] for kind in EXPERIMENTS}
