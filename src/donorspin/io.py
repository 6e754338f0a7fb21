"""Key-value text formats: parameter files, experiment manifests, and
columnar output with a provenance header.

Values carry explicit units (e.g. ``hyperfine_A = 117 MHz``); frequencies
are converted to angular rad/s on ingestion. Output headers are ``# key =
value`` lines and round-trip through the same parser.
"""
from __future__ import annotations

import math
import re

import numpy as np

from .model import TWO_PI, SystemParams

# a unit is (power of ten, factor): the value is scaled by the power of
# ten in one correctly rounded operation, a division by an exact power for
# a sub-unit (15 nm is 15 / 1e9 m, the literal 15e-9), then multiplied by
# the factor (2 pi for angular frequencies, as in TWO_PI * 117e6)
_FREQ_UNITS = {"hz": (0, TWO_PI), "khz": (3, TWO_PI), "mhz": (6, TWO_PI),
               "ghz": (9, TWO_PI), "rad/s": (0, 1.0)}
_GYRO_UNITS = {"hz/t": (0, TWO_PI), "khz/t": (3, TWO_PI),
               "mhz/t": (6, TWO_PI), "ghz/t": (9, TWO_PI), "rad/s/t": (0, 1.0)}
_LENGTH_UNITS = {"m": (0, 1.0), "mm": (-3, 1.0), "um": (-6, 1.0),
                 "nm": (-9, 1.0)}
_TIME_UNITS = {"s": (0, 1.0), "ms": (-3, 1.0), "us": (-6, 1.0),
               "ns": (-9, 1.0), "ps": (-12, 1.0)}
_EFIELD_UNITS = {"v/m": (0, 1.0), "kv/m": (3, 1.0), "mv/m": (-3, 1.0)}
_BFIELD_UNITS = {"t": (0, 1.0), "mt": (-3, 1.0), "ut": (-6, 1.0)}

PARAM_UNITS = {
    "hyperfine_A": _FREQ_UNITS,
    "gamma_e": _GYRO_UNITS,
    "gamma_n": _GYRO_UNITS,
    "delta_gamma": None,
    "donor_depth_d": _LENGTH_UNITS,
    "B0": _BFIELD_UNITS,
    "Vt": _FREQ_UNITS,
    "dE_idle": _EFIELD_UNITS,
}


class ManifestError(ValueError):
    """A manifest or parameter file failed validation."""


def parse_keyvalues(text: str) -> dict:
    """Parse ``key = value`` lines; '#' starts a comment."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ManifestError(f"line {lineno}: expected 'key = value', "
                                f"got {raw!r}")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def _finite(value: float, text: str, field: str) -> float:
    if not math.isfinite(value):
        raise ManifestError(f"field {field!r}: {text!r} is not a finite "
                            "number")
    return value


def parse_quantity(text: str, units: dict | None, field: str) -> float:
    """Parse a finite number with an optional unit token."""
    parts = text.split()
    try:
        number, *unit = parts
        value = float(number)
    except ValueError as exc:
        raise ManifestError(f"field {field!r}: cannot parse number from "
                            f"{text!r}") from exc
    if not unit:
        return _finite(value, text, field)
    if units is None:
        raise ManifestError(f"field {field!r} is dimensionless but got unit "
                            f"{unit[0]!r}")
    if len(unit) > 1 or unit[0].lower() not in units:
        raise ManifestError(f"field {field!r}: unknown unit {' '.join(unit)!r} "
                            f"(expected one of {sorted(units)})")
    power, factor = units[unit[0].lower()]
    scaled = value * 10.0**power if power >= 0 else value / 10.0**-power
    return _finite(scaled * factor, text, field)


def parse_angle(text: str, field: str) -> float:
    """Finite angles in rad; accepts 'pi', '-pi/4', '3pi/4', '0.5 pi' and
    degrees."""
    t = text.strip().lower().replace(" ", "")
    m = re.fullmatch(r"([+-]?[\d.e+-]*)\*?pi(?:/([\d.]+))?", t)
    try:
        if t.endswith("deg"):
            value = float(t[:-3]) * math.pi / 180
        elif m:
            num = m.group(1)
            sign_only = num in ("", "+", "-")
            value = float(num + "1") if sign_only else float(num)
            if m.group(2):
                value /= float(m.group(2))
            value *= math.pi
        else:
            value = float(t)
    except (ValueError, ZeroDivisionError) as exc:
        raise ManifestError(f"field {field!r}: cannot parse angle "
                            f"{text!r}") from exc
    return _finite(value, text, field)


def parse_list(text: str, item_parser, field: str):
    """Comma-separated items, at least one."""
    items = [item_parser(part.strip(), field) for part in text.split(",")
             if part.strip()]
    if not items:
        raise ManifestError(f"field {field!r}: expected at least one item, "
                            f"got {text!r}")
    return items


def load_params(path: str) -> SystemParams:
    """Build SystemParams from a parameter file."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ManifestError(f"field 'params_file': cannot read {path!r} "
                            f"({exc.strerror})") from exc
    kwargs = {}
    for key, value in parse_keyvalues(text).items():
        if key not in PARAM_UNITS:
            raise ManifestError(f"unknown parameter {key!r} (expected one of "
                                f"{sorted(PARAM_UNITS)})")
        if key == "Vt" and value.lower() == "auto":
            continue
        kwargs[key] = parse_quantity(value, PARAM_UNITS[key], key)
    try:
        return SystemParams(**kwargs)
    except ValueError as exc:
        raise ManifestError(f"params file {path!r}: {exc}") from exc


def format_params(params: SystemParams) -> dict:
    """Conventional-unit view of SystemParams for provenance headers."""
    return {
        "hyperfine_A": f"{params.hyperfine_A / TWO_PI / 1e6:.9g} MHz",
        "gamma_e": f"{params.gamma_e / TWO_PI / 1e9:.9g} GHz/T",
        "gamma_n": f"{params.gamma_n / TWO_PI / 1e6:.9g} MHz/T",
        "delta_gamma": f"{params.delta_gamma:.9g}",
        "donor_depth_d": f"{params.donor_depth_d / 1e-9:.9g} nm",
        "B0": f"{params.B0:.9g} T",
        "Vt": f"{params.Vt / TWO_PI / 1e9:.12g} GHz",
        "dE_idle": f"{params.dE_idle:.9g} V/m",
    }


def write_columns(path, provenance: dict, column_names, rows) -> None:
    """Columnar text with '# key = value' provenance lines."""
    with open(path, "w") as fh:
        for key, value in provenance.items():
            fh.write(f"# {key} = {value}\n")
        fh.write("# columns: " + " ".join(column_names) + "\n")
        for row in rows:
            fh.write(" ".join(f"{v:.12e}" for v in row) + "\n")


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
