"""Sectioned key-value configuration for the toolkit.

The file format is INI-style with `#` comments. Every key carries its unit
in its name (field_tesla, td_minutes, ...) to keep the minutes/seconds and
mT/T traps out of config files. All keys have documented defaults; defaults
that are literature values or model placeholders rather than setup-specific
numbers are flagged as such and echoed on request. The computed B1 is
`params.hartmann_hahn_b1`: this module loads no shot model and no numpy.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from pathlib import Path

from .params import (ConfigError, IseSequenceParams, KineticsParams, MagneticFieldSetting, TripletParameters,
                     ValidationError, hartmann_hahn_b1)

_LITERATURE = "pentacene literature value, not setup-specific"

# (section, key) -> (default, provenance note). This table is the only
# declaration of a key and of its default: assembly walks it section by
# section in row order, which is also the echo order; the [triplet] and
# [field] rows follow the positional fields of their types. A None default
# marks a key computed from other keys; a string default is a path. The
# provenance strings are echoed verbatim for every key the file does not set.
CONFIG_REFERENCE: dict[tuple[str, str], tuple[object, str]] = {
    ("triplet", "d_mhz"): (1395.0, _LITERATURE),
    ("triplet", "e_mhz"): (-50.0, _LITERATURE),
    ("triplet", "population_x"): (0.76, _LITERATURE),
    ("triplet", "population_y"): (0.16, _LITERATURE),
    ("triplet", "population_z"): (0.08, _LITERATURE),
    ("field", "field_tesla"): (0.64, "reference setup default"),
    ("field", "theta_rad"): (0.0, "free orientation parameter, default along the splitting z axis"),
    ("field", "phi_rad"): (0.0, "free orientation parameter"),
    ("sequence", "b1_amplitude_mt"): (None, "computed Hartmann-Hahn match to the static field"),
    ("sequence", "microwave_frequency_ghz"): (17.2, "reference setup default"),
    ("sequence", "microwave_width_us"): (20.0, "reference setup default"),
    ("sequence", "laser_width_us"): (1.0, "reference setup default"),
    ("sequence", "microwave_delay_us"): (2.0, "model placeholder, not a measured value"),
    ("sequence", "repetition_rate_hz"): (1000.0, "reference setup default"),
    ("sequence", "sweep_span_mt"): (3.0, "model placeholder, not a measured value"),
    ("kinetics", "pe"): (0.826, "reference fit default"),
    ("kinetics", "td_minutes"): (20.2, "reference fit default"),
    ("kinetics", "tr_minutes"): (57.1, "reference fit default"),
    ("kinetics", "pth"): (0.0, "thermal floor negligible at the reference conditions"),
    ("general", "output_dir"): (".", "current directory"),
    ("general", "temperature_kelvin"): (295.0, "nominal room temperature"),
}


@dataclass(frozen=True)
class ToolkitConfig:
    """Validated toolkit configuration assembled from a config file."""

    triplet: TripletParameters
    field: MagneticFieldSetting
    sequence: IseSequenceParams
    kinetics: KineticsParams
    temperature_kelvin: float
    output_dir: Path

    def __post_init__(self):
        if not 0.0 < self.temperature_kelvin < math.inf:
            raise ConfigError(
                f"temperature_kelvin must be finite and positive, got {self.temperature_kelvin}"
            )


def default_config(*, echo=None) -> ToolkitConfig:
    """Config with every key at its documented default, each echoed when echo is given."""
    return _assemble({}, echo)


def parse_config(path, *, echo=None) -> ToolkitConfig:
    """Read and validate a config file.

    Values are read as written, past any leading UTF-8 byte-order mark.
    Unknown sections or keys, [DEFAULT] among them, are rejected (usually
    typos). When echo is given (print, say), it receives one line per key
    that fell back to its default, with its provenance note; None is silent.
    """
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    # values are read as written (no % interpolation), and the defaults section is
    # named "", which no [header] can spell, so [DEFAULT] is one more unknown section
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None, default_section="")
    try:
        parser.read_string(p.read_text(encoding="utf-8-sig"), source=str(p))
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"malformed config: {p} is not UTF-8 text ({exc})") from None

    raw: dict[tuple[str, str], str] = {}
    for section in parser.sections():
        for key, value in parser.items(section):
            if (section, key) not in CONFIG_REFERENCE:
                raise ConfigError(f"unknown config key [{section}] {key}")
            raw[(section, key)] = value
    return _assemble(raw, echo)


def _assemble(raw, echo) -> ToolkitConfig:
    def section(name: str, computed=None) -> dict:
        """The section's keys in table order: the file's value, else the default
        (computed for a None default), echoed unless echo is None."""
        values = {}
        for (sec, key), (default, provenance) in CONFIG_REFERENCE.items():
            if sec != name:
                continue
            if (sec, key) in raw:
                value = raw[(sec, key)]
            else:
                value = computed if default is None else default
                if echo is not None:
                    echo(f"# default [{sec}] {key} = {value} ({provenance})")
            if isinstance(default, str) and not value:  # Path("") would be the working directory
                raise ConfigError(f"[{sec}] {key} is empty; give a path or omit the key")
            try:
                values[key] = Path(value) if isinstance(default, str) else float(value)
            except ValueError:
                raise ConfigError(f"[{sec}] {key}: expected a number, got {value!r}") from None
        return values

    try:
        d_mhz, e_mhz, *populations = section("triplet").values()
        triplet = TripletParameters(d_mhz, e_mhz, tuple(populations))
        field = MagneticFieldSetting(*section("field").values())
        # computed eagerly, so a zero or subnormal field fails here even when b1 is set
        b1 = hartmann_hahn_b1(field.magnitude_tesla)
        sequence = IseSequenceParams(
            **section("sequence", computed=b1), static_field_tesla=field.magnitude_tesla
        )
        kinetics = KineticsParams(**section("kinetics"))
    except ValidationError as exc:
        raise ConfigError(str(exc)) from exc
    return ToolkitConfig(triplet, field, sequence, kinetics, **section("general"))
