"""Sectioned key-value configuration for the toolkit.

The file format is INI-style with `#` comments. Every key carries its unit
in its name (field_tesla, td_minutes, ...) to keep the minutes/seconds and
mT/T traps out of config files. All keys have documented defaults; defaults
that are literature values or model placeholders rather than
setup-specific numbers are flagged as such and echoed in verbose mode.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from pathlib import Path

from .constants import (
    DEFAULT_TEMPERATURE_K,
    PENTACENE_D_MHZ,
    PENTACENE_E_MHZ,
    PENTACENE_ZF_POPULATIONS,
)
from .errors import ConfigError, ValidationError
from .ise import IseSequenceParams, hartmann_hahn_b1
from .kinetics import KineticsParams
from .tripletspin import MagneticFieldSetting, TripletParameters

__all__ = ["ToolkitConfig", "parse_config", "default_config", "CONFIG_REFERENCE"]

# (section, key) -> (default, provenance note). A None default marks a key
# computed from other keys. The provenance strings are printed verbatim in
# verbose mode for every key the file does not set.
CONFIG_REFERENCE: dict[tuple[str, str], tuple[object, str]] = {
    ("triplet", "d_mhz"): (PENTACENE_D_MHZ, "pentacene literature value, not setup-specific"),
    ("triplet", "e_mhz"): (PENTACENE_E_MHZ, "pentacene literature value, not setup-specific"),
    ("triplet", "population_x"): (
        PENTACENE_ZF_POPULATIONS[0],
        "pentacene literature value, not setup-specific",
    ),
    ("triplet", "population_y"): (
        PENTACENE_ZF_POPULATIONS[1],
        "pentacene literature value, not setup-specific",
    ),
    ("triplet", "population_z"): (
        PENTACENE_ZF_POPULATIONS[2],
        "pentacene literature value, not setup-specific",
    ),
    ("field", "field_tesla"): (0.64, "reference setup default"),
    ("field", "theta_rad"): (0.0, "free orientation parameter, default along the splitting z axis"),
    ("field", "phi_rad"): (0.0, "free orientation parameter"),
    ("sequence", "microwave_frequency_ghz"): (17.2, "reference setup default"),
    ("sequence", "microwave_width_us"): (20.0, "reference setup default"),
    ("sequence", "laser_width_us"): (1.0, "reference setup default"),
    ("sequence", "microwave_delay_us"): (2.0, "model placeholder, not a measured value"),
    ("sequence", "repetition_rate_hz"): (1000.0, "reference setup default"),
    ("sequence", "sweep_span_mt"): (3.0, "model placeholder, not a measured value"),
    ("sequence", "b1_amplitude_mt"): (None, "computed Hartmann-Hahn match to the static field"),
    ("sequence", "static_field_tesla"): (None, "defaults to field.field_tesla"),
    ("kinetics", "pe"): (0.826, "reference fit default"),
    ("kinetics", "td_minutes"): (20.2, "reference fit default"),
    ("kinetics", "tr_minutes"): (57.1, "reference fit default"),
    ("kinetics", "pth"): (0.0, "thermal floor negligible at the reference conditions"),
    ("general", "temperature_kelvin"): (DEFAULT_TEMPERATURE_K, "nominal room temperature"),
    ("general", "output_dir"): (".", "current directory"),
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
        if self.temperature_kelvin <= 0.0:
            raise ConfigError(f"temperature_kelvin must be positive, got {self.temperature_kelvin}")


def default_config(verbose: bool = False, echo=print) -> ToolkitConfig:
    """Config with every key at its documented default."""
    return _assemble({}, verbose=verbose, echo=echo)


def parse_config(path, verbose: bool = False, echo=print) -> ToolkitConfig:
    """Read and validate a config file.

    Unknown sections or keys are rejected (they are usually typos). In
    verbose mode every key that fell back to its default is echoed with its
    provenance note.
    """
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        parser.read_string(p.read_text(), source=str(p))
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc

    raw: dict[tuple[str, str], str] = {}
    for section in parser.sections():
        for key, value in parser.items(section):
            if (section, key) not in CONFIG_REFERENCE:
                raise ConfigError(f"unknown config key [{section}] {key}")
            raw[(section, key)] = value
    return _assemble(raw, verbose=verbose, echo=echo)


def _assemble(raw, verbose: bool, echo) -> ToolkitConfig:
    def get(section: str, key: str, computed=None, convert=float):
        """The file's value, else the default (computed for derived keys), echoed when verbose."""
        if (section, key) in raw:
            text = raw[(section, key)]
            try:
                return convert(text)
            except ValueError:
                raise ConfigError(f"[{section}] {key}: expected a number, got {text!r}") from None
        default, provenance = CONFIG_REFERENCE[(section, key)]
        value = default if computed is None else computed
        if verbose:
            echo(f"# default [{section}] {key} = {value} ({provenance})")
        return convert(value)

    try:
        triplet = TripletParameters(
            d_mhz=get("triplet", "d_mhz"),
            e_mhz=get("triplet", "e_mhz"),
            zf_populations=(
                get("triplet", "population_x"),
                get("triplet", "population_y"),
                get("triplet", "population_z"),
            ),
        )
        field = MagneticFieldSetting(
            magnitude_tesla=get("field", "field_tesla"),
            theta_rad=get("field", "theta_rad"),
            phi_rad=get("field", "phi_rad"),
        )
        static_field = get("sequence", "static_field_tesla", computed=field.magnitude_tesla)
        b1 = get(
            "sequence",
            "b1_amplitude_mt",
            computed=hartmann_hahn_b1(static_field) if static_field > 0 else 1.0,
        )
        sequence = IseSequenceParams(
            microwave_frequency_ghz=get("sequence", "microwave_frequency_ghz"),
            microwave_width_us=get("sequence", "microwave_width_us"),
            laser_width_us=get("sequence", "laser_width_us"),
            microwave_delay_us=get("sequence", "microwave_delay_us"),
            repetition_rate_hz=get("sequence", "repetition_rate_hz"),
            sweep_span_mt=get("sequence", "sweep_span_mt"),
            b1_amplitude_mt=b1,
            static_field_tesla=static_field,
        )
        kinetics = KineticsParams(
            pe=get("kinetics", "pe"),
            td_minutes=get("kinetics", "td_minutes"),
            tr_minutes=get("kinetics", "tr_minutes"),
            pth=get("kinetics", "pth"),
        )
    except ValidationError as exc:
        raise ConfigError(str(exc)) from exc

    return ToolkitConfig(
        triplet=triplet,
        field=field,
        sequence=sequence,
        kinetics=kinetics,
        # keyword order is echo order: output_dir is echoed before temperature_kelvin
        output_dir=get("general", "output_dir", convert=Path),
        temperature_kelvin=get("general", "temperature_kelvin"),
    )
