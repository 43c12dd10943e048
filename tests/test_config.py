import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from tripletdnp import ConfigError, parse_config
from tripletdnp.config import CONFIG_REFERENCE, default_config

NUMERIC_KEYS = [k for k, (default, _) in CONFIG_REFERENCE.items() if not isinstance(default, str)]

# one line of text (no control or line-separator characters), rich in the characters
# that configparser's interpolation would read, or any float spelled as Python prints it
ONE_LINE_VALUES = st.one_of(
    st.text(st.one_of(st.sampled_from("%()$s{}:;#=[]"), st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")))),
    st.floats().map(repr),
)


def write_cfg(tmp_path, text):
    p = tmp_path / "toolkit.cfg"
    p.write_text(text)
    return p


def test_minimal_config_applies_defaults(tmp_path):
    notes = []
    cfg = parse_config(
        write_cfg(tmp_path, "[field]\nfield_tesla = 0.5\n"), echo=notes.append
    )
    assert cfg.field.magnitude_tesla == 0.5
    assert cfg.triplet.d_mhz == 1395.0
    assert cfg.triplet.zf_populations == (0.76, 0.16, 0.08)
    assert cfg.kinetics.td_minutes == 20.2
    assert cfg.sequence.static_field_tesla == 0.5  # follows the field section
    assert cfg.temperature_kelvin == 295.0
    # every defaulted key is echoed with a provenance note
    assert any("d_mhz" in n and "literature" in n for n in notes)
    assert any("sweep_span_mt" in n and "placeholder" in n for n in notes)
    assert all(n.startswith("# default") for n in notes)


def test_default_b1_is_hartmann_hahn_match(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, "[field]\nfield_tesla = 0.64\n"))
    assert cfg.sequence.b1_amplitude_mt == pytest.approx(0.9723238976767089, rel=1e-12)


def test_population_sum_violation_is_named(tmp_path):
    text = "[triplet]\npopulation_x = 0.5\npopulation_y = 0.3\npopulation_z = 0.1\n"
    with pytest.raises(ConfigError, match="sum to 1"):
        parse_config(write_cfg(tmp_path, text))


def test_reference_experiment_config_accepted(tmp_path):
    text = """
[field]
field_tesla = 0.64

[sequence]
microwave_frequency_ghz = 17.2
microwave_width_us = 20.0
laser_width_us = 1.0
repetition_rate_hz = 1000.0

[kinetics]
pe = 0.826
td_minutes = 20.2
tr_minutes = 57.1

[general]
temperature_kelvin = 295.0
"""
    cfg = parse_config(write_cfg(tmp_path, text))
    assert cfg.sequence.microwave_frequency_ghz == 17.2
    assert cfg.sequence.microwave_width_us == 20.0
    assert cfg.sequence.laser_width_us == 1.0
    assert cfg.sequence.repetition_rate_hz == 1000.0
    assert cfg.kinetics.pe == 0.826


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown config key"):
        parse_config(write_cfg(tmp_path, "[field]\nfield_teslas = 0.5\n"))


def test_non_numeric_value_names_key(tmp_path):
    with pytest.raises(ConfigError, match=r"\[field\] field_tesla"):
        parse_config(write_cfg(tmp_path, "[field]\nfield_tesla = lots\n"))


def test_malformed_syntax_reported(tmp_path):
    with pytest.raises(ConfigError, match="malformed"):
        parse_config(write_cfg(tmp_path, "field_tesla = 0.5\n"))  # key before any section


def test_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        parse_config(tmp_path / "nope.cfg")


def test_inline_comments_allowed(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, "[field]\nfield_tesla = 0.4  # tesla\n"))
    assert cfg.field.magnitude_tesla == 0.4


def test_default_config_matches_empty_file(tmp_path):
    assert default_config() == parse_config(write_cfg(tmp_path, ""))


def test_without_echo_nothing_is_printed(tmp_path, capsys):
    parse_config(write_cfg(tmp_path, "[field]\nfield_tesla = 0.5\n"))
    default_config()
    assert capsys.readouterr() == ("", "")


def test_verbose_echo_follows_table_order():
    notes = []
    default_config(echo=notes.append)
    echoed = [tuple(n.split("[", 1)[1].split(" = ")[0].split("] ")) for n in notes]
    assert echoed == list(CONFIG_REFERENCE)


@pytest.mark.parametrize("section, key", NUMERIC_KEYS)
def test_every_numeric_key_rejects_non_numbers(tmp_path, section, key):
    with pytest.raises(ConfigError, match=rf"\[{section}\] {key}: expected a number, got 'lots'"):
        parse_config(write_cfg(tmp_path, f"[{section}]\n{key} = lots\n"))


def test_every_key_set_to_its_default_matches_default_config(tmp_path):
    cfg = default_config()
    values = {**{k: default for k, (default, _) in CONFIG_REFERENCE.items()},
              ("sequence", "b1_amplitude_mt"): cfg.sequence.b1_amplitude_mt}
    sections = dict.fromkeys(section for section, _ in CONFIG_REFERENCE)
    text = "".join(
        f"[{s}]\n" + "".join(f"{k} = {v}\n" for (sec, k), v in values.items() if sec == s)
        for s in sections
    )
    assert parse_config(write_cfg(tmp_path, text)) == cfg


def test_percent_is_read_as_written(tmp_path):
    with pytest.raises(ConfigError, match=r"^\[kinetics\] pe: expected a number, got '5%'$"):
        parse_config(write_cfg(tmp_path, "[kinetics]\npe = 5%\n"))
    cfg = parse_config(write_cfg(tmp_path, "[general]\noutput_dir = a%%b/%(pe)s\n"))
    assert cfg.output_dir == Path("a%%b/%(pe)s")


@pytest.mark.parametrize("text", ["[DEFAULT]\npe = 0.5\n", "[kinetics]\ntd_minutes = 20\n[DEFAULT]\npe = 0.5\n"])
def test_default_section_is_an_unknown_section(tmp_path, text):
    with pytest.raises(ConfigError, match=r"^unknown config key \[DEFAULT\] pe$"):
        parse_config(write_cfg(tmp_path, text))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.dictionaries(
        st.one_of(
            st.sampled_from(list(CONFIG_REFERENCE)),
            st.sampled_from([key for _, key in CONFIG_REFERENCE]).map(lambda key: ("DEFAULT", key)),
        ),
        ONE_LINE_VALUES,
        min_size=1,
        max_size=4,
    )
)
def test_any_value_gives_a_config_or_a_config_error(entries):
    """Any key of the table, or the same key under [DEFAULT], set to any one-line
    value: parse_config returns a config or raises ConfigError, nothing else."""
    sections = {}
    for (section, key), value in entries.items():
        sections.setdefault(section, []).append(f"{key} = {value}\n")
    text = "".join(f"[{section}]\n" + "".join(lines) for section, lines in sections.items())
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "toolkit.cfg"
        path.write_text(text, encoding="utf-8")
        try:
            parse_config(path)
        except ConfigError:
            pass


def test_leading_byte_order_mark_is_skipped(tmp_path):
    text = "[kinetics]\npe = 0.5\n\n[general]\noutput_dir = out\n"
    p = tmp_path / "marked.cfg"
    p.write_bytes(b"\xef\xbb\xbf" + text.encode())
    assert parse_config(p) == parse_config(write_cfg(tmp_path, text))
    assert parse_config(p).kinetics.pe == 0.5
