"""Scenario defaults, validation messages, and text round-tripping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stcdma.errors import ScenarioError
from stcdma.scenario import (
    ALGORITHMS,
    Scenario,
    parse_scenario,
    parse_scenario_file,
    serialize_scenario,
)


def test_defaults_describe_reference_system():
    scn = Scenario().validate()
    assert scn.gain == 32
    assert scn.users == 8
    assert scn.n_paths == 6
    assert scn.snr_db == 15.0
    assert scn.packet_symbols == 1500 or scn.packet_symbols % 2 == 0
    assert scn.tx_antennas == 2
    assert scn.blocks * 2 == scn.packet_symbols


def test_empty_document_gives_defaults():
    assert parse_scenario("") == Scenario()


def test_round_trip_defaults_and_modified():
    scn = Scenario().validate()
    assert parse_scenario(serialize_scenario(scn)) == scn
    scn2 = scn.replace(
        snr_db=7.5,
        algorithms=("ccm-exact", "trained-lms"),
        normalize_steps=True,
        doppler=0.0005,
        ridge=0.0,
    )
    assert parse_scenario(serialize_scenario(scn2)) == scn2


@settings(max_examples=30, deadline=None)
@given(
    snr=st.floats(min_value=-5.0, max_value=25.0, allow_nan=False),
    users=st.integers(min_value=1, max_value=16),
    packet=st.integers(min_value=1, max_value=500),
    algs=st.lists(st.sampled_from(ALGORITHMS), min_size=1, max_size=3, unique=True),
)
def test_round_trip_random_scenarios(snr, users, packet, algs):
    scn = Scenario(
        snr_db=snr, users=users, packet_symbols=2 * packet, algorithms=tuple(algs),
        ber_skip=0,
    ).validate()
    assert parse_scenario(serialize_scenario(scn)) == scn


def test_spaces_and_comments_tolerated():
    scn = parse_scenario(
        "# reference point\n"
        "snr_db = 15\n"
        "  users=4   # light load\n"
        "\n"
        "algorithms = ccm-sg, cmv-sg\n"
    )
    assert scn.snr_db == 15.0
    assert scn.users == 4
    assert scn.algorithms == ("ccm-sg", "cmv-sg")


def test_unknown_key_reports_key_and_line():
    with pytest.raises(ScenarioError) as err:
        parse_scenario("users = 4\nstep = 0.1\n")
    assert "step" in str(err.value)
    assert "2" in str(err.value)


def test_duplicate_key_rejected():
    with pytest.raises(ScenarioError) as err:
        parse_scenario("users = 4\nusers = 5\n")
    assert "duplicate" in str(err.value)


def test_missing_equals_rejected():
    with pytest.raises(ScenarioError):
        parse_scenario("users 4\n")


def test_bad_value_types_report_key():
    with pytest.raises(ScenarioError) as err:
        parse_scenario("users = four\n")
    assert "users" in str(err.value)
    with pytest.raises(ScenarioError):
        parse_scenario("normalize_steps = maybe\n")


@pytest.mark.parametrize(
    "field, value",
    [
        ("users", 0),
        ("gain", 0),
        ("gain", 31),
        ("packet_symbols", 3),
        ("amplitude", 0.0),
        ("tx_antennas", 3),
        ("rx_antennas", 0),
        ("combiner", "sum"),
        ("spreading_scheme", "walsh"),
        ("channel_profile", "exponential"),
        ("fading", "rician"),
        ("doppler", -0.1),
        ("algorithms", ("zf",)),
        ("algorithms", ("ccm-sg", "ccm-sg", "cmv-sg")),
        ("channel_estimator", "pilots"),
        ("subspace_power", 0),
        ("estimator_refresh", 0),
        ("filter_refresh", 0),
        ("step_ccm", 0.0),
        ("psi_forgetting", 0.0),
        ("cov_forgetting", 1.5),
        ("ridge", -1e-9),
        ("ber_skip", 1500),
        ("extra_users", -1),
        ("master_seed", -1),
        ("code_seed", -1),
        ("snr_db", float("nan")),
        ("snr_db", float("inf")),
        ("snr_db", float("-inf")),
        ("doppler", float("nan")),
        ("doppler", float("inf")),
        ("amplitude", float("inf")),
        ("power_sigma_db", float("nan")),
        ("power_sigma_db_extra", float("-inf")),
        ("nu", float("nan")),
        ("step_channel", float("inf")),
        ("ridge", float("inf")),
        ("psi_forgetting", float("nan")),
    ],
)
def test_validate_rejects_and_names_field(field, value):
    scn = Scenario(**{field: value})
    with pytest.raises(ScenarioError) as err:
        scn.validate()
    assert field in str(err.value)


def test_extra_users_entry_must_be_block_aligned():
    with pytest.raises(ScenarioError) as err:
        Scenario(extra_users=2, extra_users_at=101).validate()
    assert "extra_users_at" in str(err.value)
    Scenario(extra_users=2, extra_users_at=100).validate()


def test_overload_warns_but_passes():
    with pytest.warns(RuntimeWarning):
        Scenario(gain=8, users=6, extra_users=4, extra_users_at=100).validate()


def test_noise_variance_tracks_total_transmit_power():
    two = Scenario(snr_db=10.0, amplitude=1.0, tx_antennas=2)
    one = Scenario(snr_db=10.0, amplitude=np.sqrt(2.0), tx_antennas=1)
    assert np.isclose(two.noise_variance(), 2.0 / 10.0)
    assert np.isclose(one.noise_variance(), two.noise_variance())
    assert np.isclose(Scenario(snr_db=0.0, tx_antennas=2).noise_variance(), 2.0)


def test_replace_returns_new_validated_copy():
    scn = Scenario()
    other = scn.replace(snr_db=3.0)
    assert other.snr_db == 3.0
    assert scn.snr_db == 15.0


def test_parse_scenario_file(tmp_path):
    path = tmp_path / "case.cfg"
    path.write_text("snr_db = 9\nusers = 2\n", encoding="utf-8")
    scn = parse_scenario_file(path)
    assert scn.snr_db == 9.0
    assert scn.users == 2
