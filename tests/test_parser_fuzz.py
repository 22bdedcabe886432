"""Fuzzing the input parsers: malformed input may only raise ConfigError or
DataError, never another exception.

Each strategy builds near-valid input, where every field is either a valid
value or junk, so the examples reach the checks past the first field.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from qkmeans.crosstalk import named_form_labels, parse_named_block
from qkmeans.errors import ConfigError, DataError
from qkmeans.iqdata import SCHEDULES, coupling_from_dict, load_table, model_from_dict

json_scalars = (
    st.none() | st.booleans() | st.floats() | st.text(max_size=6)
    | st.integers() | st.sampled_from([2**63, -(2**63) - 1, 10**400])
)
json_values = st.recursive(
    json_scalars,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=12,
)
pairs_of_numbers = st.lists(json_scalars, min_size=1, max_size=3) | json_values

qubit_specs = st.fixed_dictionaries(
    {"ground_center": pairs_of_numbers, "excited_center": pairs_of_numbers},
    optional={"cluster_stddev": pairs_of_numbers},
)
model_payloads = json_values | st.fixed_dictionaries(
    {
        "qubits": st.dictionaries(
            st.sampled_from(["0", "1", "-1", "1.5", "x", str(2**64)]),
            qubit_specs | json_values, max_size=3,
        ) | json_values,
    },
    optional={
        "device": json_values,
        "crosstalk": st.dictionaries(
            st.sampled_from(["0-1", "1-0", "0-0", "0-9", "a-b", "0"]),
            json_scalars, max_size=3,
        ) | json_values,
    },
)
coupling_payloads = json_values | st.fixed_dictionaries(
    {"edges": st.lists(st.lists(json_scalars, max_size=3) | json_values, max_size=3) | json_values},
    optional={"device": json_values, "qubits": json_values},
)


def _either(valid, junk=st.text(max_size=6)):
    return st.sampled_from(valid) | junk


shot_rows = st.tuples(
    _either(["0-1", "1-2", "1-0", "0-1-2"]),
    _either(["0", "1", "2"]),
    _either(list(SCHEDULES)),
    st.integers(-(2**70), 2**70).map(str) | st.text(max_size=4),
    st.floats().map(repr) | st.text(max_size=4),
    st.floats().map(repr) | st.text(max_size=4),
).map(",".join)
shot_files = st.binary(max_size=40) | st.builds(
    lambda device, header, rows: "\n".join([device, header, *rows]).encode("utf-8"),
    _either(["# device: chip", "#", ""]),
    _either(["pair,qubit,schedule,shot,i,q"]),
    st.lists(shot_rows | st.text(max_size=12), max_size=6),
)

named_blocks = st.builds(
    lambda header, rows: [header, *rows],
    st.lists(_either(["0-1", "1-2", "2-1", "-1-2"]), max_size=3).map(
        lambda tokens: ",".join(["form", *tokens])
    ) | st.text(max_size=10),
    st.lists(
        st.builds(
            lambda label, values: f'"{label}",' + ",".join(values),
            _either(list(named_form_labels())),
            st.lists(st.floats().map(repr) | st.text(max_size=4), max_size=3),
        ) | st.text(max_size=10),
        max_size=9,
    ),
)

PARSE_ERRORS = (ConfigError, DataError)


@given(model_payloads)
def test_model_from_dict_raises_only_parse_errors(payload):
    try:
        model_from_dict(payload)
    except PARSE_ERRORS:
        pass


@given(coupling_payloads)
def test_coupling_from_dict_raises_only_parse_errors(payload):
    try:
        coupling_from_dict(payload)
    except PARSE_ERRORS:
        pass


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(shot_files)
def test_load_table_raises_only_parse_errors(tmp_path, content):
    path = tmp_path / "shots.csv"
    path.write_bytes(content)
    try:
        load_table(path)
    except PARSE_ERRORS:
        pass


@given(named_blocks)
def test_parse_named_block_raises_only_parse_errors(lines):
    try:
        parse_named_block(lines)
    except PARSE_ERRORS:
        pass


@pytest.mark.parametrize("payload, parser", [
    ({"qubits": {"0": {"ground_center": "ab", "excited_center": [1, 1]}}}, model_from_dict),
    ({"qubits": {"0": {"ground_center": [10**400, 0], "excited_center": [1, 1]}}}, model_from_dict),
    ({"qubits": {"x": {"ground_center": [0, 0], "excited_center": [1, 1]}}}, model_from_dict),
    ({"edges": [[0, 1, 2]]}, coupling_from_dict),
    ({"edges": [[0, float("inf")]]}, coupling_from_dict),
])
def test_known_malformed_configs_are_config_errors(payload, parser):
    with pytest.raises(ConfigError, match="malformed"):
        parser(payload)
