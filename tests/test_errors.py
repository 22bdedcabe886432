"""The shared input rules: every library entry point checks its own run
parameters with ``check_number`` and its named options with
``check_choice``, every qubit and shot field goes through ``parse_index``,
every pair-token parser through ``parse_pair``, and a data file read a
piece at a time (``open_text``) reads and fails as ``read_lines`` does."""

from __future__ import annotations

import math
import numbers
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from qkmeans import errors
from qkmeans.cli import read_score_table
from qkmeans.clustering import ClusterModel, FitConfig, fit, predict, qkmeans_plusplus_init
from qkmeans.complexity import ComplexityParams, cost_curve, sweep_values
from qkmeans.crosstalk import (
    CorrelationReport, flag_crosstalk, named_form_labels, parse_named_block, pearson,
)
from qkmeans.dataset import DataSet, fit_readout_frame
from qkmeans.distance import BatchConfig, distance_matrix, encode_matrix, quantum_distance
from qkmeans.errors import (
    ConfigError,
    DataError,
    check_number,
    open_text,
    parse_index,
    parse_pair,
    read_lines,
    split_pieces,
)
from qkmeans.iqdata import (
    CouplingMap,
    _parse_block,
    default_coupling_map,
    default_readout_model,
    load_table,
    model_from_dict,
    synthesize,
)
from qkmeans.metrics import (
    ScoreReport, cross_validate, fowlkes_mallows, score_labels, stratified_folds,
)
from qkmeans.simulator import derive_seed

PARAMS = ComplexityParams(N=10, K=2, F=2, I=1)
LABELS = np.array([0, 0, 1, 1])
POINTS = DataSet(np.array([[1.0, 0.0], [0.9, 0.1], [0.1, 0.9], [0.0, 1.0]]), LABELS)

# (parameter, call with the value, lowest accepted value, integer-valued)
ENTRY_POINTS = [
    ("BatchConfig.max_circuits_per_job", lambda v: BatchConfig(max_circuits_per_job=v), 1, True),
    ("BatchConfig.shots_per_circuit", lambda v: BatchConfig(shots_per_circuit=v), 1, True),
    ("BatchConfig.seed", lambda v: BatchConfig(seed=v), 0, True),
    ("FitConfig.n_clusters", lambda v: FitConfig(n_clusters=v), 1, True),
    ("FitConfig.max_iter", lambda v: FitConfig(2, max_iter=v), 1, True),
    ("FitConfig.seed", lambda v: FitConfig(2, seed=v), 0, True),
    ("FitConfig.tol", lambda v: FitConfig(2, tol=v), 0.0, False),
    ("qkmeans_plusplus_init.n_clusters", lambda v: qkmeans_plusplus_init(POINTS, v), 1, True),
    ("qkmeans_plusplus_init.seed", lambda v: qkmeans_plusplus_init(POINTS, 2, seed=v), 0, True),
    *[
        (f"ComplexityParams.{name}", lambda v, name=name: ComplexityParams(
            **{"N": 1, "K": 1, "F": 1, "I": 1, "C": 1, name: v}), 1, True)
        for name in ("N", "K", "F", "I", "C")
    ],
    ("sweep_values.start", lambda v: sweep_values(v, 10, 3), 1, True),
    ("sweep_values.stop", lambda v: sweep_values(2, v, 3), 2, True),
    ("sweep_values.count", lambda v: sweep_values(2, 10, v), 2, True),
    ("cost_curve.values", lambda v: cost_curve(PARAMS, "samples", [v]), 1, True),
    ("synthesize.shots_per_schedule", lambda v: synthesize(
        default_readout_model(), default_coupling_map(), shots_per_schedule=v), 1, True),
    ("synthesize.seed", lambda v: synthesize(
        default_readout_model(), default_coupling_map(), 2, seed=v), 0, True),
    ("stratified_folds.n_splits", lambda v: stratified_folds(LABELS, v, 0), 2, True),
    ("stratified_folds.seed", lambda v: stratified_folds(LABELS, 2, v), 0, True),
    ("derive_seed.base", lambda v: derive_seed(v, 1), 0, True),
    ("derive_seed.index", lambda v: derive_seed(1, 2, v), 0, True),
    ("flag_crosstalk.threshold", lambda v: flag_crosstalk([], threshold=v), 0.0, False),
    ("flag_crosstalk.fidelity_gap", lambda v: flag_crosstalk([], fidelity_gap=v), 0.0, False),
]


def _rejected_values(low, integral):
    if integral:
        return [True, 2.5, "1", low - 1]
    return [True, "1", low - 0.1, math.nan, math.inf]


@pytest.mark.parametrize(
    "call, value",
    [(call, value) for _, call, low, integral in ENTRY_POINTS
     for value in _rejected_values(low, integral)],
    ids=[f"{name}={value!r}" for name, _, low, integral in ENTRY_POINTS
         for value in _rejected_values(low, integral)],
)
def test_entry_point_rejects_bad_parameter(call, value):
    with pytest.raises(ConfigError):
        call(value)


@pytest.mark.parametrize("call, low", [(call, low) for _, call, low, _ in ENTRY_POINTS],
                         ids=[name for name, *_ in ENTRY_POINTS])
def test_entry_point_accepts_its_bound(call, low):
    call(low)


# (parameter, call with the value, highest accepted value)
UPPER_BOUNDS = [
    ("BatchConfig.shots_per_circuit", lambda v: BatchConfig(shots_per_circuit=v), 2**53),
    ("sweep_values.stop", lambda v: sweep_values(2, v, 3), 2**53),
    ("sweep_values.count", lambda v: sweep_values(2, 10, v), 2**20),
]


@pytest.mark.parametrize("call, high", [(call, high) for _, call, high in UPPER_BOUNDS],
                         ids=[name for name, *_ in UPPER_BOUNDS])
def test_entry_point_rejects_past_its_upper_bound(call, high):
    with pytest.raises(ConfigError, match=r"must be <= 2\*\*"):
        call(high + 1)
    call(high)


# (case, call): bad data given to a library entry point
BAD_DATA = [
    ("quantum_distance of empty vectors", lambda: quantum_distance([], [])),
    ("distance_matrix on zero features", lambda: distance_matrix(np.zeros((3, 0)), np.zeros((2, 0)))),
    ("quantum fit on zero features", lambda: fit(DataSet(np.zeros((4, 0)), LABELS), FitConfig(2))),
    ("classical fit on zero features", lambda: fit(
        DataSet(np.zeros((4, 0)), LABELS), FitConfig(2, distance_mode="classical_euclidean"))),
    ("classical qkmeans_plusplus_init on zero features", lambda: qkmeans_plusplus_init(
        DataSet(np.zeros((4, 0)), LABELS), 2, "classical_euclidean")),
    ("classical predict on zero features", lambda: predict(
        ClusterModel(np.zeros((2, 0)), [0, 1], (), True), DataSet(np.zeros((4, 0)), LABELS),
        "classical_euclidean")),
    ("score_labels on a negative label", lambda: score_labels("fidelity", [0, -1], [0, 1])),
    ("score_labels on non-integer labels", lambda: score_labels("fm", [0.5, 1.0], [0, 1])),
    ("score_labels on empty labels", lambda: score_labels("fidelity", [], [])),
    ("score_labels on unequal lengths", lambda: score_labels("fm", [0, 1], [0])),
    ("fowlkes_mallows on one point", lambda: fowlkes_mallows([0], [0])),
    ("stratified_folds on empty labels", lambda: stratified_folds(np.array([], dtype=np.int64), 2, 0)),
    ("qkmeans_plusplus_init with N < K", lambda: qkmeans_plusplus_init(POINTS, 5)),
    ("fit with N < K", lambda: fit(POINTS, FitConfig(5))),
    ("fit on an empty dataset", lambda: fit(DataSet(np.zeros((0, 2)), LABELS[:0]), FitConfig(2))),
    ("DataSet of 1-D features", lambda: DataSet(np.zeros(3), [0, 0, 0])),
    ("DataSet of float labels", lambda: DataSet(np.zeros((2, 2)), [0.0, 1.0])),
    ("DataSet with one label for two rows", lambda: DataSet(np.zeros((2, 2)), [0])),
    ("ReadoutFrame.apply on three features",
     lambda: fit_readout_frame(POINTS.features).apply(np.zeros((2, 3)))),
    ("fit_readout_frame on one point", lambda: fit_readout_frame(np.zeros((1, 2)))),
    ("encode_matrix of a 1-D vector", lambda: encode_matrix(np.ones(3))),
    ("quantum_distance of unequal lengths", lambda: quantum_distance([1.0, 2.0], [1.0])),
    ("distance_matrix on mismatched features", lambda: distance_matrix(np.ones((2, 2)), np.ones((2, 3)))),
    ("predict on the wrong width", lambda: predict(
        fit(POINTS, FitConfig(2)), DataSet(np.ones((4, 3)), LABELS))),
    ("ClusterModel with a non-finite center",
     lambda: ClusterModel(np.array([[np.nan, 0.0]]), [0], (), True)),
    ("ClusterModel with a label past its centers", lambda: ClusterModel(np.zeros((1, 2)), [1], (), True)),
    ("ScoreReport without folds", lambda: ScoreReport(metric="FowlkesMallows", per_fold=())),
    ("ScoreReport with a fold above 1", lambda: ScoreReport(metric="FowlkesMallows", per_fold=(1.5,))),
    ("pearson of unequal lengths", lambda: pearson([1.0, 2.0], [1.0])),
    ("pearson of one sample", lambda: pearson([1.0], [1.0])),
    ("CorrelationReport of one coefficient", lambda: CorrelationReport((0, 1), (0.0,))),
]


@pytest.mark.parametrize("call", [call for _, call in BAD_DATA], ids=[case for case, _ in BAD_DATA])
def test_bad_data_is_a_data_error(call):
    with pytest.raises(DataError):
        call()


# (case, call): a bad option or configuration given to a library entry point
BAD_CONFIG = [
    ("CouplingMap edge of three qubits", lambda: CouplingMap(device="x", edges=((0, 1, 2),))),
    ("IQShotTable.values of feature x", lambda: synthesize(
        default_readout_model(), default_coupling_map(), 2).values((0, 1), 0, "00", "x")),
]


@pytest.mark.parametrize("call", [call for _, call in BAD_CONFIG], ids=[case for case, _ in BAD_CONFIG])
def test_bad_config_is_a_config_error(call):
    with pytest.raises(ConfigError):
        call()


def test_every_distance_mode_check_is_a_config_error():
    model = fit(POINTS, FitConfig(2, distance_mode="classical_euclidean"))
    for call in (
        lambda mode: FitConfig(2, distance_mode=mode),
        lambda mode: qkmeans_plusplus_init(POINTS, 2, distance_mode=mode),
        lambda mode: predict(model, POINTS, distance_mode=mode),
    ):
        with pytest.raises(ConfigError, match="distance_mode must be one of"):
            call("euclidean")


def test_every_metric_and_half_width_check_is_a_config_error():
    config = FitConfig(2, distance_mode="classical_euclidean")
    for value in ("accuracy", ["fidelity"]):  # an unhashable value must not reach a dict lookup
        for call in (
            lambda metric: score_labels(metric, LABELS, LABELS),
            lambda metric: cross_validate(POINTS, config, n_splits=2, metric=metric),
        ):
            with pytest.raises(ConfigError, match=r"^metric must be one of \['fidelity', 'fm'\]$"):
                call(value)
        with pytest.raises(ConfigError, match=r"^half_width must be one of \('std', 'sem95'\)$"):
            cross_validate(POINTS, config, n_splits=2, half_width=value)
        with pytest.raises(
            ConfigError, match=r"^metric must be one of \['AssignmentFidelity', 'FowlkesMallows'\]$"
        ):
            ScoreReport(metric=value, per_fold=(1.0,))
        with pytest.raises(ConfigError, match=r"^half_width_kind must be one of \('std', 'sem95'\)$"):
            ScoreReport(metric="FowlkesMallows", per_fold=(1.0,), half_width_kind=value)


def test_derive_seed_does_not_coerce():
    # int() once turned derive_seed(1.5) into derive_seed(1)
    assert derive_seed(np.int64(3), np.uint64(4)) == derive_seed(3, 4)
    with pytest.raises(ConfigError, match="seed must be an integer"):
        derive_seed(1.5)


def test_check_number_messages_name_the_parameter():
    with pytest.raises(ConfigError, match=r"^n_splits must be >= 2, got 1$"):
        check_number("n_splits", 1, 2)
    with pytest.raises(ConfigError, match=r"^tol must be a finite number, got inf$"):
        check_number("tol", math.inf, 0.0, integral=False)
    with pytest.raises(ConfigError, match="finite"):
        check_number("tol", 10**400, integral=False)  # beyond the float64 range
    assert issubclass(ConfigError, ValueError) and issubclass(DataError, ValueError)


def abc_check_number(name: str, value, low=None, *, integral: bool = True) -> None:
    """``check_number`` without its plain-int fast path: the ``numbers`` ABC
    rule that the fast path must match, accept for accept and message for
    message."""
    kind, what = (numbers.Integral, "an integer") if integral else (numbers.Real, "a finite number")
    if isinstance(value, bool) or not isinstance(value, kind) or not (
        integral or -sys.float_info.max <= value <= sys.float_info.max
    ):
        raise ConfigError(f"{name} must be {what}, got {value!r}")
    if low is not None and value < low:
        raise ConfigError(f"{name} must be >= {low}, got {value!r}")


def check_outcome(check, *args, **kwargs) -> str | None:
    """The ConfigError message of a check, or None if it accepts."""
    try:
        check(*args, **kwargs)
    except ConfigError as error:
        return str(error)
    return None


checked_values = st.one_of(
    st.integers(-(2**70), 2**70),
    st.sampled_from([0, -1, 1, 2**63, 2**64, 10**400, -(10**400), True, False, math.nan, math.inf]),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(0, 2**64 - 1).map(np.uint64),
    st.floats(allow_nan=True, allow_infinity=True),
)


@given(checked_values, st.sampled_from([None, 0, 1]), st.booleans())
@example(np.int64(-(2**63)), None, False)  # abs() of it overflows int64
def test_check_number_fast_path_keeps_the_abc_rule(value, low, integral):
    assert check_outcome(check_number, "x", value, low, integral=integral) == check_outcome(
        abc_check_number, "x", value, low, integral=integral)


@given(st.lists(checked_values, min_size=1, max_size=4))
def test_derive_seed_checks_every_entry_then_hashes_it(entries):
    # the message of the first entry the ABC rule rejects, else the SeedSequence state
    rejected = [check_outcome(abc_check_number, "seed", value, 0) for value in entries]
    message = next(filter(None, rejected), None)
    if message is None:
        expected = int(np.random.SeedSequence(entries).generate_state(1, np.uint64)[0])
        assert derive_seed(*entries) == expected
    else:
        assert check_outcome(derive_seed, *entries) == message


def test_read_lines_rejects_non_utf8(tmp_path):
    path = tmp_path / "x.txt"
    path.write_bytes(b"a\r\nb\n\xff")
    with pytest.raises(DataError, match="not UTF-8"):
        read_lines(path)
    path.write_bytes(b"a\r\nb\n")
    assert read_lines(path) == ["a", "b"]


# every line end str.splitlines knows ("\r\n" as one), "\x1f" that it does not,
# and characters of two, three and four UTF-8 bytes
TEXT_TOKENS = ["a", ",", "\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85",
               "\u2028", "\u2029", "é", "€", "𝄞"]
# an invalid start byte, a bad continuation, an overlong form, a surrogate, a cut sequence
BAD_UTF8 = [b"\xff", b"\xe2\x28", b"\xc0\xaf", b"\xed\xa0\x80", b"\xe2\x82"]
text_bytes = st.lists(st.sampled_from(TEXT_TOKENS), max_size=40).map(lambda tokens: "".join(tokens).encode())
file_bytes = text_bytes | st.binary(max_size=40) | st.builds(
    lambda head, bad, tail: head + bad + tail, text_bytes, st.sampled_from(BAD_UTF8), text_bytes)


def _streamed(path):
    """open_text's DataError message, or split_pieces' lines."""
    try:
        with open_text(path) as text:
            return [line for lines in split_pieces(text) for line in lines]
    except DataError as exc:
        return str(exc)


def _whole(path):
    """read_lines' DataError message, or the whole text's splitlines(True)."""
    try:
        read_lines(path)
    except DataError as exc:
        return str(exc)
    return path.read_bytes().decode("utf-8").splitlines(True)


@settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(file_bytes, st.integers(1, 12))
@example(b"a\r\nb", 2)  # a piece ends inside "\r\n"
@example("é€𝄞\n".encode() + b"\xff", 1)  # pieces end inside each character before the bad byte
def test_open_text_reads_and_rejects_as_read_lines_in_any_pieces(tmp_path, content, piece):
    path = tmp_path / "x.txt"
    path.write_bytes(content)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(errors, "_PIECE", piece)
        assert _streamed(path) == _whole(path)


BAD_PAIR_TOKENS = ["1_0-2", "+1-2", " 1-2", "١-٢", "1- 2", "1-", "-1-2", "1-2-3"]
_SHOT_HEADER = "pair,qubit,schedule,shot,i,q"
_SCORES_HEADER = "pair,qubit,kind,algo,mode,metric,splits,half_width_kind,mean,half_width,per_fold"


def test_parse_pair_accepts_ascii_digits():
    assert parse_pair("0-1") == (0, 1)
    assert parse_pair("12-007") == (12, 7)


@pytest.mark.parametrize("token", BAD_PAIR_TOKENS)
def test_every_pair_parser_rejects_non_ascii_digit_tokens(token, tmp_path):
    with pytest.raises(DataError, match="malformed pair"):
        parse_pair(token)
    rows = [f'"{label}",0.0' for label in named_form_labels()]
    with pytest.raises(DataError, match="malformed pair"):
        parse_named_block([f"form,{token}", *rows])
    spec = {"ground_center": [0.0, 0.0], "excited_center": [1.0, 1.0]}
    with pytest.raises(ConfigError, match="malformed pair"):
        model_from_dict({"qubits": {"1": spec, "2": spec}, "crosstalk": {token: 0.1}})
    scores = tmp_path / "scores.csv"
    scores.write_text(
        f"{_SCORES_HEADER}\n{token},1,single,kmeans,exact,AssignmentFidelity,2,std,0.9,0.0,0.9;0.9\n"
    )
    with pytest.raises(DataError, match="line 2"):
        read_score_table(scores)
    if token != " 1-2":  # load_table strips each line, so a leading space is indentation
        shots = tmp_path / "shots.csv"
        shots.write_text(f"{_SHOT_HEADER}\n{token},1,00,0,1.0,2.0\n")
        with pytest.raises(DataError, match="line 2"):
            load_table(shots)


BAD_INDEX_TOKENS = ["1_0", "+3", " 1", "١", "-1", "", "1.0", "³"]


def test_parse_index_accepts_ascii_digits():
    assert parse_index("0") == 0
    assert parse_index("007") == 7


def _one_field(token: str) -> bool:
    """Whether ``token`` stays one field of one line in a CSV row."""
    return "," not in token and len(f"x{token}x".splitlines()) == 1


@given(st.lists(st.sampled_from(["0", "17", "007"]) | st.sampled_from(BAD_INDEX_TOKENS)
                | st.text(max_size=3).filter(_one_field), min_size=1, max_size=5))
def test_block_reader_is_parse_index_on_every_token(tokens):
    """The C parser's uint64 qubit column takes a block exactly when every
    token passes parse_index, and reads the same integers."""
    def passes(token):
        try:
            parse_index(token)
        except DataError:
            return False
        return True
    block = _parse_block([f"0-1,{token},00,{shot},1.0,2.0" for shot, token in enumerate(tokens)])
    assert (block is not None) == all(map(passes, tokens))
    if block is not None:
        assert block[2].tolist() == list(map(parse_index, tokens))


@pytest.mark.parametrize("token", BAD_INDEX_TOKENS)
def test_every_index_parser_rejects_non_ascii_digit_tokens(token, tmp_path):
    with pytest.raises(DataError, match="malformed index"):
        parse_index(token)
    shots = tmp_path / "shots.csv"
    for row in (f"0-1,{token},00,0,1.0,2.0", f"0-1,1,00,{token},1.0,2.0"):  # qubit, shot
        shots.write_text(f"{_SHOT_HEADER}\n{row}\n")
        with pytest.raises(DataError, match=r"line 2: malformed row \(malformed index"):
            load_table(shots)
    scores = tmp_path / "scores.csv"
    row = f"0-1,{token},single,kmeans,exact,AssignmentFidelity,2,std,0.9,0.0,0.9;0.9"
    scores.write_text(f"{_SCORES_HEADER}\n{row}\n")
    with pytest.raises(DataError, match=r"line 2: malformed row \(malformed index"):
        read_score_table(scores)
    spec = {"ground_center": [0.0, 0.0], "excited_center": [1.0, 1.0]}
    with pytest.raises(ConfigError, match="malformed index"):
        model_from_dict({"qubits": {token: spec}})
