"""Synthetic IQ shot generator and table round-trip tests."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qkmeans.errors import ConfigError, DataError
from qkmeans.iqdata import (
    SCHEDULES,
    CouplingMap,
    IQShotTable,
    QubitReadoutSpec,
    ReadoutModel,
    assemble_datasets,
    coupling_from_dict,
    crosstalk_demo_model,
    default_coupling_map,
    default_readout_model,
    load_table,
    model_from_dict,
    save_table,
    synthesize,
)

SINGLE_EDGE = CouplingMap(device="toy", edges=((0, 1),))

TOY_MODEL = ReadoutModel(
    device="toy",
    qubits={
        0: QubitReadoutSpec((-1.0, 0.0), (3.0, 2.0)),
        1: QubitReadoutSpec((0.5, -0.5), (0.5, 3.5)),
    },
)


class TestSynthesize:
    def test_row_count_and_order(self):
        table = synthesize(TOY_MODEL, SINGLE_EDGE, shots_per_schedule=50, seed=0)
        assert len(table) == 2 * 4 * 50
        assert table.pairs() == ((0, 1),)
        table.require_schedules((0, 1))  # both qubits hold all four schedules
        # canonical ordering: qubit-major, then schedule, then shot
        assert list(np.unique(table.qubit)) == [0, 1]
        first_block = table.schedule[:50]
        assert set(first_block) == {"00"}
        np.testing.assert_array_equal(table.shot[:50], np.arange(50))

    def test_deterministic_in_seed(self):
        a = synthesize(TOY_MODEL, SINGLE_EDGE, shots_per_schedule=64, seed=5)
        b = synthesize(TOY_MODEL, SINGLE_EDGE, shots_per_schedule=64, seed=5)
        c = synthesize(TOY_MODEL, SINGLE_EDGE, shots_per_schedule=64, seed=6)
        np.testing.assert_array_equal(a.i_value, b.i_value)
        np.testing.assert_array_equal(a.q_value, b.q_value)
        assert not np.array_equal(a.i_value, c.i_value)

    def test_pair_streams_do_not_depend_on_other_pairs(self):
        # each edge draws from derive_seed(seed, a, b), so dropping edges
        # from the map must not change the remaining pair's samples
        full = synthesize(
            default_readout_model(), default_coupling_map(), 32, seed=3
        )
        solo = synthesize(
            default_readout_model(),
            CouplingMap(device="synthetic-5q-chain", edges=((1, 2),)),
            32,
            seed=3,
        )
        mask = (full.pair_first == 1) & (full.pair_second == 2)
        np.testing.assert_array_equal(full.i_value[mask], solo.i_value)
        np.testing.assert_array_equal(full.q_value[mask], solo.q_value)

    def test_own_state_bit_reads_schedule_from_the_right(self):
        # schedule "01": first pair qubit excited, second in ground
        table = synthesize(TOY_MODEL, SINGLE_EDGE, shots_per_schedule=600, seed=1)
        for qubit, pos in ((0, 0), (1, 1)):
            spec = TOY_MODEL.qubits[qubit]
            for sched in SCHEDULES:
                own = int(sched[1 - pos])
                want = spec.excited_center if own else spec.ground_center
                got_i = table.values((0, 1), qubit, sched, "i").mean()
                got_q = table.values((0, 1), qubit, sched, "q").mean()
                tol = 5.0 / np.sqrt(600)
                assert abs(got_i - want[0]) < tol, (qubit, sched)
                assert abs(got_q - want[1]) < tol, (qubit, sched)

    def test_sample_moments_are_exact_at_scale(self):
        # the noise table is orthogonalized, so with kappa=0 every
        # (qubit, schedule) slice has exactly the configured mean/stddev
        table = synthesize(TOY_MODEL, SINGLE_EDGE, shots_per_schedule=256, seed=2)
        spec = TOY_MODEL.qubits[0]
        vals = table.values((0, 1), 0, "00", "i")
        assert vals.mean() == pytest.approx(spec.ground_center[0], abs=1e-9)
        assert vals.std(ddof=1) == pytest.approx(spec.cluster_stddev[0], rel=1e-9)

    def test_excited_neighbor_shifts_victim_when_coupled(self):
        model = crosstalk_demo_model()
        table = synthesize(model, default_coupling_map(), 512, seed=4)
        # qubit 1 in pair (1, 2): neighbor bit is schedule[0]
        quiet = table.values((1, 2), 1, "00", "i")
        loud = table.values((1, 2), 1, "10", "i")
        kappa = 0.3
        spec = model.qubits[1]
        expected_shift = 0.25 * kappa * (spec.excited_center[0] - spec.ground_center[0])
        # orthogonalized noise makes the schedule means exact, so the shift
        # shows up to floating-point precision
        assert loud.mean() - quiet.mean() == pytest.approx(expected_shift, abs=1e-9)

    def test_no_shift_without_coupling(self):
        table = synthesize(
            default_readout_model(), default_coupling_map(), 256, seed=4
        )
        quiet = table.values((1, 2), 1, "00", "i")
        loud = table.values((1, 2), 1, "10", "i")
        # exact equality of means: orthogonalized noise, zero shift
        assert loud.mean() == pytest.approx(quiet.mean(), abs=1e-9)

    def test_rejects_uncovered_edge(self):
        with pytest.raises(ConfigError):
            synthesize(TOY_MODEL, CouplingMap(device="x", edges=((0, 3),)), 16)

    def test_rejects_bad_shots(self):
        with pytest.raises(ConfigError):
            synthesize(TOY_MODEL, SINGLE_EDGE, shots_per_schedule=0)

    def test_empty_coupling_gives_empty_table(self):
        table = synthesize(TOY_MODEL, CouplingMap(device="toy", edges=()), 16)
        assert len(table) == 0
        assert table.pairs() == ()


class TestAssembleDatasets:
    def test_single_and_both_sizes(self):
        table = synthesize(TOY_MODEL, SINGLE_EDGE, shots_per_schedule=100, seed=0)
        single, both = assemble_datasets(table, qubit=0, pair=(0, 1))
        assert single.n_points == 200
        assert both.n_points == 400
        assert single.n_features == both.n_features == 2
        np.testing.assert_array_equal(np.bincount(single.labels), [100, 100])
        np.testing.assert_array_equal(np.bincount(both.labels), [200, 200])

    def test_labels_are_own_state_bit(self):
        table = synthesize(TOY_MODEL, SINGLE_EDGE, shots_per_schedule=400, seed=1)
        spec = TOY_MODEL.qubits[1]
        single, _ = assemble_datasets(table, qubit=1, pair=(0, 1))
        # single for qubit 1 (pos 1) keeps schedules "00" and "10"; the
        # excited-labeled half must sit near the excited center in frame
        # coordinates -> check separation is the full blob gap
        mu0 = single.features[single.labels == 0].mean(axis=0)
        mu1 = single.features[single.labels == 1].mean(axis=0)
        gap = np.linalg.norm(mu1 - mu0)
        raw_gap = np.linalg.norm(
            np.array(spec.excited_center) - np.array(spec.ground_center)
        )
        # frame scale is the principal-axis stddev; the separation must
        # stay large in units of it
        assert gap > 0.8 * raw_gap / np.sqrt(1 + raw_gap**2 / 4)

    def test_framed_features_are_nonnegative(self):
        table = synthesize(TOY_MODEL, SINGLE_EDGE, shots_per_schedule=50, seed=2)
        single, _ = assemble_datasets(table, qubit=0, pair=(0, 1))
        assert np.all(single.features >= -1e-12)

    def test_rejects_foreign_qubit(self):
        table = synthesize(TOY_MODEL, SINGLE_EDGE, shots_per_schedule=10, seed=0)
        with pytest.raises(DataError):
            assemble_datasets(table, qubit=7, pair=(0, 1))

    def test_rejects_missing_schedule(self):
        table = synthesize(TOY_MODEL, SINGLE_EDGE, shots_per_schedule=10, seed=0)
        keep = table.schedule != "11"
        partial = IQShotTable(
            device=table.device,
            pair_first=table.pair_first[keep],
            pair_second=table.pair_second[keep],
            qubit=table.qubit[keep],
            schedule=table.schedule[keep],
            shot=table.shot[keep],
            i_value=table.i_value[keep],
            q_value=table.q_value[keep],
        )
        with pytest.raises(DataError):
            assemble_datasets(partial, qubit=0, pair=(0, 1))

    def test_rejects_schedule_missing_for_one_qubit(self):
        # the pair as a whole still has all four schedules, qubit 1 does not
        table = synthesize(TOY_MODEL, SINGLE_EDGE, shots_per_schedule=10, seed=0)
        keep = ~((table.qubit == 1) & (table.schedule == "01"))
        partial = IQShotTable(
            device=table.device,
            pair_first=table.pair_first[keep],
            pair_second=table.pair_second[keep],
            qubit=table.qubit[keep],
            schedule=table.schedule[keep],
            shot=table.shot[keep],
            i_value=table.i_value[keep],
            q_value=table.q_value[keep],
        )
        with pytest.raises(DataError, match=r"qubit 1 is missing schedules \['01'\]"):
            assemble_datasets(partial, qubit=1, pair=(0, 1))


@st.composite
def shuffled_rows(draw):
    """Key rows over 1-3 pairs, both qubits of each, some schedules left
    out and gaps in the shot ids, in random order."""
    pairs = draw(st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(lambda p: p[0] != p[1]),
        min_size=1, max_size=3, unique=True,
    ))
    rows = []
    for a, b in pairs:
        for qubit in (a, b):
            for sched in draw(st.lists(st.sampled_from(SCHEDULES), min_size=1, max_size=4, unique=True)):
                shots = draw(st.lists(st.integers(0, 30), min_size=1, max_size=5, unique=True))
                rows.extend((a, b, qubit, sched, shot) for shot in shots)
    return draw(st.permutations(rows))


class TestSliceIndex:
    @given(shuffled_rows())
    def test_matches_mask_and_unique_lookups(self, rows):
        pf, ps, qb, sched, shot = (list(col) for col in zip(*rows))
        ids = np.arange(len(rows), dtype=np.float64)
        table = IQShotTable(
            device="toy", pair_first=np.array(pf), pair_second=np.array(ps),
            qubit=np.array(qb), schedule=np.array(sched), shot=np.array(shot),
            i_value=ids, q_value=-ids,
        )
        # reference: the full-table mask and np.unique(axis=0) lookups
        stacked = np.stack([table.pair_first, table.pair_second], axis=1)
        assert table.pairs() == tuple((int(a), int(b)) for a, b in np.unique(stacked, axis=0))
        for a, b in {(x, y) for x, y, *_ in rows} | {(y, x) for x, y, *_ in rows}:
            for qubit in (a, b):
                for s in SCHEDULES:
                    mask = (
                        (table.pair_first == a) & (table.pair_second == b)
                        & (table.qubit == qubit) & (table.schedule == s)
                    )
                    np.testing.assert_array_equal(table.values((a, b), qubit, s, "i"), table.i_value[mask])
                    np.testing.assert_array_equal(table.values((a, b), qubit, s, "q"), table.q_value[mask])
                    assert np.all(np.diff(table.shot[mask]) > 0)
        for a, b in table.pairs():
            complete = all(
                (a, b, qubit, s) in {row[:4] for row in rows} for qubit in (a, b) for s in SCHEDULES
            )
            if complete:
                table.require_schedules((a, b))
            else:
                with pytest.raises(DataError, match="missing schedules"):
                    table.require_schedules((a, b))


class TestTableContainer:
    def test_rows_are_canonically_sorted(self):
        # feed rows in reverse; constructor restores the canonical order
        table = IQShotTable(
            device="toy",
            pair_first=np.array([0, 0]),
            pair_second=np.array([1, 1]),
            qubit=np.array([1, 0]),
            schedule=np.array(["00", "00"]),
            shot=np.array([0, 0]),
            i_value=np.array([2.0, 1.0]),
            q_value=np.array([20.0, 10.0]),
        )
        np.testing.assert_array_equal(table.qubit, [0, 1])
        np.testing.assert_array_equal(table.i_value, [1.0, 2.0])

    def test_duplicate_keys_rejected(self):
        with pytest.raises(DataError):
            IQShotTable(
                device="toy",
                pair_first=np.array([0, 0]),
                pair_second=np.array([1, 1]),
                qubit=np.array([0, 0]),
                schedule=np.array(["00", "00"]),
                shot=np.array([3, 3]),
                i_value=np.array([1.0, 2.0]),
                q_value=np.array([1.0, 2.0]),
            )

    def test_invalid_schedule_rejected(self):
        with pytest.raises(DataError):
            IQShotTable(
                device="toy",
                pair_first=np.array([0]),
                pair_second=np.array([1]),
                qubit=np.array([0]),
                schedule=np.array(["02"]),
                shot=np.array([0]),
                i_value=np.array([1.0]),
                q_value=np.array([1.0]),
            )

    def test_long_schedule_rejected_not_truncated(self):
        with pytest.raises(DataError, match="invalid schedule string '011'"):
            IQShotTable(
                device="toy",
                pair_first=np.array([0]),
                pair_second=np.array([1]),
                qubit=np.array([0]),
                schedule=np.array(["011"]),
                shot=np.array([0]),
                i_value=np.array([1.0]),
                q_value=np.array([1.0]),
            )

    def test_non_finite_rejected(self):
        with pytest.raises(DataError):
            IQShotTable(
                device="toy",
                pair_first=np.array([0]),
                pair_second=np.array([1]),
                qubit=np.array([0]),
                schedule=np.array(["00"]),
                shot=np.array([0]),
                i_value=np.array([np.nan]),
                q_value=np.array([1.0]),
            )

    @pytest.mark.parametrize("column", ["i_value", "q_value"])
    def test_values_beyond_the_magnitude_bound_rejected(self, column):
        columns = dict(pair_first=[0, 0], pair_second=[1, 1], qubit=[0, 0], schedule=["00", "00"],
                       shot=[0, 1], i_value=[2.0**400, -(2.0**400)], q_value=[1.0, 2.0])
        assert len(IQShotTable(device="toy", **columns)) == 2  # the bound itself is in range
        for value in (np.nextafter(2.0**400, np.inf), -1e308):
            columns[column] = [1.0, value]
            with pytest.raises(DataError, match=r"at most 2\*\*400"):
                IQShotTable(device="toy", **columns)

    @pytest.mark.parametrize("column", ["pair_first", "qubit", "shot"])
    def test_negative_index_rejected(self, column):
        columns = dict(pair_first=[0], pair_second=[1], qubit=[0], shot=[0])
        columns[column] = [-1]
        with pytest.raises(DataError, match=">= 0"):
            IQShotTable(
                device="toy",
                schedule=np.array(["00"]),
                i_value=np.array([1.0]),
                q_value=np.array([1.0]),
                **{name: np.array(values) for name, values in columns.items()},
            )

    @pytest.mark.parametrize(
        ("pair", "qubit", "message"),
        [((1, 1), 1, "qubit 1 is not one of the distinct qubits of pair 1-1"),
         ((1, 2), 3, "qubit 3 is not one of the distinct qubits of pair 1-2")],
    )
    def test_qubit_must_be_one_of_two_distinct_pair_qubits(self, pair, qubit, message):
        with pytest.raises(DataError, match=message):
            IQShotTable(
                device="toy",
                pair_first=np.array([1, pair[0]]),
                pair_second=np.array([2, pair[1]]),
                qubit=np.array([1, qubit]),
                schedule=np.array(["00", "00"]),
                shot=np.array([0, 0]),
                i_value=np.array([1.0, 1.0]),
                q_value=np.array([1.0, 1.0]),
            )

    def test_length_mismatch_rejected(self):
        with pytest.raises(DataError):
            IQShotTable(
                device="toy",
                pair_first=np.array([0, 0]),
                pair_second=np.array([1]),
                qubit=np.array([0]),
                schedule=np.array(["00"]),
                shot=np.array([0]),
                i_value=np.array([1.0]),
                q_value=np.array([1.0]),
            )

    def test_columns_are_read_only(self):
        table = synthesize(TOY_MODEL, CouplingMap(device="toy", edges=()), 16)
        with pytest.raises(ValueError):
            table.pair_first[...] = 1

    @pytest.mark.parametrize("rows", [0, 3])
    def test_table_copies_the_callers_columns(self, rows):
        """A table of any size, zero rows included, holds read-only copies
        and leaves the caller's arrays as they were."""
        index = np.zeros(rows, dtype=np.int64)
        columns = {
            "pair_first": index, "pair_second": index + 1, "qubit": index,
            "schedule": np.full(rows, "00"), "shot": np.arange(rows),
            "i_value": np.ones(rows), "q_value": np.ones(rows),
        }
        table = IQShotTable("toy", **columns)
        for name, given in columns.items():
            held = getattr(table, name)
            assert held is not given and not np.shares_memory(held, given)
            assert not held.flags.writeable and given.flags.writeable

    @pytest.mark.parametrize(
        ("column", "value"),
        [("pair_first", [0.9]), ("qubit", [True]), ("shot", ["7"]), ("pair_first", np.int64(0)),
         ("pair_first", [[0]]), ("shot", [2**63]), ("qubit", [2**70]), ("i_value", ["1.5"])],
        ids=["float index", "bool index", "string index", "0-d column", "2-D column",
             "2**63 index", "2**70 index", "string i value"],
    )
    def test_columns_are_checked_not_coerced(self, column, value, tmp_path):
        columns = dict(pair_first=[0], pair_second=[1], qubit=[0], schedule=["00"], shot=[0],
                       i_value=[1.0], q_value=[2.0])
        columns[column] = value
        with pytest.raises(DataError) as built:
            IQShotTable(device="toy", **columns)
        if isinstance(value, list) and isinstance(value[0], int) and value[0] >= 2**63:
            path = tmp_path / "shots.csv"
            path.write_text(f"pair,qubit,schedule,shot,i,q\n0-1,0,00,{value[0]},1.0,2.0\n")
            with pytest.raises(DataError) as loaded:
                load_table(path)
            assert str(built.value) == str(loaded.value)
            assert str(built.value).startswith("pair, qubit or shot index outside the int64 range (")

    def test_values_feature_check(self):
        table = synthesize(TOY_MODEL, SINGLE_EDGE, shots_per_schedule=4, seed=0)
        with pytest.raises(ValueError):
            table.values((0, 1), 0, "00", "x")


class TestFileRoundTrip:
    def test_save_load_is_bitwise(self, tmp_path):
        table = synthesize(TOY_MODEL, SINGLE_EDGE, shots_per_schedule=40, seed=9)
        path = tmp_path / "shots.csv"
        save_table(table, path)
        back = load_table(path)
        assert back.device == table.device
        for col in ("pair_first", "pair_second", "qubit", "schedule", "shot"):
            np.testing.assert_array_equal(getattr(back, col), getattr(table, col))
        # repr() float serialization guarantees exact value recovery
        np.testing.assert_array_equal(back.i_value, table.i_value)
        np.testing.assert_array_equal(back.q_value, table.q_value)

    def test_empty_round_trip(self, tmp_path):
        path = tmp_path / "empty.csv"
        save_table(IQShotTable("nothing", *[[]] * 7), path)
        back = load_table(path)
        assert len(back) == 0
        assert back.device == "nothing"

    def test_header_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("pair,qubit,foo\n0-1,0,00,0,1.0,2.0\n")
        with pytest.raises(DataError, match="line 1"):
            load_table(path)

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "pair,qubit,schedule,shot,i,q\n"
            "0-1,0,00,0,1.0,2.0\n"
            "0-1,0,00,one,1.0,2.0\n"
        )
        with pytest.raises(DataError, match="line 3"):
            load_table(path)

    def test_non_finite_value_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("pair,qubit,schedule,shot,i,q\n0-1,0,00,0,nan,2.0\n")
        with pytest.raises(DataError, match="line 2"):
            load_table(path)

    def test_wrong_field_count_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("pair,qubit,schedule,shot,i,q\n0-1,0,00,0,1.0\n")
        with pytest.raises(DataError, match="6 fields"):
            load_table(path)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_table(tmp_path / "absent.csv")

    def test_index_beyond_int64_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(f"pair,qubit,schedule,shot,i,q\n0-1,0,00,{2**63},1.0,2.0\n")
        with pytest.raises(DataError, match="int64"):
            load_table(path)

    def test_non_utf8_bytes_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"\xff\xfe")
        with pytest.raises(DataError, match="UTF-8"):
            load_table(path)


class TestDefaultsAndSerialization:
    def test_default_coupling_chain(self):
        coupling = default_coupling_map()
        assert coupling.edges == ((0, 1), (1, 2), (2, 3), (3, 4))
        assert coupling.device == "synthetic-5q-chain"

    def test_default_model_has_no_crosstalk(self):
        model = default_readout_model()
        assert model.crosstalk == {}
        assert sorted(model.qubits) == [0, 1, 2, 3, 4]
        for spec in model.qubits.values():
            assert spec.cluster_stddev == (1.0, 1.0)

    def test_demo_model_couples_two_pairs(self):
        model = crosstalk_demo_model()
        assert model.crosstalk == {
            (1, 2): 0.3,
            (2, 1): 0.3,
            (2, 3): 0.25,
            (3, 2): 0.25,
        }
        assert model.coupling_strength(1, 2) == 0.3
        assert model.coupling_strength(0, 1) == 0.0

    def test_model_round_trip(self):
        payload = {
            "device": "toy",
            "qubits": {
                "0": {"ground_center": [-1.0, 0.0], "excited_center": [3.0, 2.0]},
                "1": {"ground_center": [0.5, -0.5], "excited_center": [0.5, 3.5],
                      "cluster_stddev": [1.0, 1.0]},
            },
            "crosstalk": {"0-1": 0.2},
        }
        assert model_from_dict(payload) == ReadoutModel(
            device="toy", qubits=TOY_MODEL.qubits, crosstalk={(0, 1): 0.2}
        )

    def test_coupling_round_trip(self):
        # per-qubit metadata in older coupling files is ignored like any extra key
        payload = {
            "device": "toy",
            "edges": [[0, 1]],
            "qubits": {"0": {"frequency_ghz": 5.03, "readout_error": 0.021}},
        }
        assert coupling_from_dict(payload) == CouplingMap(device="toy", edges=((0, 1),))

    def test_malformed_model_payload(self):
        with pytest.raises(ConfigError):
            model_from_dict({"device": "x"})
        with pytest.raises(ConfigError):
            model_from_dict({"qubits": {"0": {"ground_center": [0.0, 0.0]}}})

    def test_malformed_coupling_payload(self):
        with pytest.raises(ConfigError):
            coupling_from_dict({"device": "x"})

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            QubitReadoutSpec((0.0,), (1.0, 1.0))
        with pytest.raises(ConfigError):
            QubitReadoutSpec((0.0, 0.0), (1.0, 1.0), cluster_stddev=(0.0, 1.0))
        with pytest.raises(ConfigError):
            QubitReadoutSpec((np.inf, 0.0), (1.0, 1.0))

    @pytest.mark.parametrize("big", [10**400, -(10**400)], ids=["plus", "minus"])
    def test_spec_rejects_int_beyond_float_range(self, big):
        # math.isfinite raises OverflowError on such ints; construction must
        # end in the same "malformed" ConfigError as any other bad pair
        with pytest.raises(ConfigError, match="malformed ground_center"):
            QubitReadoutSpec((big, 0.0), (1.0, 1.0))
        with pytest.raises(ConfigError, match="malformed cluster_stddev"):
            QubitReadoutSpec((0.0, 0.0), (1.0, 1.0), cluster_stddev=(1.0, big))

    @pytest.mark.parametrize("center", ["12", ["1", 2.0], [True, 0.0], [[1.0], 2.0], 3.0])
    def test_spec_rejects_non_numeric_pairs_without_coercion(self, center):
        with pytest.raises(ConfigError):
            QubitReadoutSpec(center, (1.0, 1.0))
        with pytest.raises(ConfigError):
            QubitReadoutSpec((0.0, 0.0), (1.0, 1.0), cluster_stddev=center)

    def test_model_rejects_non_numeric_strength(self):
        qubits = {"0": {"ground_center": [0.0, 0.0], "excited_center": [1.0, 1.0]},
                  "1": {"ground_center": [0.0, 0.0], "excited_center": [1.0, 1.0]}}
        for kappa in ("0.3", True, None):
            with pytest.raises(ConfigError):
                model_from_dict({"qubits": qubits, "crosstalk": {"0-1": kappa}})

    def test_model_validation(self):
        spec = QubitReadoutSpec((0.0, 0.0), (1.0, 1.0))
        with pytest.raises(ConfigError):
            ReadoutModel(device="x", qubits={0: spec}, crosstalk={(0, 0): 0.1})
        with pytest.raises(ConfigError):
            ReadoutModel(device="x", qubits={0: spec}, crosstalk={(0, 9): 0.1})
        with pytest.raises(ConfigError):
            ReadoutModel(
                device="x",
                qubits={0: spec, 1: spec},
                crosstalk={(0, 1): 1.5},
            )

    def test_coupling_validation(self):
        with pytest.raises(ConfigError):
            CouplingMap(device="x", edges=((1, 1),))
        with pytest.raises(ConfigError):
            CouplingMap(device="x", edges=((2, 1),))
        with pytest.raises(ConfigError):
            CouplingMap(device="x", edges=((0, 1), (0, 1)))
        with pytest.raises(ConfigError, match="outside"):
            CouplingMap(device="x", edges=((-1, 0),))
        with pytest.raises(ConfigError, match="outside"):
            CouplingMap(device="x", edges=((0, 2**63),))

    @pytest.mark.parametrize("edge", [(0.5, 1.7), (0.0, 1.0), (False, True), ("0", "1"), (0, 1.0)])
    def test_coupling_rejects_non_integer_entries(self, edge):
        with pytest.raises(ConfigError, match="integer"):
            CouplingMap(device="x", edges=(edge,))
        with pytest.raises(ConfigError, match="integer"):
            coupling_from_dict({"edges": [list(edge)]})
