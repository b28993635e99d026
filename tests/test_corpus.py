import json

import pytest
from hypothesis import given, settings, strategies as st

from triagelab.corpus import (
    BugRecord,
    active_developers,
    clean_bugs,
    compute_horizon_L,
    developer_profiles,
    fixing_time_threshold,
    load_events,
    quartiles,
    record_to_obj,
    split_train_test,
)
from triagelab.errors import ParseError, ValidationError

from conftest import make_bug


def test_quartiles_linear_interpolation():
    assert quartiles([1, 2, 3, 4]) == (1.75, 3.25)
    assert quartiles([5]) == (5.0, 5.0)


def test_quartiles_empty_rejected():
    with pytest.raises(ValidationError):
        quartiles([])


def test_outlier_threshold_hand_value():
    # Q1=1, Q3=26 -> 26 + 1.5 * 25 = 63.5
    sample = [1, 1, 1, 26, 26]
    assert fixing_time_threshold(sample) == 63.5
    assert compute_horizon_L(sample) == 26.0


def test_horizon_empty_rejected():
    with pytest.raises(ValidationError):
        compute_horizon_L([])


def test_fixing_time_inclusive_of_both_days():
    rec = make_bug(1, reported=5, assigned=7, resolved=9, dev=1)
    assert rec.fixing_time == 3
    assert make_bug(2, reported=5).fixing_time is None


def test_record_validation():
    with pytest.raises(ValidationError):
        make_bug(1, reported=5, assigned=3, resolved=9, dev=1)
    with pytest.raises(ValidationError):
        make_bug(1, status="RESOLVED_MAYBE")
    with pytest.raises(ValidationError):
        make_bug(1, deps=[(3, "BAD_KIND", 7)])


def test_active_developer_iqr_rule():
    records = (
        [make_bug(i, dev=1) for i in range(10)]
        + [make_bug(10, dev=2), make_bug(11, dev=3), make_bug(12, dev=4)]
    )
    # counts [10, 1, 1, 1]: IQR = 3.25 - 1 = 2.25 -> only dev 1 active
    assert active_developers(records) == frozenset({1})
    assert [p.fixed_bug_count for p in developer_profiles(records)] == [10, 1, 1, 1]


def test_active_single_developer_is_active():
    assert active_developers([make_bug(1, dev=9)]) == frozenset({9})  # IQR 0, count 1 > 0


def test_clean_bugs_hand_fixture(clean20):
    kept, summary = clean_bugs(clean20)
    assert summary.counts_by_step == [20, 18, 16, 14, 13]
    assert summary.active_dev_ids == frozenset({1, 2})
    assert summary.max_fix_threshold == pytest.approx(6.375)
    assert all(r.fixing_time <= 6.375 for r in kept)


def test_clean_bugs_boundary_restricts_active_pool(clean20):
    # test-phase fixes (after the boundary) must not create activity
    late = clean20 + [
        make_bug(100 + i, reported=200, assigned=200, resolved=202, dev=7)
        for i in range(30)
    ]
    _, summary = clean_bugs(late, boundary_day=100)
    assert 7 not in summary.active_dev_ids


def test_split_train_test_boundary_goes_to_train():
    records = [make_bug(1, reported=9), make_bug(2, reported=10), make_bug(3, reported=11)]
    train, test = split_train_test(records, 10)
    assert [r.bug_id for r in train] == [1, 2]
    assert [r.bug_id for r in test] == [3]


def test_load_events_roundtrip(tmp_path, clean20):
    path = tmp_path / "bugs.jsonl"
    path.write_text(
        "\n".join(json.dumps(record_to_obj(r), sort_keys=True) for r in clean20)
    )
    loaded = load_events(path)
    assert sorted(r.bug_id for r in loaded) == sorted(r.bug_id for r in clean20)
    by_id = {r.bug_id: r for r in loaded}
    for rec in clean20:
        assert by_id[rec.bug_id] == rec


def test_load_events_sorted_by_report_day(tmp_path):
    path = tmp_path / "bugs.jsonl"
    recs = [make_bug(1, reported=9), make_bug(2, reported=3)]
    path.write_text("\n".join(json.dumps(record_to_obj(r)) for r in recs))
    assert [r.bug_id for r in load_events(path)] == [2, 1]


GOOD_LINE = ('{"bug_id": 1, "summary": "s", "description": "d", '
             '"component": "c", "reported_at": 1, "status_final": "FIXED"}')


@pytest.mark.parametrize(
    "bad_line",
    [
        "not json",
        GOOD_LINE.replace('"bug_id": 1', '"bug_id": 2, "assigned_at": "six"'),
        GOOD_LINE.replace('"bug_id": 1', '"bug_id": 2, "assigned_at": [6]'),
        GOOD_LINE.replace('"bug_id": 1', '"bug_id": 2, "dependency_events": [["x", "ADD_BLOCKS", 2]]'),
        GOOD_LINE.replace('"bug_id": 1', '"bug_id": 2, "dependency_events": [[4, "ADD_BLOCKS"]]'),
        GOOD_LINE.replace('"bug_id": 1', '"bug_id": 2, "assigned_at": 6.7'),
        GOOD_LINE.replace('"bug_id": 1', '"bug_id": 2, "actual_assignee": true'),
        GOOD_LINE.replace('"bug_id": 1', '"bug_id": 1.9'),
        GOOD_LINE.replace('"bug_id": 1', '"bug_id": 2').replace('"reported_at": 1', '"reported_at": Infinity'),
        GOOD_LINE.replace('"bug_id": 1', '"bug_id": 2, "resolved_at": -Infinity'),
        GOOD_LINE.replace('"bug_id": 1', '"bug_id": 2, "resolved_at": NaN'),
        GOOD_LINE.replace('"bug_id": 1', '"bug_id": 2, "dependency_events": [[4, "ADD_BLOCKS", false]]'),
        GOOD_LINE.replace('"bug_id": 1', '"bug_id": 2').replace('"s"', '"s\xff"').encode("latin-1"),
        "[" * 100_000 + "]" * 100_000,
    ],
    ids=["not-json", "assigned-at-word", "assigned-at-list", "event-day-word", "event-pair",
         "assigned-at-fraction", "assignee-bool", "bug-id-fraction", "reported-at-infinity",
         "resolved-at-minus-infinity", "resolved-at-nan", "event-other-bool", "not-utf8",
         "nested-too-deep"],
)
def test_load_events_parse_error_carries_line_number(tmp_path, bad_line):
    path = tmp_path / "bad.jsonl"
    if isinstance(bad_line, str):
        bad_line = bad_line.encode()
    path.write_bytes(GOOD_LINE.encode() + b"\n" + bad_line + b"\n")
    with pytest.raises(ParseError, match="line 2"):
        load_events(path)


def test_load_events_casts_integer_fields(tmp_path):
    # a numeric string or an integral float is read as its integer
    path = tmp_path / "cast.jsonl"
    path.write_text(GOOD_LINE.replace(
        '"reported_at": 1', '"reported_at": "1", "assigned_at": "6", "resolved_at": 7.0'))
    [record] = load_events(path)
    assert (record.reported_at, record.assigned_at, record.resolved_at) == (1, 6, 7)
    assert type(record.resolved_at) is int


FULL_OBJ = {
    "bug_id": 1, "summary": "s", "description": "d", "component": "c",
    "reported_at": 1, "assigned_at": 2, "resolved_at": 3, "actual_assignee": 4,
    "status_final": "FIXED", "dependency_events": [[2, "ADD_BLOCKS", 5]],
}
INT_FIELDS = ("bug_id", "reported_at", "assigned_at", "resolved_at", "actual_assignee")
# where a fuzzed value goes: the whole line, one field, or one slot of an event
INT_SLOTS = [(name,) for name in INT_FIELDS] + [("dependency_events", 0, 0), ("dependency_events", 0, 2)]
FUZZ_SLOTS = [()] + [(name,) for name in FULL_OBJ] + [("dependency_events", 0, i) for i in range(3)]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=8,
)
# values that int() would coerce or choke on, drawn often enough to reach every slot
EDGE_VALUES = st.sampled_from(
    [True, False, 6.7, -1.9, 2.0, float("inf"), float("-inf"), float("nan"), "6", "6.5", "x"]
)


@settings(max_examples=300)
@given(slot=st.sampled_from(FUZZ_SLOTS), value=EDGE_VALUES | JSON_VALUES)
def test_load_events_any_json_value_gives_record_or_parse_error(tmp_path_factory, slot, value):
    # json.dumps writes NaN and +-Infinity, and json.loads reads them back
    if slot:
        obj = json.loads(json.dumps(FULL_OBJ))
        target = obj
        for key in slot[:-1]:
            target = target[key]
        target[slot[-1]] = value
    else:
        obj = value
    path = tmp_path_factory.getbasetemp() / "fuzz.jsonl"
    path.write_text("\n" + json.dumps(obj) + "\n")
    try:
        [record] = load_events(path)
    except ParseError as exc:
        assert str(exc).startswith("line 2: ")
        return
    ints = [getattr(record, name) for name in INT_FIELDS]
    ints += [x for day, _, other in record.dependency_events for x in (day, other)]
    assert all(x is None or type(x) is int for x in ints)
    if slot in INT_SLOTS:
        # an accepted integer field holds exactly the value written
        read = record.dependency_events[0][slot[2]] if len(slot) == 3 else getattr(record, slot[0])
        assert not isinstance(value, bool)
        assert isinstance(value, str) or read == value


def test_load_events_missing_field(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"bug_id": 1}\n')
    with pytest.raises(ParseError, match="reported_at|summary"):
        load_events(path)


def test_load_events_duplicate_id(tmp_path):
    path = tmp_path / "dup.jsonl"
    line = json.dumps(record_to_obj(make_bug(5)))
    path.write_text(line + "\n" + line + "\n")
    with pytest.raises(ValidationError, match="duplicate"):
        load_events(path)


def test_dependency_events_roundtrip(tmp_path):
    rec = make_bug(1, deps=[(4, "ADD_BLOCKS", 9), (6, "REMOVE_BLOCKS", 9)])
    path = tmp_path / "dep.jsonl"
    path.write_text(json.dumps(record_to_obj(rec)))
    assert load_events(path)[0].dependency_events == rec.dependency_events
