"""The CLI's report encoder against json.dumps(indent=2, sort_keys=True)."""

import json

from hypothesis import given, settings, strategies as st

from semilab.cli import _SLICE, _encode, _parts

# escapes, '%' (the encoder fills %-templates) and non-ASCII, next to
# arbitrary text
STRINGS = st.text() | st.sampled_from(
    ['"', "\\", "\n", "\t", "\x00", "\x7f", "%", "%s", "%d", "%%",
     "é", " ", "\U0001f600", ""])
SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
           | STRINGS)
# ints and bools mixed in one list: %d must never print a bool
INTISH = st.integers() | st.booleans()


def _rows(width):
    row = st.lists(INTISH, min_size=width, max_size=width)
    return st.lists(row | row.map(tuple), max_size=5)


# equal-width rows (width 0 included), and ragged rows
ROWS = st.integers(0, 4).flatmap(_rows) | st.lists(st.lists(INTISH),
                                                   max_size=4)


def _records(keys):
    record = st.fixed_dictionaries({k: SCALARS | st.lists(INTISH, max_size=3)
                                    for k in keys})
    return st.lists(record, max_size=5)


# records sharing one key set, and record lists whose key sets differ
RECORDS = (st.sets(STRINGS, max_size=4).flatmap(_records)
           | st.lists(st.dictionaries(st.sampled_from("abc"), SCALARS),
                      max_size=5))

TREES = st.recursive(
    SCALARS | ROWS | RECORDS | st.lists(INTISH) | st.lists(STRINGS),
    lambda children: (st.lists(children, max_size=4)
                      | st.lists(children, max_size=3).map(tuple)
                      | st.dictionaries(STRINGS, children, max_size=4)
                      | st.dictionaries(st.integers(), children,
                                        max_size=3)),
    max_leaves=40)


@settings(max_examples=200)
@given(TREES)
def test_encode_matches_json_dumps(obj):
    assert "".join(_parts(obj)) == _encode(obj) == json.dumps(
        obj, indent=2, sort_keys=True)


def test_encode_fast_paths_examples():
    cases = [
        {},
        [],
        [[]],
        [[], []],
        [[1, 2], [3, 4]],
        [(1, True), (0, 2)],
        [[1, 2], [3]],
        [1, True, None, 2.5],
        [{"a": 1, "b": "x"}, {"a": 2, "b": None}],
        [{"a": 1}, {"b": 2}],
        [{}, {}],
        [{"%s": [1, 2]}, {"%s": [3, 4]}],
        {"z": {"y": [[0, 1], [1, 0]]}, "a": [{"k": [{"m": 1}]}]},
        {1: "int keys", 2: [1.5, float("inf")]},
    ]
    for obj in cases:
        assert _encode(obj) == json.dumps(obj, indent=2, sort_keys=True)


def _int_rows(count):
    return [[i, -i, i % 7] for i in range(count)]


def test_parts_long_lists_and_generators():
    # slices of _SLICE items, the last one full, one over, and two; a
    # generator is written as the list it yields
    for count in (_SLICE, _SLICE + 1, 2 * _SLICE):
        rows = _int_rows(count)
        text = json.dumps(rows, indent=2, sort_keys=True)
        assert "".join(_parts(rows)) == text
        assert "".join(_parts(tuple(map(tuple, rows)))) == text
        assert "".join(_parts(row for row in rows)) == text
    assert "".join(_parts(x for x in ())) == "[]"
    report = {"n": 3, "violations": (tuple(r) for r in _int_rows(5)),
              "empty": (x for x in ())}
    assert "".join(_parts(report)) == json.dumps(
        {"n": 3, "violations": _int_rows(5), "empty": []}, indent=2,
        sort_keys=True)


def test_parts_draw_a_generator_one_slice_at_a_time():
    drawn = []

    def rows():
        for row in _int_rows(3 * _SLICE):
            drawn.append(row)
            yield row
    parts = _parts({"rows": rows()})
    text = next(parts)                          # the key
    assert drawn == []
    text += next(parts) + next(parts)           # "[" and the first slice
    assert len(drawn) == _SLICE
    text += "".join(parts)
    assert len(drawn) == 3 * _SLICE
    assert text == json.dumps({"rows": _int_rows(3 * _SLICE)}, indent=2)
