"""The CLI's report encoder against json.dumps(indent=2, sort_keys=True)."""

import json
from itertools import accumulate

from hypothesis import given, settings, strategies as st

from semilab import cli
from semilab.cli import _SLICE, _encode, _parts
from semilab.embedding import MalcevReport, check_malcev_condition
from semilab.finite import CayleyTable
from semilab.rank1 import rank1_universe

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


def _array(shape):
    """Nested int arrays of ``shape``, each level a list or a tuple."""
    if not shape:
        return INTISH
    level = st.lists(_array(shape[1:]), min_size=shape[0], max_size=shape[0])
    return level | level.map(tuple)


# lists of int arrays that share one shape of depth 2 or 3 (an empty level
# included); a bool leaf sends its column down the item-by-item path
TABLES = st.lists(st.integers(0, 3), min_size=2, max_size=3).flatmap(
    lambda shape: st.lists(_array(shape), max_size=4))


def _records(keys):
    record = st.fixed_dictionaries({k: SCALARS | st.lists(INTISH, max_size=3)
                                    for k in keys})
    return st.lists(record, max_size=5)


# records sharing one key set, and record lists whose key sets differ
RECORDS = (st.sets(STRINGS, max_size=4).flatmap(_records)
           | st.lists(st.dictionaries(st.sampled_from("abc"), SCALARS),
                      max_size=5))

TREES = st.recursive(
    SCALARS | ROWS | TABLES | RECORDS | st.lists(INTISH)
    | st.lists(STRINGS),
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
        [[[0, 1], [1, 0]], [[1, 1], [0, 0]]],
        [((0,),), ((1,),)],
        [[[1, 2]], [[3, True]]],
        [[[1], [2, 3]]],
        [[[]], [[]]],
        [[1, "a"], [2, None]],
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


def test_parts_tables_past_a_slice():
    # _SLICE + 1 tables of 2 x 2: a full slice of table templates, then
    # one table alone
    tables = [((i % 2, i % 3), (i % 5, i % 7)) for i in range(_SLICE + 1)]
    parts = list(_parts(tables))
    assert len(parts) == 5                      # "[", slice, ",", slice, "]"
    assert "".join(parts) == json.dumps(tables, indent=2, sort_keys=True)
    assert "".join(_parts({"tables": tables})) == json.dumps(
        {"tables": tables}, indent=2, sort_keys=True)


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


def _monogenic(index, period):
    """The monogenic semigroup x, x^2, ... with x^(index + period) =
    x^index, numbered from 0."""
    n = index + period - 1

    def power(k):
        return k if k < n else index - 1 + (k - index + 1) % period
    return CayleyTable(tuple(tuple(power(i + j + 1) for j in range(n))
                             for i in range(n)))


def _nested(listing):
    # at a nonzero indent, next to a key that sorts before it
    return {"outer": {"n": 0, "violations": listing}}


def _listing_text(rep):
    text = "".join(_parts(_nested(rep)))
    drawn = list(rep.iter_violations())
    # compared line by line: a failing diff of the whole text is slow
    assert text.split("\n") == json.dumps(
        _nested(drawn), indent=2, sort_keys=True).split("\n")
    return text


def test_parts_violation_listings_match_json_dumps():
    # empty; two-digit entries in one slice (3,956 rows); and 17,162 rows of
    # order 12, where some block straddles a slice boundary
    group = CayleyTable(((0, 1, 2), (1, 2, 0), (2, 0, 1)))
    assert '"violations": []' in _listing_text(check_malcev_condition(group))
    for index, period, count in ((3, 9, 3_956), (4, 9, 17_162)):
        rep = check_malcev_condition(_monogenic(index, period))
        assert rep.violation_count == count
        assert max(map(max, rep.iter_violations())) >= 10
        _listing_text(rep)
    ends = set(accumulate(len(uvs) * len(anchors)
                          for _, uvs, anchors in rep.blocks()))
    boundaries = range(_SLICE, count, _SLICE)
    assert len(boundaries) == 4 and not ends.issuperset(boundaries)


def test_parts_split_violation_blocks_longer_than_a_slice(monkeypatch):
    # blocks of up to 26 rows, written in parts of 7 rows or more that
    # end at a head, so a block is split
    monkeypatch.setattr(cli, "_SLICE", 7)
    rep = check_malcev_condition(_monogenic(3, 9))
    assert max(len(uvs) * len(anchors)
               for _, uvs, anchors in rep.blocks()) > 7
    _listing_text(rep)


def test_parts_draw_a_violation_listing_one_slice_at_a_time(monkeypatch):
    rep = check_malcev_condition(_monogenic(4, 9))
    biggest = max(len(uvs) * len(anchors) for _, uvs, anchors in rep.blocks())
    drawn = []
    blocks = MalcevReport.blocks

    def counted(report):
        for block in blocks(report):
            drawn.append(len(block[1]) * len(block[2]))
            yield block
    monkeypatch.setattr(MalcevReport, "blocks", counted)
    parts = _parts({"violations": rep})
    text = next(parts)                          # the key
    assert drawn == []
    text += next(parts) + next(parts)           # "[" and the first slice
    assert _SLICE <= sum(drawn) < _SLICE + biggest
    text += "".join(parts)
    assert sum(drawn) == rep.violation_count
    assert text.split("\n") == json.dumps({"violations": rep.violations},
                                          indent=2).split("\n")


def test_listing_parts_hold_whole_heads_of_about_a_slice(monkeypatch):
    # rank1_universe(1, 11) has blocks of one anchor and blocks of eleven,
    # and the monogenic table blocks of several anchors only; written with
    # parts of 1, 7 and the default _SLICE rows, each listing is
    # json.dumps's text, and every part but the last holds from _SLICE to
    # fewer than _SLICE + n^2 rows
    anchor_counts = []
    for t in (rank1_universe(1, 11).table, _monogenic(4, 9)):
        rep = check_malcev_condition(t)
        anchor_counts.append({len(anchors) for _, _, anchors in rep.blocks()})
        want = json.dumps(list(rep.iter_violations()), indent=2)
        for size in (1, 7, _SLICE):
            monkeypatch.setattr(cli, "_SLICE", size)
            parts = list(_parts(rep))
            assert "".join(parts) == want
            # a row's closing "]" is the only one in its part
            rows = [part.count("]") for part in parts[1:-1:2]]
            assert sum(rows) == rep.violation_count
            assert all(size <= k < size + t.n ** 2 for k in rows[:-1])
            assert 0 < rows[-1] < size + t.n ** 2
    assert anchor_counts[0] == {1, 11} and 1 not in anchor_counts[1]


def test_listing_text_caches_stay_bounded(monkeypatch):
    # with _FILLED at 1 and 40 the listing is unchanged, and each text
    # cache keeps at most max(_FILLED, n^2) texts: it holds up to maxsize
    # key tuples of at most n^2 keys each
    caches = []
    lru_cache = cli.lru_cache

    def recorded(maxsize):
        def wrap(texts):
            caches.append(lru_cache(maxsize)(texts))
            return caches[-1]
        return wrap
    monkeypatch.setattr(cli, "lru_cache", recorded)
    t = rank1_universe(1, 11).table
    rep = check_malcev_condition(t)
    want = json.dumps(list(rep.iter_violations()), indent=2)
    for bound in (1, 40):
        monkeypatch.setattr(cli, "_FILLED", bound)
        caches.clear()
        assert "".join(_parts(rep)) == want
        sizes = [cache.cache_info().maxsize for cache in caches]
        assert len(sizes) == 2 and None not in sizes
        assert all(size * t.n ** 2 <= max(bound, t.n ** 2)
                   for size in sizes)
