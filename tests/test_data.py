import csv
import dataclasses
import json
import math
import sys
import tempfile
import tracemalloc
from datetime import date, datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import pubgame
from pubgame import (
    ConfigError,
    Dataset,
    RoundPool,
    SchemaError,
    SyntheticSpec,
    generate_synthetic,
    ingest,
    normalize_weekly,
    set_utility,
    spearman,
    split_pretrain,
    write_jsonl,
)

from helpers import mk_pool, mk_week, ref_generate_synthetic, ref_ingest


def rows(ds):
    """The dataset's question rows, week by week."""
    return [q for pool in ds.pools for q in pool.questions]


def record(i, ts, **kw):
    rec = {
        "id": f"r{i}",
        "timestamp": ts,
        "domain": kw.pop("domain", "dba"),
        "title": f"title {i}",
        "body": f"body {i}",
        "view_count": kw.pop("view_count", 10 * (i + 1)),
        "u_g": kw.pop("u_g", float(i + 1)),
    }
    rec.update(kw)
    return rec


def write_records(path, records):
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n")
    return path


def test_ingest_groups_by_iso_week(tmp_path):
    path = write_records(
        tmp_path / "data.jsonl",
        [
            record(0, "2024-01-01T09:00:00"),
            record(1, "2024-01-05T23:00:00"),
            record(2, "2024-01-08T00:00:00"),
        ],
    )
    ds = ingest(path)
    assert ds.n_weeks == 2
    assert [p.ids for p in ds.pools] == [("r0", "r1"), ("r2",)]
    assert ds.metadata["n_questions"] == 3
    assert ds.metadata["domains"] == {"dba": 3}
    assert ds.metadata["iso_weeks"] == [[2024, 1], [2024, 2]]


def test_ingest_splits_iso_year_boundary(tmp_path):
    # Sunday 2023-12-31 is ISO week 52 of 2023; Monday 2024-01-01 opens week 1 of 2024
    path = write_records(
        tmp_path / "data.jsonl",
        [record(0, "2023-12-31T10:00:00"), record(1, "2024-01-01T10:00:00")],
    )
    ds = ingest(path)
    assert ds.n_weeks == 2


def test_ingest_weeks_are_contiguous_even_with_gaps(tmp_path):
    path = write_records(
        tmp_path / "data.jsonl",
        [record(1, "2024-03-04T00:00:00"), record(0, "2024-01-01T00:00:00")],
    )
    ds = ingest(path)
    assert [p.ids for p in ds.pools] == [("r0",), ("r1",)]


def test_ingest_csv(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text(
        "id,timestamp,domain,title,body,view_count,u_g,forum_score\n"
        "c1,2024-01-01T00:00:00,dba,t one,b one,5,1.5,0.25\n"
        "c2,2024-01-02T00:00:00,dba,t two,b two,7,2.5,\n"
    )
    ds = ingest(path)
    qs = ds.pools[0].questions
    assert [q.id for q in qs] == ["c1", "c2"]
    assert qs[0].forum_score == 0.25
    assert qs[1].forum_score is None
    assert qs[1].view_count == 7


def test_ingest_format_inference_and_override(tmp_path):
    path = write_records(tmp_path / "data.txt", [record(0, "2024-01-01T00:00:00")])
    with pytest.raises(ConfigError):
        ingest(path)
    assert ingest(path, fmt="jsonl").n_weeks == 1
    with pytest.raises(ConfigError):
        ingest(path, fmt="parquet")


def test_ingest_missing_u_g_names_the_remedy(tmp_path):
    rec = record(0, "2024-01-01T00:00:00")
    del rec["u_g"]
    path = write_records(tmp_path / "data.jsonl", [rec])
    with pytest.raises(SchemaError, match="proposer utility"):
        ingest(path)


def test_ingest_reports_line_numbers(tmp_path):
    rec = record(0, "2024-01-01T00:00:00")
    bad = dict(record(1, "2024-01-01T01:00:00"), view_count="many")
    path = write_records(tmp_path / "data.jsonl", [rec, bad])
    with pytest.raises(SchemaError, match="line 2"):
        ingest(path)


def test_ingest_rejects_bad_records(tmp_path):
    cases = [
        dict(record(0, "not a date")),
        dict(record(0, "2024-01-01T00:00:00"), view_count=-3),
        dict(record(0, "2024-01-01T00:00:00"), u_g=-1.0),
        dict(record(0, "2024-01-01T00:00:00"), title=None),
        dict(record(0, "2024-01-01T00:00:00"), forum_score="high"),
    ]
    for i, rec in enumerate(cases):
        path = write_records(tmp_path / f"bad{i}.jsonl", [rec])
        with pytest.raises(SchemaError):
            ingest(path)


def test_ingest_rejects_mixed_timestamp_kinds(tmp_path):
    path = tmp_path / "mixed.csv"
    path.write_text(
        "id,timestamp,domain,title,body,view_count,u_g\n"
        "c1,2024-01-01T00:00:00,dba,t one,b one,5,1.5\n"
        "c2,2024-01-02T00:00:00+02:00,dba,t two,b two,7,2.5\n"
    )
    with pytest.raises(SchemaError, match="mixed.csv line 3: timestamp is offset-aware"):
        ingest(path)


def test_ingest_accepts_offset_aware_timestamps(tmp_path):
    records = [record(0, "2024-01-01T00:00:00+00:00"), record(1, "2024-01-08T09:30:00-05:00")]
    ds = ingest(write_records(tmp_path / "aware.jsonl", records))
    assert ds.n_weeks == 2
    assert ds.metadata["span"] == ["2024-01-01T00:00:00+00:00", "2024-01-08T09:30:00-05:00"]
    # an equal instant read later does not replace the span's end
    records.append(record(2, "2024-01-08T15:30:00+01:00"))
    tied = ingest(write_records(tmp_path / "tied.jsonl", records))
    assert tied.metadata["span"] == ds.metadata["span"]


def test_ingest_metadata_of_unordered_multi_domain_csv(tmp_path):
    # recorded from the ingest that grouped a list of record dicts
    path = tmp_path / "forum.csv"
    path.write_text(
        "id,timestamp,domain,title,body,view_count,u_g,forum_score\n"
        "c1,2024-01-10T08:00:00,physics,t one,b one,5,1.5,0.25\n"
        "c2,2024-01-02T09:00:00,cooking,t two,b two,7,2.5,\n"
        "c3,2023-12-31T23:00:00,physics,t three,b three,0,1.0,0.5\n"
        "c4,2024-01-09T10:00:00,law,t four,b four,3,0.5,-0.75\n"
        "c5,2024-01-02T09:00:00,cooking,t five,b five,9,2.0,1e-3\n"
    )
    ds = ingest(path)
    assert ds.metadata == {
        "source": str(path),
        "format": "csv",
        "n_questions": 5,
        "n_weeks": 3,
        "domains": {"physics": 2, "cooking": 2, "law": 1},
        "span": ["2023-12-31T23:00:00", "2024-01-10T08:00:00"],
        "iso_weeks": [[2023, 52], [2024, 1], [2024, 2]],
    }
    assert list(ds.metadata["domains"]) == ["physics", "cooking", "law"]
    assert [[q.id for q in p.questions] for p in ds.pools] == [
        ["c3"], ["c2", "c5"], ["c1", "c4"]
    ]
    assert [q.forum_score for q in rows(ds)] == [0.5, None, 0.001, 0.25, -0.75]


def test_ingest_rejects_duplicates_and_empty(tmp_path):
    rec = record(0, "2024-01-01T00:00:00")
    path = write_records(tmp_path / "dup.jsonl", [rec, rec])
    with pytest.raises(SchemaError, match="duplicate"):
        ingest(path)
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    with pytest.raises(SchemaError, match="no records"):
        ingest(empty)
    malformed = tmp_path / "malformed.jsonl"
    malformed.write_text('{"id": "x",\n')
    with pytest.raises(SchemaError, match="bad JSON"):
        ingest(malformed)


_COLUMNS = ["id", "timestamp", "domain", "title", "body", "view_count", "u_g", "forum_score"]


def write_rows(path, rows):
    """Records as JSONL, or as CSV with every column (a field a record
    lacks is an empty cell); a string row is a raw JSONL line."""
    if path.suffix == ".jsonl":
        path.write_text("".join(r if isinstance(r, str) else json.dumps(r) + "\n" for r in rows))
        return path
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=_COLUMNS, restval="")
        writer.writeheader()
        writer.writerows(rows)
    return path


def _without(name):
    rec = record(1, "2024-01-01T01:00:00")
    del rec[name]
    return rec


def _bad(**kw):
    return record(1, kw.pop("ts", "2024-01-01T01:00:00"), **kw)


_LONG_DIGITS = 5001


def _long_integer_line(name):
    """A raw JSONL record whose ``name`` is an integer of
    ``_LONG_DIGITS`` nines, which json.dumps would refuse to write."""
    return json.dumps(_bad(**{name: "LONG"})).replace('"LONG"', "9" * _LONG_DIGITS) + "\n"


_UG_REMEDY = (
    "missing proposer utility 'u_g'; supply the column or map one via the run "
    "configuration before ingesting"
)

# (records after one good record, JSONL message, CSV message), each
# message recorded from the reader that built a record's location before
# checking it; the bad record is JSONL line 2 and CSV line 3
PINNED_ERRORS = {
    "bad JSON": (
        ['{"id": "x",\n'],
        "data.jsonl line 2: bad JSON (Expecting property name enclosed in double quotes)",
        None,
    ),
    "non-object line": (["[1, 2]\n"], "data.jsonl line 2: expected an object", None),
    **{
        f"missing {name}": (
            [_without(name)],
            f"data.jsonl line 2: missing required field {name!r}",
            f"data.csv line 3: missing required field {name!r}",
        )
        for name in ("id", "timestamp", "domain", "title", "body", "view_count")
    },
    "missing u_g": (
        [_without("u_g")],
        f"data.jsonl line 2: {_UG_REMEDY}",
        f"data.csv line 3: {_UG_REMEDY}",
    ),
    "bool view_count": (
        [_bad(view_count=True)],
        "data.jsonl line 2: view_count True is not an integer",
        "data.csv line 3: view_count 'True' is not an integer",
    ),
    "3.5 view_count": (
        [_bad(view_count=3.5)],
        "data.jsonl line 2: view_count 3.5 is not an integer",
        "data.csv line 3: view_count '3.5' is not an integer",
    ),
    "negative view_count": (
        [_bad(view_count=-3)],
        "data.jsonl line 2: view_count must be >= 0",
        "data.csv line 3: view_count '-3' is not an integer",
    ),
    "string view_count": (
        [_bad(view_count="many")],
        "data.jsonl line 2: view_count 'many' is not an integer",
        "data.csv line 3: view_count 'many' is not an integer",
    ),
    # a string view count is ASCII digits only, though int() takes more
    **{
        f"{value!r} view_count": (
            [_bad(view_count=value)],
            f"data.jsonl line 2: view_count {value!r} is not an integer",
            f"data.csv line 3: view_count {value!r} is not an integer",
        )
        for value in ("1_000", " 8", "8 ", "+5", "-3", "\u0663", "\uff18")
    },
    "NaN u_g": (
        [_bad(u_g=float("nan"))],
        "data.jsonl line 2: u_g nan is not a finite number",
        "data.csv line 3: u_g 'nan' is not a finite number",
    ),
    "infinite u_g": (
        [_bad(u_g=float("inf"))],
        "data.jsonl line 2: u_g inf is not a finite number",
        "data.csv line 3: u_g 'inf' is not a finite number",
    ),
    "bool u_g": (
        [_bad(u_g=True)],
        "data.jsonl line 2: u_g True is not a number",
        "data.csv line 3: u_g 'True' is not a number",
    ),
    "negative u_g": (
        [_bad(u_g=-1.0)],
        "data.jsonl line 2: u_g must be >= 0",
        "data.csv line 3: u_g must be >= 0",
    ),
    "non-numeric forum_score": (
        [_bad(forum_score="high")],
        "data.jsonl line 2: forum_score 'high' is not a number",
        "data.csv line 3: forum_score 'high' is not a number",
    ),
    "bad timestamp": (
        [_bad(ts="not a date")],
        "data.jsonl line 2: bad timestamp 'not a date'; expected ISO-8601",
        "data.csv line 3: bad timestamp 'not a date'; expected ISO-8601",
    ),
    "mixed timestamp kinds": (
        [_bad(ts="2024-01-02T00:00:00+02:00")],
        "data.jsonl line 2: timestamp is offset-aware but data.jsonl line 1's is "
        "naive; use one timestamp kind per file",
        "data.csv line 3: timestamp is offset-aware but data.csv line 2's is "
        "naive; use one timestamp kind per file",
    ),
    # numbers past the float range, which ended in an OverflowError
    # without a location before they were refused here
    # a value echoed in a message is cut after 40 characters
    "oversized u_g": (
        [_bad(u_g=10**400)],
        f"data.jsonl line 2: u_g 1{'0' * 39}... (401 characters) is not a finite number",
        f"data.csv line 3: u_g '1{'0' * 38}... (403 characters) is not a finite number",
    ),
    "oversized forum_score": (
        [_bad(forum_score=-(10**400))],
        f"data.jsonl line 2: forum_score -1{'0' * 38}... (402 characters) is not a finite number",
        f"data.csv line 3: forum_score '-1{'0' * 37}... (404 characters) is not a finite number",
    ),
    "oversized view_count": (
        [_bad(view_count=10**400)],
        f"data.jsonl line 2: view_count 1{'0' * 39}... (401 characters) is too large for a float",
        f"data.csv line 3: view_count 1{'0' * 39}... (401 characters) is too large for a float",
    ),
    # integers longer than int() reads, which let a ValueError without a
    # location escape the JSON reader before they were refused here
    **{
        f"{_LONG_DIGITS} digit {name}": (
            [_long_integer_line(name)],
            f"data.jsonl line 2: bad JSON (an integer of more than "
            f"{sys.get_int_max_str_digits()} digits)",
            None,
        )
        for name in ("u_g", "view_count")
    },
    f"{_LONG_DIGITS} digit string u_g": (
        [_bad(u_g="9" * _LONG_DIGITS)],
        f"data.jsonl line 2: u_g '{'9' * 39}... (5003 characters) is not a finite number",
        f"data.csv line 3: u_g '{'9' * 39}... (5003 characters) is not a finite number",
    ),
    f"{_LONG_DIGITS} digit string view_count": (
        [_bad(view_count="9" * _LONG_DIGITS)],
        f"data.jsonl line 2: view_count '{'9' * 39}... (5003 characters) is not an integer",
        f"data.csv line 3: view_count '{'9' * 39}... (5003 characters) is not an integer",
    ),
    "long bad timestamp": (
        [_bad(ts="x" * 50)],
        f"data.jsonl line 2: bad timestamp '{'x' * 39}... (52 characters); expected ISO-8601",
        f"data.csv line 3: bad timestamp '{'x' * 39}... (52 characters); expected ISO-8601",
    ),
    # a domain is printed by name, one to a line
    "domain with a line break": (
        [_bad(domain="x\ny")],
        "data.jsonl line 2: domain 'x\\ny' holds a non-printable character",
        "data.csv line 3: domain 'x\\ny' holds a non-printable character",
    ),
    "domain with an escape sequence": (
        [_bad(domain="\x1b[31mred")],
        "data.jsonl line 2: domain '\\x1b[31mred' holds a non-printable character",
        "data.csv line 3: domain '\\x1b[31mred' holds a non-printable character",
    ),
    "duplicate before a malformed record": (
        [_bad(), record(0, "2024-01-01T02:00:00"), record(2, "2024-01-01T03:00:00", view_count="many")],
        "duplicate question id 'r0'",
        "duplicate question id 'r0'",
    ),
}


@pytest.mark.parametrize(
    "fmt, rows, message",
    [
        pytest.param(fmt, rows, message, id=f"{fmt}-{case}")
        for case, (rows, *messages) in PINNED_ERRORS.items()
        for fmt, message in zip(("jsonl", "csv"), messages)
        if message is not None
    ],
)
def test_ingest_error_messages_are_pinned(tmp_path, fmt, rows, message):
    path = write_rows(tmp_path / f"data.{fmt}", [record(0, "2024-01-01T00:00:00"), *rows])
    with pytest.raises(SchemaError) as err:
        ingest(path)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "text, message",
    [
        (
            "id,timestamp,domain,title,body,view_count\nr0,2024-01-01T00:00:00,dba,t,b,5\n",
            "data.csv: missing proposer utility column 'u_g'; supply the column or "
            "map one via the run configuration",
        ),
        (
            "id,timestamp,domain,title,view_count,u_g\nr0,2024-01-01T00:00:00,dba,t,5,1.0\n",
            "data.csv: missing columns ['body']",
        ),
        ("", "data.csv: empty file"),
        ("id,timestamp,domain,title,body,view_count,u_g\n", "data.csv: no records"),
    ],
)
def test_ingest_csv_file_error_messages_are_pinned(tmp_path, text, message):
    path = tmp_path / "data.csv"
    path.write_text(text)
    with pytest.raises(SchemaError) as err:
        ingest(path)
    assert str(err.value) == message


_TEXT = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"), max_size=5
)
_ZONES = st.sampled_from(
    [timezone.utc, timezone(timedelta(hours=-5)), timezone(timedelta(hours=5, minutes=30))]
)
# values a well-formed record may carry, typed as a writer might type them
_GOOD = {
    "domain": st.sampled_from(["dba", "law", "café"]) | st.integers(0, 3),
    "title": _TEXT.filter(bool) | st.integers(),
    "body": _TEXT.filter(bool),
    "view_count": st.integers(0, 10**9) | st.sampled_from(["7", "08", "0"]),
    "u_g": st.floats(0, 1e9) | st.integers(0, 100) | st.sampled_from(["1.5", " 2", "1e-3", -0.0]),
    "forum_score": st.none() | st.just("") | st.floats(allow_nan=False, allow_infinity=False)
    | st.integers(-5, 5),
}
# values that fail a check, or pass one only through the general conversion
_ODD = {
    "id": st.sampled_from([None, "", "q0", 0, 1.5, True]),
    "timestamp": st.sampled_from([None, "", "not a date", "2024-02-30", 20240101, True]),
    "domain": st.sampled_from([None, "", [1], {"a": 1}]),
    "title": st.sampled_from([None, "", False]),
    "body": st.sampled_from([None, "", 0.0]),
    "view_count": st.sampled_from(
        [None, "", True, -1, 3.5, "many", "7.0", " 8", "1_000", "+5", "-3", "\u0663",
         float("nan"), float("inf"), [1], 2**70]
    ),
    "u_g": st.sampled_from(
        [None, "", float("nan"), float("inf"), -1.0, -2, True, "x", "nan", "-1", [1.0]]
    ),
    "forum_score": st.sampled_from(["high", float("nan"), float("-inf"), True, "inf", {}]),
}


@st.composite
def _dataset_rows(draw, fmt):
    """Rows of one dataset file: well-formed records with edge-typed
    values, and in some files records with an odd value, a missing
    field, a duplicate id or another timestamp kind; JSONL files also
    get blank lines, padded lines and lines that are not one object."""
    aware = draw(st.booleans())
    flawed = draw(st.booleans())
    rows = []
    for i in range(draw(st.integers(1, 8))):
        # few instants, so that equal ones (in other zones) recur
        days, hours = draw(st.integers(0, 90)), draw(st.sampled_from([0, 12, 23]))
        stamp = datetime(2023, 12, 1) + timedelta(days=days, hours=hours)
        if aware:
            stamp = stamp.replace(tzinfo=timezone.utc).astimezone(draw(_ZONES))
        rec = {
            "id": draw(st.sampled_from([f"q{i}", i, f"{i}"])),
            "timestamp": stamp.isoformat(sep=draw(st.sampled_from(["T", " "]))),
        }
        rec.update({name: draw(values) for name, values in _GOOD.items()})
        if fmt == "jsonl" and draw(st.booleans()):
            # a whole float is a view count in JSON, not in CSV
            rec["view_count"] = float(rec["view_count"])
        if rec["forum_score"] is None and draw(st.booleans()):
            del rec["forum_score"]
        flaws = [None, "odd", "missing", "duplicate", "kind"] if flawed else [None]
        flaw = draw(st.sampled_from(flaws))
        if flaw == "odd":
            name = draw(st.sampled_from(sorted(_ODD)))
            rec[name] = draw(_ODD[name])
        elif flaw == "missing":
            rec.pop(draw(st.sampled_from(sorted(_ODD))), None)
        elif flaw == "duplicate" and rows:
            rec["id"] = draw(st.sampled_from(rows)).get("id")
        elif flaw == "kind":
            other = stamp.replace(tzinfo=None if aware else timezone.utc)
            rec["timestamp"] = other.isoformat()
        rows.append(rec)
    if fmt == "csv":
        return rows
    lines = []
    ascii_only = draw(st.booleans())
    for rec in rows:
        pad = draw(st.sampled_from(["", " ", "\t"]))
        lines.append(pad + json.dumps(rec, ensure_ascii=ascii_only) + pad + "\n")
        lines.extend(draw(st.lists(st.sampled_from(["\n", "  \n", "\r\n"]), max_size=1)))
        if flawed and draw(st.integers(0, 7)) == 0:
            lines.append(draw(st.sampled_from(['{"id": \n', "[1]\n", "7\n", "{} {}\n"])))
    return lines


def _ingest_rows(path):
    """Each week's rows as tuples, as ``ref_ingest`` gives them."""
    ds = ingest(path)
    return [[dataclasses.astuple(q) for q in pool.questions] for pool in ds.pools], ds.metadata


def _ingest_outcome(read, path):
    try:
        pools, metadata = read(path)
    except SchemaError as e:
        return "SchemaError", str(e)
    # repr tells -0.0 from 0.0, and a float from an int or a NumPy scalar
    return repr(pools), metadata


@settings(max_examples=200, deadline=None)
@given(st.data(), st.sampled_from(["jsonl", "csv"]))
def test_ingest_matches_reference_reader(drawn, fmt):
    rows = drawn.draw(_dataset_rows(fmt))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"data.{fmt}"
        if fmt == "jsonl":
            path.write_text("".join(rows), encoding="utf-8")
        else:
            write_rows(path, rows)
        assert _ingest_outcome(_ingest_rows, path) == _ingest_outcome(ref_ingest, path)


def test_ingest_sets_week_max_and_normalize_flags_zero_weeks(tmp_path):
    path = write_records(
        tmp_path / "data.jsonl",
        [
            record(0, "2024-01-01T00:00:00", view_count=50),
            record(1, "2024-01-02T00:00:00", view_count=25),
            record(2, "2024-01-08T00:00:00", view_count=0),
        ],
    )
    ds = ingest(path)
    assert [q.u_f_norm for q in ds.pools[0].questions] == [1.0, 0.5]
    assert [q.u_f_norm for q in ds.pools[1].questions] == [0.0]
    flagged = normalize_weekly(ds)
    assert flagged.metadata["zero_view_weeks"] == [1]
    assert flagged.pools is ds.pools
    assert normalize_weekly(flagged).metadata == flagged.metadata


def assert_curator_utilities(ds):
    """Each question's u_f_norm is its views over its week's maximum."""
    for pool in ds.pools:
        top = max(q.view_count for q in pool.questions)
        for q in pool.questions:
            assert type(q.u_f_norm) is float
            assert q.u_f_norm == (q.view_count / float(top) if top else 0.0)


@st.composite
def _weekly_records(draw):
    """(records, zero week): a few ISO weeks of records, one week's view
    counts all zero, the rows shuffled."""
    n_weeks = draw(st.integers(1, 4))
    zero_week = draw(st.integers(0, n_weeks - 1))
    rows = []
    for week in range(n_weeks):
        for _ in range(draw(st.integers(1, 6))):
            day = date(2024, 1, 1) + timedelta(weeks=week, days=draw(st.integers(0, 6)))
            views = 0 if week == zero_week else draw(st.integers(0, 10**12))
            rows.append(record(len(rows), f"{day}T12:00:00", view_count=views))
    return draw(st.permutations(rows)), zero_week


@settings(max_examples=60, deadline=None)
@given(_weekly_records(), st.sampled_from(["jsonl", "csv"]))
def test_ingest_sets_every_curator_utility(drawn, fmt):
    records, zero_week = drawn
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"data.{fmt}"
        if fmt == "jsonl":
            write_records(path, records)
        else:
            with path.open("w", newline="") as fh:
                writer = csv.DictWriter(fh, fieldnames=list(records[0]))
                writer.writeheader()
                writer.writerows(records)
        ds = ingest(path)
    assert_curator_utilities(ds)
    assert all(q.u_f_norm == 0.0 for q in ds.pools[zero_week].questions)
    assert zero_week in normalize_weekly(ds).metadata["zero_view_weeks"]


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3), st.integers(1, 30), st.integers(0, 2**32 - 1))
def test_generate_synthetic_sets_every_curator_utility(weeks, per_week, seed):
    assert_curator_utilities(generate_synthetic(SyntheticSpec(weeks, per_week, seed=seed)))


def test_split_pretrain_partitions_and_reindexes():
    ds = Dataset(pools=tuple(mk_pool(w, [(10, 1.0), (20, 2.0)]) for w in range(10)))
    train, val, sim = split_pretrain(ds, 5)
    assert (train.n_weeks, val.n_weeks, sim.n_weeks) == (4, 1, 5)
    assert train.metadata["source_weeks"] == [0, 1, 2, 3]
    assert val.metadata["source_weeks"] == [4]
    assert sim.metadata["source_weeks"] == [5, 6, 7, 8, 9]
    for split in (train, val, sim):
        assert split.pools == tuple(ds.pools[w] for w in split.metadata["source_weeks"])
    total = train.n_weeks + val.n_weeks + sim.n_weeks
    assert total == ds.n_weeks


def test_split_pretrain_shares_columns_with_parent():
    ds = Dataset(pools=tuple(mk_pool(w, [(10, 1.0), (20, 2.0)]) for w in range(10)))
    splits = split_pretrain(ds, 5)
    pools = [pool for split in splits for pool in split.pools]
    assert len(pools) == ds.n_weeks
    for parent, child in zip(ds.pools, pools):
        assert child is parent


def test_split_pretrain_validation():
    ds = Dataset(pools=tuple(mk_pool(w, [(10, 1.0)]) for w in range(6)))
    with pytest.raises(ConfigError):
        split_pretrain(ds, 1)
    with pytest.raises(ConfigError):
        split_pretrain(ds, 6)


def test_generate_synthetic_shape_and_determinism():
    spec = SyntheticSpec(weeks=4, questions_per_week=25, seed=11)
    ds = generate_synthetic(spec)
    assert ds.n_weeks == 4
    assert all(len(p) == 25 for p in ds.pools)
    ids = [q.id for q in rows(ds)]
    assert len(set(ids)) == 100
    assert all(q.domain == "synthetic" for q in rows(ds))
    assert all(q.u_g > 0 and q.view_count >= 0 for q in rows(ds))
    assert generate_synthetic(spec).pools == ds.pools
    other = generate_synthetic(SyntheticSpec(weeks=4, questions_per_week=25, seed=12))
    assert other.pools != ds.pools


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 3),
    st.integers(1, 40),
    st.floats(-1.0, 1.0),
    st.floats(0.0, 3.0),
    st.integers(0, 2**32 - 1),
)
def test_generate_synthetic_matches_per_token_reference(weeks, per_week, rho, effect, seed):
    spec = SyntheticSpec(weeks, per_week, rho, effect, seed)
    try:
        expected = ref_generate_synthetic(spec)
    except ValueError:  # rho unreachable with this topic effect
        assume(False)
    assert generate_synthetic(spec).pools == expected


def test_generate_synthetic_validation():
    with pytest.raises(ValueError):
        SyntheticSpec(weeks=0, questions_per_week=5)
    with pytest.raises(ValueError):
        SyntheticSpec(weeks=2, questions_per_week=0)
    with pytest.raises(ValueError):
        SyntheticSpec(weeks=2, questions_per_week=5, utility_correlation=1.5)
    with pytest.raises(ValueError):
        SyntheticSpec(weeks=2, questions_per_week=5, topic_effect=-1.0)
    with pytest.raises(ValueError, match="unreachable"):
        generate_synthetic(
            SyntheticSpec(
                weeks=2,
                questions_per_week=5,
                utility_correlation=-0.7,
                topic_effect=2.0,
            )
        )


@pytest.mark.parametrize("rho", [-0.5, 0.0, 0.5])
def test_generate_synthetic_hits_correlation_target(rho):
    spec = SyntheticSpec(
        weeks=10, questions_per_week=500, utility_correlation=rho, seed=7
    )
    ds = generate_synthetic(spec)
    views = [q.view_count for q in rows(ds)]
    utils = [q.u_g for q in rows(ds)]
    assert abs(spearman(views, utils).rho - rho) < 0.05


def test_generate_synthetic_correlation_survives_topic_shift():
    spec = SyntheticSpec(
        weeks=10,
        questions_per_week=500,
        utility_correlation=0.5,
        topic_effect=2.0,
        seed=7,
    )
    ds = generate_synthetic(spec)
    views = [q.view_count for q in rows(ds)]
    utils = [q.u_g for q in rows(ds)]
    assert abs(spearman(views, utils).rho - 0.5) < 0.05


def test_generate_synthetic_topic_effect_shifts_views():
    ds = generate_synthetic(
        SyntheticSpec(weeks=6, questions_per_week=200, topic_effect=3.0, seed=2)
    )
    # the positive view shift lands on the second topic (beta vocabulary)
    hot, cold = [], []
    for pool in ds.pools:
        for text, views in zip(pool.texts(), pool.view_counts):
            tokens = text.split()
            alpha = sum(t.startswith("alpha") for t in tokens)
            beta = sum(t.startswith("beta") for t in tokens)
            if beta > alpha:
                hot.append(views)
            elif alpha > beta:
                cold.append(views)
    assert sum(hot) / len(hot) > 3 * sum(cold) / len(cold)


def test_write_jsonl_round_trip(tmp_path):
    spec = SyntheticSpec(weeks=3, questions_per_week=12, utility_correlation=0.3, seed=5)
    ds = generate_synthetic(spec)
    path = tmp_path / "synth.jsonl"
    write_jsonl(ds, path)
    assert ingest(path) == ds


@st.composite
def _records(draw):
    """JSONL records with unique ids, spread over a few years of weeks."""
    n = draw(st.integers(1, 15))
    ids = draw(st.lists(st.text(min_size=1, max_size=6), min_size=n, max_size=n, unique=True))
    text = st.text(min_size=1, max_size=12)
    # a domain is printable: no category C or Z character but the space
    printable = st.characters(
        exclude_categories=("Cc", "Cf", "Cs", "Co", "Cn", "Zl", "Zp", "Zs"), include_characters=" "
    )
    domain = st.text(printable, min_size=1, max_size=12)
    finite = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
    out = []
    for rid in ids:
        stamp = draw(st.datetimes(datetime(2023, 1, 1), datetime(2025, 12, 31)))
        rec = {
            "id": rid,
            "timestamp": stamp.isoformat(),
            "domain": draw(domain),
            "title": draw(text),
            "body": draw(text),
            "view_count": draw(st.integers(0, 10**12)),
            "u_g": draw(finite),
        }
        score = draw(st.none() | st.floats(allow_nan=False, allow_infinity=False))
        if score is not None:
            rec["forum_score"] = score
        out.append(rec)
    return out


@settings(max_examples=100, deadline=None)
@given(_records())
def test_ingest_write_jsonl_ingest_is_identity(records):
    with tempfile.TemporaryDirectory() as tmp:
        ds = ingest(write_records(Path(tmp) / "in.jsonl", records))
        write_jsonl(ds, Path(tmp) / "out.jsonl")
        back = ingest(Path(tmp) / "out.jsonl")
    assert [[q.id for q in p.questions] for p in back.pools] == [
        [q.id for q in p.questions] for p in ds.pools
    ]
    assert back.pools == ds.pools
    assert sorted(q.id for q in rows(back)) == sorted(r["id"] for r in records)


def test_write_jsonl_is_byte_deterministic(tmp_path):
    ds = generate_synthetic(SyntheticSpec(weeks=2, questions_per_week=9, seed=1))
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_jsonl(ds, a)
    write_jsonl(ds, b)
    assert a.read_bytes() == b.read_bytes()


def test_write_jsonl_writes_json_dumps_of_each_record(tmp_path):
    week0 = mk_week([
        (0, {"title": "caf\u00e9 \u2603 \U0001f600", "body": 'quote " slash \\ tab \t nl \n nul \x00'}),
        (1, {"views": 0, "u_g": 0.1, "forum_score": -0.0, "domain": "\u00fcber"}),
    ])
    week1 = mk_week([(2, {"views": 7, "u_g": 1e300, "forum_score": 0.25})])
    ds = Dataset(pools=(week0, week1))
    path = tmp_path / "out.jsonl"
    write_jsonl(ds, path)
    lines = []
    for t, pool in enumerate(ds.pools):
        stamp = (datetime(2024, 1, 1, 12) + timedelta(weeks=t)).isoformat()
        for q in pool.questions:
            rec = {
                "id": q.id, "timestamp": stamp, "domain": q.domain, "title": q.title,
                "body": q.body, "view_count": q.view_count, "u_g": q.u_g,
            }
            if q.forum_score is not None:
                rec["forum_score"] = q.forum_score
            lines.append(json.dumps(rec, sort_keys=True))
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()
    assert ingest(path) == ds


_ODD_CHARS = st.sampled_from(
    ['"', "\\", "\x00", "\x1f", "\x7f", "\ud800", "\udfff", "\u2028", "\U0001f600"]
)
# any code point, lone surrogates included, with escapes drawn often
_ANY_TEXT = st.text(st.characters(exclude_categories=()) | _ODD_CHARS, max_size=10)


@st.composite
def _writable_datasets(draw):
    """Datasets of a few weeks, built from columns, whose values reach the
    corners of the JSON encoder's formatting."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    ids = iter(draw(st.lists(_ANY_TEXT, min_size=sum(sizes), max_size=sum(sizes), unique=True)))
    u_g = st.sampled_from([-0.0, 5e-324, 1e300]) | st.floats(0.0, allow_infinity=False)
    score = (
        st.none()
        | st.sampled_from([-0.0, -5e-324, -1e300])
        | st.floats(allow_nan=False, allow_infinity=False)
    )
    pools = []
    for n in sizes:
        views = draw(st.lists(st.integers(0, 10**300), min_size=n, max_size=n))
        texts = [draw(st.lists(_ANY_TEXT, min_size=n, max_size=n)) for _ in range(3)]
        scores = draw(st.lists(score, min_size=n, max_size=n))
        scores = [math.nan if s is None else s for s in scores]
        pools.append(RoundPool(
            [next(ids) for _ in range(n)], *texts, views,
            draw(st.lists(u_g, min_size=n, max_size=n)), set_utility(views), scores,
        ))
    return Dataset(pools=tuple(pools))


@settings(max_examples=100, deadline=None)
@given(_writable_datasets())
def test_write_jsonl_writes_json_dumps_of_each_record_property(ds):
    lines = []
    for t, pool in enumerate(ds.pools):
        stamp = (datetime(2024, 1, 1, 12) + timedelta(weeks=t)).isoformat()
        for qid, domain, title, body, views, u_g, score in zip(
            pool.ids, pool.domains, pool.titles, pool.bodies, pool.view_counts,
            pool.u_g.tolist(), pool.forum_score.tolist(),
        ):
            rec = {"id": qid, "timestamp": stamp, "domain": domain, "title": title,
                   "body": body, "view_count": views, "u_g": u_g}
            if not math.isnan(score):
                rec["forum_score"] = score
            lines.append(json.dumps(rec, sort_keys=True))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.jsonl"
        write_jsonl(ds, path)
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()


def test_write_jsonl_peak_memory_is_under_a_quarter_of_its_file(tmp_path):
    ds = generate_synthetic(SyntheticSpec(weeks=65, questions_per_week=400, seed=0))
    path = tmp_path / "out.jsonl"
    tracemalloc.start()
    try:
        write_jsonl(ds, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size / 4


def test_dataset_validation():
    with pytest.raises(ValueError, match="^dataset has no weeks$"):
        Dataset(pools=())
