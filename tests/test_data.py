import json

import pytest

import pubgame
from pubgame import (
    ConfigError,
    Dataset,
    SchemaError,
    SyntheticSpec,
    generate_synthetic,
    ingest,
    normalize_weekly,
    spearman,
    split_pretrain,
    write_jsonl,
)

from helpers import mk_pool


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
    assert [len(p) for p in ds.pools] == [2, 1]
    assert [p.week for p in ds.pools] == [0, 1]
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
        [record(0, "2024-01-01T00:00:00"), record(1, "2024-03-04T00:00:00")],
    )
    ds = ingest(path)
    assert [p.week for p in ds.pools] == [0, 1]


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
    path = write_records(
        tmp_path / "aware.jsonl",
        [record(0, "2024-01-01T00:00:00+00:00"), record(1, "2024-01-08T09:30:00-05:00")],
    )
    ds = ingest(path)
    assert ds.n_weeks == 2
    assert ds.metadata["span"] == ["2024-01-01T00:00:00+00:00", "2024-01-08T09:30:00-05:00"]


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


def test_normalize_weekly_sets_week_max_and_flags_zero_weeks(tmp_path):
    path = write_records(
        tmp_path / "data.jsonl",
        [
            record(0, "2024-01-01T00:00:00", view_count=50),
            record(1, "2024-01-02T00:00:00", view_count=25),
            record(2, "2024-01-08T00:00:00", view_count=0),
        ],
    )
    ds = normalize_weekly(ingest(path))
    assert [q.u_f_norm for q in ds.pools[0].questions] == [1.0, 0.5]
    assert [q.u_f_norm for q in ds.pools[1].questions] == [0.0]
    assert ds.metadata["zero_view_weeks"] == [1]
    again = normalize_weekly(ds)
    assert again.pools == ds.pools


def test_split_pretrain_partitions_and_reindexes():
    ds = Dataset(pools=tuple(mk_pool(w, [(10, 1.0), (20, 2.0)]) for w in range(10)))
    train, val, sim = split_pretrain(ds, 5)
    assert (train.n_weeks, val.n_weeks, sim.n_weeks) == (4, 1, 5)
    assert train.metadata["source_weeks"] == [0, 1, 2, 3]
    assert val.metadata["source_weeks"] == [4]
    assert sim.metadata["source_weeks"] == [5, 6, 7, 8, 9]
    for split in (train, val, sim):
        assert [p.week for p in split.pools] == list(range(split.n_weeks))
    total = train.n_weeks + val.n_weeks + sim.n_weeks
    assert total == ds.n_weeks


def test_split_pretrain_shares_question_objects_with_parent():
    ds = Dataset(pools=tuple(mk_pool(w, [(10, 1.0), (20, 2.0)]) for w in range(10)))
    splits = split_pretrain(ds, 5)
    pools = [pool for split in splits for pool in split.pools]
    assert len(pools) == ds.n_weeks
    for parent, child in zip(ds.pools, pools):
        assert child.questions is parent.questions
        assert all(a is b for a, b in zip(child.questions, parent.questions))
        assert child.norm_stat == parent.norm_stat


def test_split_pretrain_validation():
    ds = Dataset(pools=tuple(mk_pool(w, [(10, 1.0)]) for w in range(6)))
    with pytest.raises(ConfigError):
        split_pretrain(ds, 1)
    with pytest.raises(ConfigError):
        split_pretrain(ds, 6)
    with pytest.raises(ConfigError):
        split_pretrain(ds)  # pretrain_window defaults to 0


def test_split_pretrain_uses_dataset_window():
    ds = Dataset(
        pools=tuple(mk_pool(w, [(10, 1.0)]) for w in range(6)), pretrain_window=3
    )
    train, val, sim = split_pretrain(ds)
    assert (train.n_weeks, val.n_weeks, sim.n_weeks) == (2, 1, 3)


def test_generate_synthetic_shape_and_determinism():
    spec = SyntheticSpec(weeks=4, questions_per_week=25, seed=11)
    ds = generate_synthetic(spec)
    assert ds.n_weeks == 4
    assert all(len(p) == 25 for p in ds.pools)
    ids = [q.id for q in ds.questions()]
    assert len(set(ids)) == 100
    assert all(q.domain == "synthetic" for q in ds.questions())
    assert all(q.u_g > 0 and q.view_count >= 0 for q in ds.questions())
    assert generate_synthetic(spec).pools == ds.pools
    other = generate_synthetic(SyntheticSpec(weeks=4, questions_per_week=25, seed=12))
    assert other.pools != ds.pools


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
    views = [q.view_count for q in ds.questions()]
    utils = [q.u_g for q in ds.questions()]
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
    views = [q.view_count for q in ds.questions()]
    utils = [q.u_g for q in ds.questions()]
    assert abs(spearman(views, utils).rho - 0.5) < 0.05


def test_generate_synthetic_topic_effect_shifts_views():
    ds = generate_synthetic(
        SyntheticSpec(weeks=6, questions_per_week=200, topic_effect=3.0, seed=2)
    )
    # the positive view shift lands on the second topic (beta vocabulary)
    hot, cold = [], []
    for q in ds.questions():
        tokens = q.text.split()
        alpha = sum(t.startswith("alpha") for t in tokens)
        beta = sum(t.startswith("beta") for t in tokens)
        if beta > alpha:
            hot.append(q.view_count)
        elif alpha > beta:
            cold.append(q.view_count)
    assert sum(hot) / len(hot) > 3 * sum(cold) / len(cold)


def test_write_jsonl_round_trip(tmp_path):
    spec = SyntheticSpec(weeks=3, questions_per_week=12, utility_correlation=0.3, seed=5)
    ds = generate_synthetic(spec)
    path = tmp_path / "synth.jsonl"
    write_jsonl(ds, path)
    back = ingest(path)
    assert back.n_weeks == ds.n_weeks
    for orig_pool, back_pool in zip(ds.pools, back.pools):
        assert orig_pool.week == back_pool.week
        assert orig_pool.questions == back_pool.questions


def test_write_jsonl_is_byte_deterministic(tmp_path):
    ds = generate_synthetic(SyntheticSpec(weeks=2, questions_per_week=9, seed=1))
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_jsonl(ds, a)
    write_jsonl(ds, b)
    assert a.read_bytes() == b.read_bytes()


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(pools=())
    pool0 = mk_pool(0, [(10, 1.0)])
    with pytest.raises(ValueError):
        Dataset(pools=(pool0, mk_pool(2, [(10, 1.0)])))
    with pytest.raises(ValueError):
        Dataset(pools=(pool0,), pretrain_window=5)
