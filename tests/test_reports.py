import pytest

from pubgame import (
    ConfigError,
    Dataset,
    GameLedger,
    ResultsTable,
    SelectionOutcome,
    SyntheticSpec,
    asymmetric_table,
    compute_eurr,
    full_information_table,
    generate_synthetic,
    misalignment_report,
    misalignment_table,
    normalize_weekly,
    significance_table,
)
from pubgame.core import RoundPool

from helpers import mk_q


def _domain_dataset():
    # two domains, views anti-correlated with u_g in one, aligned in the other
    pools = []
    for week in range(2):
        qs = []
        for i in range(6):
            qs.append(
                mk_q(
                    f"a{week}{i}",
                    views=10 * (i + 1),
                    u_g=float(6 - i),
                    domain="anti",
                )
            )
        for i in range(6):
            qs.append(
                mk_q(
                    f"p{week}{i}",
                    views=10 * (i + 1),
                    u_g=float(i + 1),
                    domain="pro",
                )
            )
        pools.append(RoundPool(week=week, questions=tuple(qs)))
    return normalize_weekly(Dataset(pools=tuple(pools)))


def test_misalignment_report_per_domain_and_pooled():
    report = misalignment_report(_domain_dataset())
    by_domain = {row.domain: row.result.rho for row in report.rows}
    assert by_domain["anti"] == -1.0
    assert by_domain["pro"] == 1.0
    assert set(by_domain) == {"anti", "pro", "all"}
    assert report.mean_rho == pytest.approx((by_domain["all"] - 1.0 + 1.0) / 3)
    assert report.skipped == ()


def test_misalignment_report_single_domain_has_no_all_row():
    ds = generate_synthetic(SyntheticSpec(weeks=3, questions_per_week=20, seed=0))
    report = misalignment_report(normalize_weekly(ds))
    assert [row.domain for row in report.rows] == ["synthetic"]
    assert report.std_rho == 0.0


def test_misalignment_report_external_utility_columns():
    ds = _domain_dataset()
    n = sum(len(p) for p in ds.pools)
    cols = {
        "views_again": [float(q.view_count) for q in ds.questions()],
        "flat_noise": [float((i * 7) % 5) for i in range(n)],
    }
    report = misalignment_report(ds, utilities=cols)
    views_rows = [r for r in report.rows if r.utility == "views_again"]
    assert all(r.result.rho == 1.0 for r in views_rows)
    with pytest.raises(ConfigError):
        misalignment_report(ds, utilities={"short": [1.0, 2.0]})


def test_misalignment_report_skips_degenerate_groups():
    pools = []
    for week in range(2):
        qs = [
            mk_q(f"c{week}{i}", views=10, u_g=2.0, domain="const")
            for i in range(4)
        ]
        qs.extend(
            mk_q(f"v{week}{i}", views=10 * (i + 1), u_g=float(i), domain="vary")
            for i in range(4)
        )
        pools.append(RoundPool(week=week, questions=tuple(qs)))
    report = misalignment_report(normalize_weekly(Dataset(pools=tuple(pools))))
    assert "u_g/const" in report.skipped
    assert any(row.domain == "vary" for row in report.rows)


def test_misalignment_report_requires_normalization():
    ds = Dataset(pools=(RoundPool(week=0, questions=(mk_q("x"),)),))
    with pytest.raises(ConfigError):
        misalignment_report(ds)


def _ledger(u_g, u_f):
    return GameLedger.from_outcomes([SelectionOutcome(0, ("q",), ("q",), u_g, u_f)])


def test_results_table_text_and_csv():
    table = ResultsTable(
        title="demo",
        headers=("name", "value"),
        rows=(("alpha", "1.000"), ("beta", "22.500")),
    )
    text = table.to_text()
    lines = text.splitlines()
    assert lines[0] == "demo"
    assert lines[1].split() == ["name", "value"]
    assert lines[3].split() == ["alpha", "1.000"]
    assert all(not line.endswith(" ") for line in lines)
    assert table.to_csv_string().splitlines() == [
        "name,value",
        "alpha,1.000",
        "beta,22.500",
    ]


def test_full_information_table_formats_totals():
    table = full_information_table({"mpp": _ledger(1.23456, 2.0)})
    assert table.rows == (("mpp", "1.235", "2.000"),)
    with pytest.raises(ConfigError):
        full_information_table({})


def test_asymmetric_table_passes_eurr_through():
    ledger = _ledger(5.0, 1.0)
    full = {"mpp": _ledger(10.0, 4.0)}
    report = compute_eurr(ledger, full)
    table = asymmetric_table({"greedy": (ledger, report)})
    assert table.rows == (("greedy", "5.000", "1.000", "0.500", "0.250"),)
    assert table.headers == ("strategy", "cum_u_g", "cum_u_f", "eurr_g", "eurr_f")


def test_misalignment_table_includes_summary_rows():
    report = misalignment_report(_domain_dataset())
    table = misalignment_table(report)
    assert table.rows[-2][0] == "mean"
    assert table.rows[-1][0] == "std"
    assert len(table.rows) == len(report.rows) + 2


def test_significance_table_marks_small_p_values():
    series = {
        "flat": [1.0, 1.1, 0.9, 1.0, 1.05, 0.95],
        "shifted": [101.0, 101.1, 100.9, 101.0, 101.05, 100.95],
        "noisy": [1.2, 0.8, 1.1, 0.9, 1.3, 0.7],
    }
    table = significance_table(series, alpha=0.01)
    cells = {(row[0], row[1]): row for row in table.rows}
    assert cells[("flat", "shifted")][-1] == "*"
    assert cells[("flat", "noisy")][-1] == ""
    assert len(table.rows) == 3
    assert "paired" in table.title

    welch = significance_table(series, paired=False, alpha=0.05)
    assert "welch" in welch.title


def test_significance_table_needs_two_series():
    with pytest.raises(ConfigError):
        significance_table({"only": [1.0, 2.0]})
