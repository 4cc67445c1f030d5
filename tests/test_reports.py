import math
import random

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
    significance_table,
)
from helpers import mk_week


def _domain_dataset():
    # two domains, views anti-correlated with u_g in one, aligned in the other
    pools = []
    for week in range(2):
        specs = [
            (f"a{week}{i}", {"views": 10 * (i + 1), "u_g": float(6 - i), "domain": "anti"})
            for i in range(6)
        ] + [
            (f"p{week}{i}", {"views": 10 * (i + 1), "u_g": float(i + 1), "domain": "pro"})
            for i in range(6)
        ]
        pools.append(mk_week(specs))
    return Dataset(pools=tuple(pools))


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
    report = misalignment_report(ds)
    assert [row.domain for row in report.rows] == ["synthetic"]
    assert report.std_rho == 0.0


def test_misalignment_report_skips_degenerate_groups():
    pools = []
    for week in range(2):
        specs = [
            (f"c{week}{i}", {"views": 10, "u_g": 2.0, "domain": "const"})
            for i in range(4)
        ] + [
            (f"v{week}{i}", {"views": 10 * (i + 1), "u_g": float(i), "domain": "vary"})
            for i in range(4)
        ]
        pools.append(mk_week(specs))
    report = misalignment_report(Dataset(pools=tuple(pools)))
    assert "u_g/const" in report.skipped
    assert any(row.domain == "vary" for row in report.rows)


def test_misalignment_report_flags_zero_view_weeks_itself():
    # the report finds the all-zero weeks in the pools, not in metadata
    zero = mk_week([(f"z{i}", {"views": 0, "u_g": float(i)}) for i in range(4)])
    live = mk_week([(f"l{i}", {"views": 10 * i, "u_g": float(i)}) for i in range(4)])
    report = misalignment_report(Dataset(pools=(zero, live, zero)))
    assert report.zero_view_weeks == (0, 2)


def test_misalignment_report_adds_rhos_left_to_right():
    # ten domains and "all" give eleven rhos, whose correctly rounded sum
    # (math.fsum, and the compensated sum() of floats from Python 3.12)
    # gives a different mean and std: summary.json would change
    rng = random.Random(1)
    specs = [
        (f"{d}{i}", {"views": rng.randrange(100), "u_g": float(rng.randrange(50)), "domain": d})
        for d in "abcdefghij"
        for i in range(8)
    ]
    report = misalignment_report(Dataset((mk_week(specs),)))
    rhos = [row.result.rho for row in report.rows]
    assert len(rhos) == 11
    total = squares = 0.0
    for rho in rhos:
        total += rho
    mean = total / len(rhos)
    for rho in rhos:
        squares += (rho - mean) ** 2
    assert report.mean_rho.hex() == mean.hex()
    assert report.std_rho.hex() == math.sqrt(squares / len(rhos)).hex()
    rounded = math.fsum(rhos) / len(rhos)
    assert rounded != mean
    assert math.sqrt(math.fsum((rho - rounded) ** 2 for rho in rhos) / len(rhos)) != report.std_rho


def _ledger(u_g, u_f):
    return GameLedger.from_outcomes([SelectionOutcome(("q",), ("q",), u_g, u_f)])


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
