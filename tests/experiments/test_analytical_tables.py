"""Tests for the analytical table experiments (Tables 3, 4, 5, 6, 7)."""

import math

import pytest

from repro.experiments import (
    run_table3,
    run_table4,
    run_table5,
    run_table6,
    run_table7,
)
from repro.experiments.table3_power import TABLE3_HEADERS, paper_scale_physical_luts
from repro.experiments.table6_energy import PAPER_TABLE6, energy_reduction_summary
from repro.experiments.reporting import rows_to_table
from repro.experiments.runner import run_all
from repro.experiments.table2_accuracy import TABLE2_HEADERS
from repro.experiments.table5_opcounts import table5_headers
from repro.experiments.table6_energy import TABLE6_HEADERS
from repro.experiments.table7_resources import TABLE7_HEADERS


class TestTable3:
    def test_three_rows(self):
        rows = run_table3()
        assert [row.dataset for row in rows] == ["mnist", "cifar10", "svhn"]

    def test_power_in_plausible_range(self):
        for row in run_table3():
            assert 0.02 < row.total_w < 2.0
            assert row.total_w == pytest.approx(row.dynamic_w + row.static_w)

    def test_same_order_of_magnitude_as_paper(self):
        for row in run_table3():
            assert row.total_w / row.paper_total_w < 10
            assert row.paper_total_w / row.total_w < 10

    def test_paper_scale_lut_counts(self):
        # SVHN (P=6) needs no decomposition: the analytical count is exactly 2660
        assert paper_scale_physical_luts("svhn") == 2660
        # P=8 designs pay the 4x decomposition before pruning
        assert paper_scale_physical_luts("mnist") == 4 * (80 * 37 + 80)

    def test_pre_pruning_counts_exceed_paper(self):
        rows = run_table3(use_paper_lut_counts=False)
        by_name = {row.dataset: row for row in rows}
        # the paper's MNIST/CIFAR counts are post-pruning, so ours are larger
        assert by_name["mnist"].n_physical_luts >= 11899
        assert by_name["cifar10"].n_physical_luts >= 9650


class TestTable4:
    def test_six_operations(self):
        rows = run_table4()
        assert len(rows) == 6

    def test_totals_column(self):
        rows = run_table4()
        by_name = {row[0]: row for row in rows}
        assert by_name["Multiplication (float)"][6] == pytest.approx(0.099)
        assert by_name["Addition (16 bits)"][6] == pytest.approx(0.062)


class TestTable5:
    def test_counts_match_paper_exactly(self):
        rows = run_table5()
        additions, multiplications, paper = rows
        assert additions[1:] == [267_264, 18_915_328, 5_263_360]
        assert multiplications[1:] == [267_264, 18_915_328, 5_263_360]
        assert paper[1:] == [267_264, 18_915_328, 5_263_360]


class TestTable6:
    def test_five_techniques(self):
        rows = run_table6()
        assert [row.technique for row in rows] == [
            "vanilla",
            "1-bit quant",
            "16-bit quant",
            "32-bit quant",
            "poet-bin",
        ]

    def test_poetbin_smallest_on_every_dataset(self):
        rows = {row.technique: row for row in run_table6()}
        for dataset in ("mnist", "cifar10", "svhn"):
            poetbin = getattr(rows["poet-bin"], dataset)
            for technique in ("vanilla", "1-bit quant", "16-bit quant", "32-bit quant"):
                assert poetbin < getattr(rows[technique], dataset)

    def test_arithmetic_energies_match_paper_within_15_percent(self):
        """The float/16/32-bit estimates are pure Table 4 x Table 5 arithmetic.

        The SVHN 16-bit entry is excluded: the paper's 1.0e-4 J figure is only
        consistent with a 10 ns clock period while every other entry uses
        16 ns; our uniform 16 ns estimate gives 1.7e-4 J (documented in
        EXPERIMENTS.md).
        """
        rows = {row.technique: row for row in run_table6()}
        for technique in ("vanilla", "16-bit quant", "32-bit quant"):
            for dataset in ("mnist", "cifar10", "svhn"):
                if technique == "16-bit quant" and dataset == "svhn":
                    continue
                ours = getattr(rows[technique], dataset)
                paper = PAPER_TABLE6[technique][dataset]
                assert ours == pytest.approx(paper, rel=0.15)

    def test_orders_of_magnitude_match_paper(self):
        """Every entry lands within one order of magnitude of the paper's value."""
        rows = {row.technique: row for row in run_table6()}
        for technique, paper_values in PAPER_TABLE6.items():
            for dataset, paper_value in paper_values.items():
                ours = getattr(rows[technique], dataset)
                assert abs(math.log10(ours) - math.log10(paper_value)) < 1.0

    def test_reduction_summary_headline_numbers(self):
        summary = {row[0]: row for row in energy_reduction_summary()}
        # §4.2: "up to six orders of magnitude vs float, up to three vs binary"
        assert summary["cifar10"][1] > 1e5  # vs vanilla float
        assert summary["cifar10"][3] > 1e2  # vs 1-bit
        assert summary["mnist"][3] > 2  # MNIST vs 1-bit is a modest factor


class TestTable7:
    def test_three_rows(self):
        rows = run_table7()
        assert [row.dataset for row in rows] == ["mnist", "cifar10", "svhn"]

    def test_latency_nanosecond_regime(self):
        for row in run_table7():
            assert 2.0 < row.latency_ns < 25.0

    def test_svhn_fastest(self):
        rows = {row.dataset: row for row in run_table7()}
        assert rows["svhn"].latency_ns < rows["mnist"].latency_ns
        assert rows["svhn"].latency_ns < rows["cifar10"].latency_ns

    def test_svhn_lut_count_exact(self):
        rows = {row.dataset: row for row in run_table7()}
        assert rows["svhn"].luts == 2660

    def test_lut_ordering_before_pruning(self):
        """Pre-pruning, CIFAR-10 (40 trees/module) exceeds MNIST (32); SVHN is smallest.

        The paper's post-synthesis counts invert MNIST/CIFAR-10 because the
        synthesizer removes ~36% of the CIFAR-10 LUTs (§4.3); the analytical
        table reports the pre-pruning structure, which the paper text also
        quotes as the starting point.
        """
        rows = {row.dataset: row for row in run_table7()}
        assert rows["cifar10"].luts > rows["mnist"].luts > rows["svhn"].luts

    def test_p8_designs_slower_than_p6(self):
        rows = {row.dataset: row for row in run_table7()}
        assert rows["mnist"].latency_ns == pytest.approx(rows["cifar10"].latency_ns)
        assert rows["mnist"].latency_ns > rows["svhn"].latency_ns

    def test_latency_close_to_paper(self):
        """Latency estimates fall within ~40% of the paper's measurements."""
        for row in run_table7():
            assert row.latency_ns == pytest.approx(row.paper_latency_ns, rel=0.4)

    def test_throughput_headline_numbers(self):
        """§4.3: throughput reaches >100M images/s, highest for the SVHN design."""
        rows = {row.dataset: row for row in run_table7()}
        assert rows["svhn"].throughput_m_images_per_s > 150
        assert rows["mnist"].throughput_m_images_per_s > 80
        assert (
            rows["svhn"].throughput_m_images_per_s
            > rows["mnist"].throughput_m_images_per_s
        )


class TestReporting:
    def test_rows_to_table_renders_dataclasses(self):
        text = rows_to_table(TABLE6_HEADERS, run_table6())
        assert "poet-bin" in text
        assert "MNIST (J)" in text

    def test_markdown_mode(self):
        text = rows_to_table(TABLE6_HEADERS, run_table6(), markdown=True)
        assert text.startswith("| Technique")

    def test_plain_lists_accepted(self):
        text = rows_to_table(["a", "b"], [[1, 2], [3, 4]])
        assert "3" in text

    def test_table2_headers_cover_all_columns(self):
        assert len(TABLE2_HEADERS) == 10


class TestOneDatasetSubset:
    """Every analytical table renders over a proper subset of the datasets,
    as ``python -m repro.experiments.runner --datasets mnist`` asks."""

    def test_table3(self):
        text = rows_to_table(TABLE3_HEADERS, run_table3(["mnist"]))
        assert "mnist" in text and "svhn" not in text

    def test_table5(self):
        headers = table5_headers(["mnist"])
        assert headers == ["Operation", "MNIST"]
        text = rows_to_table(headers, run_table5(["mnist"]))
        assert "267264" in text and "CIFAR-10" not in text

    def test_table6(self):
        text = rows_to_table(TABLE6_HEADERS, run_table6(["mnist"]))
        assert "poet-bin" in text

    def test_table7(self):
        text = rows_to_table(TABLE7_HEADERS, run_table7(["svhn"]))
        assert "svhn" in text and "mnist" not in text

    def test_runner_renders_every_table(self, capsys):
        sections = run_all(datasets=["mnist"], skip_training=True)
        assert {"table3", "table5", "table6", "table7"} <= set(sections)
        assert "CIFAR-10" not in sections["table5"]
