"""Run every experiment and print the regenerated tables.

Usage::

    python -m repro.experiments.runner            # fast smoke run
    python -m repro.experiments.runner --full     # the EXPERIMENTS.md settings
    python -m repro.experiments.runner --skip-training   # analytical tables only
"""

from __future__ import annotations

import argparse
from typing import Dict, List, Sequence

from repro.experiments.ablations import ABLATION_HEADERS, run_lut_width_ablation
from repro.experiments.architectures import ARCHITECTURES
from repro.experiments.reporting import print_section, rows_to_table
from repro.experiments.table2_accuracy import TABLE2_HEADERS, run_table2
from repro.experiments.table3_power import TABLE3_HEADERS, run_table3
from repro.experiments.table4_operations import TABLE4_HEADERS, run_table4
from repro.experiments.table5_opcounts import run_table5, table5_headers
from repro.experiments.table6_energy import TABLE6_HEADERS, run_table6
from repro.experiments.table7_resources import TABLE7_HEADERS, run_table7


def table1_rows() -> List[List[object]]:
    """Render Table 1 (the architecture registry)."""
    rows = []
    for arch in ARCHITECTURES.values():
        layers = "-".join(str(width) for width in arch.classifier_layers)
        rows.append(
            [
                arch.symbol,
                arch.dataset,
                f"{arch.feature_extractor} + FC({layers})",
                arch.lut_inputs,
                arch.n_decision_trees,
            ]
        )
    return rows


TABLE1_HEADERS = ["Symbol", "Dataset", "Architecture", "P", "DTs per module"]


def run_all(
    datasets: Sequence[str] = ("mnist", "cifar10", "svhn"),
    fast: bool = True,
    skip_training: bool = False,
    seed: int = 0,
    markdown: bool = False,
) -> Dict[str, str]:
    """Run every experiment; returns the rendered tables keyed by name."""
    sections: Dict[str, str] = {}

    sections["table1"] = print_section(
        "Table 1: network architectures",
        rows_to_table(TABLE1_HEADERS, table1_rows(), markdown),
    )
    if not skip_training:
        rows2 = run_table2(datasets, seed=seed, fast=fast)
        sections["table2"] = print_section(
            "Table 2: classification accuracy (synthetic stand-in datasets)",
            rows_to_table(TABLE2_HEADERS, rows2, markdown),
        )
    sections["table3"] = print_section(
        "Table 3: PoET-BiN power (analytical model)",
        rows_to_table(TABLE3_HEADERS, run_table3(datasets), markdown),
    )
    sections["table4"] = print_section(
        "Table 4: per-operation power",
        rows_to_table(TABLE4_HEADERS, run_table4(), markdown),
    )
    sections["table5"] = print_section(
        "Table 5: classifier operation counts",
        rows_to_table(table5_headers(datasets), run_table5(datasets), markdown),
    )
    sections["table6"] = print_section(
        "Table 6: energy per inference",
        rows_to_table(TABLE6_HEADERS, run_table6(datasets), markdown),
    )
    sections["table7"] = print_section(
        "Table 7: latency and LUT counts (paper scale, analytical)",
        rows_to_table(TABLE7_HEADERS, run_table7(datasets), markdown),
    )
    if not skip_training:
        ablation = run_lut_width_ablation(fast=fast, seed=seed)
        sections["ablation_p"] = print_section(
            "Ablation: LUT input width P",
            rows_to_table(ABLATION_HEADERS, ablation, markdown),
        )
    return sections


def main(argv: Sequence[str] | None = None) -> None:  # pragma: no cover - CLI entry
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true", help="use the EXPERIMENTS.md settings")
    parser.add_argument("--skip-training", action="store_true", help="analytical tables only")
    parser.add_argument("--datasets", nargs="+", default=["mnist", "cifar10", "svhn"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--markdown", action="store_true")
    args = parser.parse_args(argv)
    run_all(
        datasets=args.datasets,
        fast=not args.full,
        skip_training=args.skip_training,
        seed=args.seed,
        markdown=args.markdown,
    )


if __name__ == "__main__":  # pragma: no cover
    main()
