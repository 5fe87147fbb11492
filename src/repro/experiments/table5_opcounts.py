"""Table 5 — multiply / add counts of the classifier portion of each network."""

from __future__ import annotations

from typing import List, Sequence

from repro.experiments.architectures import get_architecture
from repro.hardware.power_model import count_classifier_operations

#: the column title of each dataset
DATASET_TITLES = {"mnist": "MNIST", "cifar10": "CIFAR-10", "svhn": "SVHN"}


def table5_headers(datasets: Sequence[str] = ("mnist", "cifar10", "svhn")) -> List[str]:
    """The headers of :func:`run_table5` over ``datasets``: one column each."""
    return ["Operation", *(DATASET_TITLES.get(name, name) for name in datasets)]


TABLE5_HEADERS = table5_headers()

#: the operation counts the paper lists, for direct comparison
PAPER_TABLE5 = {
    "mnist": 267_264,
    "cifar10": 18_915_328,
    "svhn": 5_263_360,
}


def run_table5(datasets: Sequence[str] = ("mnist", "cifar10", "svhn")) -> List[List[object]]:
    """Regenerate Table 5 from the Table 1 classifier layer widths."""
    additions = ["Addition"]
    multiplications = ["Multiplication"]
    paper_row = ["Paper (each)"]
    for name in datasets:
        arch = get_architecture(name)
        counts = count_classifier_operations(arch.classifier_layers)
        additions.append(counts.additions)
        multiplications.append(counts.multiplications)
        paper_row.append(PAPER_TABLE5.get(name, "-"))
    return [additions, multiplications, paper_row]
