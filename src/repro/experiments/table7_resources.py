"""Table 7 — latency and LUT counts of the PoET-BiN implementation.

Two complementary estimates are produced:

* a **paper-scale analytical** estimate from the Table 1 architecture (the
  closed-form LUT counting of §4.3 plus the latency model applied to the
  known logic depth of a RINC-2 + output layer pipeline), and
* a **measured** estimate from an actually trained (reduced-scale) classifier:
  its netlist is pruned, decomposed to 6-input LUTs and pushed through the
  latency model — exercising the same code path a real design flow would.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.poetbin import PoETBiNClassifier
from repro.experiments.architectures import get_architecture
from repro.hardware.latency import LatencyModel
from repro.hardware.lut_decompose import decompose_netlist, luts6_required
from repro.hardware.resources import prune_netlist, resource_report


@dataclass
class Table7Row:
    """One dataset column of Table 7."""

    dataset: str
    latency_ns: float
    luts: int
    paper_latency_ns: float
    paper_luts: int
    logic_depth: int

    @property
    def throughput_m_images_per_s(self) -> float:
        """Single-cycle combinational inference: throughput = 1 / latency.

        This is the §4.3 headline ("up to 166M images per second for SVHN,
        100M for MNIST and CIFAR-10").
        """
        return 1e3 / self.latency_ns

    def as_cells(self) -> List[object]:
        return [
            self.dataset,
            round(self.latency_ns, 2),
            self.luts,
            round(self.throughput_m_images_per_s, 1),
            self.paper_latency_ns,
            self.paper_luts,
            self.logic_depth,
        ]


TABLE7_HEADERS = [
    "Dataset",
    "latency (ns)",
    "LUTs",
    "throughput (M images/s)",
    "paper latency (ns)",
    "paper LUTs",
    "logic depth (6-LUT levels)",
]


def paper_scale_row(name: str, latency_model: Optional[LatencyModel] = None) -> Table7Row:
    """Analytical Table 7 entry for the paper-scale architecture."""
    latency_model = latency_model or LatencyModel()
    arch = get_architecture(name)
    per_logical = luts6_required(arch.lut_inputs)
    rinc_logical = arch.n_intermediate_neurons * arch.paper_rinc_luts()
    output_logical = arch.n_classes * arch.output_bits
    physical = (rinc_logical + output_logical) * per_logical
    # logic depth: tree LUT + one MAT per hierarchy level + output-layer LUT.
    # When P exceeds the 6-input fabric width each logical LUT adds a
    # dedicated-mux stage (F7/F8), modelled as one extra level.
    levels_per_logical = 1 if arch.lut_inputs <= 6 else 2
    depth = (arch.rinc_levels + 1 + 1) * levels_per_logical
    latency = latency_model.path_latency(depth)
    return Table7Row(
        dataset=name,
        latency_ns=latency * 1e9,
        luts=physical,
        paper_latency_ns=arch.paper.latency_ns,
        paper_luts=arch.paper.luts,
        logic_depth=depth,
    )


def run_table7(
    datasets: Sequence[str] = ("mnist", "cifar10", "svhn"),
    latency_model: Optional[LatencyModel] = None,
) -> List[Table7Row]:
    """Regenerate Table 7 analytically for the paper-scale architectures."""
    return [paper_scale_row(name, latency_model) for name in datasets]


def measured_row(
    classifier: PoETBiNClassifier,
    dataset: str = "reduced",
    latency_model: Optional[LatencyModel] = None,
    prune: bool = True,
) -> Table7Row:
    """Table 7 entry measured from a trained (reduced-scale) classifier.

    The netlist is pruned once and decomposed once, so the LUT count, the
    logic depth and the latency all describe the same netlist.
    """
    latency_model = latency_model or LatencyModel()
    netlist = classifier.to_netlist()
    if prune:
        netlist = prune_netlist(netlist)
    report = resource_report(
        netlist,
        prune=False,
        n_classes=classifier.n_classes,
        output_bits=classifier.output_bits,
    )
    depth = decompose_netlist(netlist).logic_depth() + 1  # + the output layer
    return Table7Row(
        dataset=dataset,
        latency_ns=latency_model.path_latency(depth) * 1e9,
        luts=report.total_physical_luts,
        paper_latency_ns=float("nan"),
        paper_luts=0,
        logic_depth=depth,
    )
