"""Resource (LUT count) modelling and synthesizer-style pruning — Table 7.

Two effects determine the physical LUT count of a PoET-BiN design:

* **decomposition**: logical LUTs wider than the device's 6 inputs are split
  into several physical LUTs (``P = 8`` costs four 6-input LUTs each);
* **pruning**: logic that cannot affect an output is removed, as the Xilinx
  synthesizer does (the paper observes ~36% of the CIFAR-10 LUTs removed this
  way).  A MAT input whose AdaBoost weight never flips the thresholded
  decision is a don't-care of the MAT's table, so the tree feeding it dies
  with it.  :func:`prune_netlist` is the engine compiler's
  ``ConstantFoldPass``: one pruner serves the CPU program and Table 7.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.netlist import LUTNetlist
from repro.hardware.lut_decompose import luts6_required


@dataclass
class ResourceReport:
    """LUT resource summary of one netlist / design."""

    logical_luts: int
    physical_luts: int
    luts_by_kind: Dict[str, int]
    pruned_luts: int
    output_layer_luts: int

    @property
    def total_physical_luts(self) -> int:
        """Physical LUTs including the quantised output layer."""
        return self.physical_luts + self.output_layer_luts

    @property
    def pruned_fraction(self) -> float:
        """Fraction of logical LUTs removed by pruning."""
        before = self.logical_luts + self.pruned_luts
        return self.pruned_luts / before if before else 0.0


def output_layer_luts(n_classes: int, n_bits: int) -> int:
    """LUTs of the sparse quantised output layer: ``q`` per output neuron."""
    if n_classes <= 0 or n_bits <= 0:
        raise ValueError("n_classes and n_bits must be positive")
    return n_classes * n_bits


def prune_netlist(netlist: LUTNetlist) -> LUTNetlist:
    """Remove the logic that cannot affect the outputs, as the synthesizer does.

    A thin wrapper over the engine compiler's
    :class:`~repro.engine.passes.ConstantFoldPass`: support reduction,
    constant and buffer folding, dead-node removal.  Names are kept and
    metadata is copied unchanged (a MAT's ``weights`` still list every
    original input); a declared output may become a primary input.
    """
    from repro.engine.ir import IRGraph
    from repro.engine.passes import ConstantFoldPass

    return ConstantFoldPass().run(IRGraph.from_netlist(netlist)).to_netlist()


def resource_report(
    netlist: LUTNetlist,
    physical_lut_inputs: int = 6,
    prune: bool = True,
    n_classes: Optional[int] = None,
    output_bits: int = 8,
) -> ResourceReport:
    """Full Table 7-style resource report for a netlist.

    Parameters
    ----------
    netlist:
        The RINC netlist (typically ``PoETBiNClassifier.to_netlist()``).
    physical_lut_inputs:
        Input width of the device's physical LUTs (6 for the paper's target).
    prune:
        Whether to apply synthesizer-style pruning first.
    n_classes, output_bits:
        When given, the quantised output layer (``q`` LUTs per class) is added
        to the report.
    """
    original_count = netlist.n_luts
    work = prune_netlist(netlist) if prune else netlist
    logical = work.n_luts
    # a constant (0-input) node is a tie-off, not a LUT
    physical = sum(
        luts6_required(node.n_inputs, physical_lut_inputs)
        for node in work.nodes
        if node.n_inputs
    )
    out_luts = output_layer_luts(n_classes, output_bits) if n_classes else 0
    return ResourceReport(
        logical_luts=logical,
        physical_luts=physical,
        luts_by_kind=work.count_by_kind(),
        pruned_luts=original_count - logical,
        output_layer_luts=out_luts,
    )
