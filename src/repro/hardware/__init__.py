"""FPGA hardware models and code generation.

The original paper synthesises the generated VHDL for a Xilinx Spartan-6 and
reads power/latency/LUT counts from the vendor tools.  Offline, this package
provides the analytical equivalents:

* :mod:`repro.hardware.lut_decompose` — the physical LUT count of a wide LUT,
  and ``decompose_netlist``: the engine's ``DecomposePass`` splitting wide
  LUTs onto 6-input LUTs (what the synthesizer does with ``P = 8`` designs).
* :mod:`repro.hardware.resources` — LUT counting (Table 7) after
  synthesizer-style pruning, which *is* the engine's ``ConstantFoldPass``.
* :mod:`repro.hardware.power_model` / :mod:`repro.hardware.energy_model` — the
  per-operation power library of Table 4, the operation counts of Table 5, and
  the bottom-up energy estimation of Tables 3 and 6.
* :mod:`repro.hardware.latency` — critical-path latency estimates (Table 7).
* :mod:`repro.hardware.vhdl` — VHDL and testbench generation from a trained
  LUT netlist.
"""

from repro.hardware.energy_model import EnergyBreakdown, EnergyModel
from repro.hardware.latency import LatencyModel
from repro.hardware.lut_decompose import decompose_netlist, luts6_required
from repro.hardware.memory_image import (
    MemoryImage,
    netlist_memory_images,
    total_memory_bits,
    write_memory_files,
)
from repro.hardware.power_model import (
    SPARTAN6_OPERATIONS,
    BinaryNeuronPowerModel,
    OperationCounts,
    OperationPower,
    PoETBiNPowerModel,
    count_classifier_operations,
)
from repro.hardware.resources import ResourceReport, prune_netlist, resource_report
from repro.hardware.verilog import generate_verilog, generate_verilog_testbench
from repro.hardware.vhdl import generate_testbench, generate_vhdl

__all__ = [
    "BinaryNeuronPowerModel",
    "EnergyBreakdown",
    "EnergyModel",
    "LatencyModel",
    "MemoryImage",
    "OperationCounts",
    "OperationPower",
    "PoETBiNPowerModel",
    "ResourceReport",
    "SPARTAN6_OPERATIONS",
    "netlist_memory_images",
    "total_memory_bits",
    "write_memory_files",
    "count_classifier_operations",
    "decompose_netlist",
    "generate_testbench",
    "generate_verilog",
    "generate_verilog_testbench",
    "generate_vhdl",
    "luts6_required",
    "prune_netlist",
    "resource_report",
]
