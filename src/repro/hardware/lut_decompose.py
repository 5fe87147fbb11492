"""Decomposition of wide LUTs into 6-input physical LUTs.

Xilinx devices provide 6-input LUTs plus dedicated F7/F8 multiplexers.  A
7-input function therefore occupies two 6-input LUTs (plus a free F7 mux) and
an 8-input function occupies four (plus free F7/F8 muxes) — which is why the
paper's P=8 designs for MNIST/CIFAR-10 use four physical LUTs per logical LUT
and run at a lower clock.  This module provides both the closed-form count and
an actual functional Shannon decomposition that can be simulated and verified
(the engine compiler's ``DecomposePass``).
"""

from __future__ import annotations

from repro.core.netlist import LUTNetlist


def luts6_required(n_inputs: int, max_inputs: int = 6) -> int:
    """Number of ``max_inputs``-input physical LUTs for one ``n_inputs`` LUT.

    Dedicated mux resources (F7/F8) are treated as free, matching the Xilinx
    counting the paper uses ("each 8-input LUT requires four 6-input LUTs").
    """
    if n_inputs <= 0:
        raise ValueError("n_inputs must be positive")
    if max_inputs <= 1:
        raise ValueError("max_inputs must be at least 2")
    if n_inputs <= max_inputs:
        return 1
    return 2 ** (n_inputs - max_inputs)


def decompose_netlist(netlist: LUTNetlist, max_inputs: int = 6) -> LUTNetlist:
    """Rebuild ``netlist`` so no node exceeds ``max_inputs`` inputs.

    Wide nodes are Shannon-decomposed; the resulting mux nodes are represented
    as 3-input LUTs (select, a, b) with kind ``"mux"`` so that resource models
    can choose whether to count them (generic FPGA) or not (Xilinx dedicated
    F7/F8 muxes).

    This is a thin wrapper over the engine compiler's
    :class:`~repro.engine.passes.DecomposePass`, so hardware codegen and the
    bit-packed engine share a single decomposition implementation.
    """
    from repro.engine.ir import IRGraph
    from repro.engine.passes import DecomposePass

    graph = DecomposePass(max_inputs=max_inputs).run(IRGraph.from_netlist(netlist))
    return graph.to_netlist()
