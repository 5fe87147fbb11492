"""Structural Verilog generation from a LUT netlist.

Each node becomes a localparam truth table indexed by the concatenation of its
input signals, so synthesis maps every node onto LUT fabric with no arithmetic
resources — the same strategy as the VHDL backend.
"""

from __future__ import annotations

import re
from typing import Dict, List

from repro.core.netlist import LUTNetlist, primary_input_index
from repro.hardware.hdl_names import unique_identifiers


def verilog_identifier(name: str) -> str:
    """Sanitise a netlist signal name into a legal Verilog identifier."""
    cleaned = re.sub(r"[^A-Za-z0-9_]", "_", name)
    if not cleaned or not (cleaned[0].isalpha() or cleaned[0] == "_"):
        cleaned = "s_" + cleaned
    return cleaned.lower()


def _signal_expr(names: Dict[str, str], signal: str) -> str:
    if signal in names:
        return names[signal]
    return f"features[{primary_input_index(signal)}]"


def _lookup(node, names: Dict[str, str]) -> str:
    """The right-hand side that drives ``node``."""
    if not node.n_inputs:  # a constant: there is nothing to index with
        return f"1'b{int(node.table[0])}"
    concat = ", ".join(_signal_expr(names, sig) for sig in node.input_signals)
    return f"TABLE_{names[node.name].upper()}[{{{concat}}}]"


def _table_literal(table) -> str:
    """Truth table as a Verilog sized binary literal.

    Bit ``i`` of the literal must be the output for address ``i``, so the
    address-0 entry ends up in the least-significant position (rightmost).
    """
    bits = "".join(str(int(b)) for b in reversed(table))
    return f"{len(table)}'b{bits}"


def generate_verilog(netlist: LUTNetlist, module_name: str = "poetbin_classifier") -> str:
    """Generate a synthesizable Verilog module for ``netlist``."""
    if not netlist.output_signals:
        raise ValueError("netlist must declare at least one output signal")
    module_name = verilog_identifier(module_name)
    n_outputs = len(netlist.output_signals)

    lines: List[str] = []
    lines.append("// Automatically generated by the PoET-BiN reproduction.")
    lines.append(
        f"// {netlist.n_luts} LUT nodes, {netlist.n_primary_inputs} feature bits, "
        f"{n_outputs} output bits, logic depth {netlist.logic_depth()}."
    )
    lines.append(f"module {module_name} (")
    lines.append(f"  input  wire [{netlist.n_primary_inputs - 1}:0] features,")
    lines.append(f"  output wire [{n_outputs - 1}:0] outputs")
    lines.append(");")
    lines.append("")

    names = unique_identifiers((node.name for node in netlist.nodes), verilog_identifier)
    for node in netlist.nodes:
        ident = names[node.name]
        lines.append(
            f"  localparam [{len(node.table) - 1}:0] TABLE_{ident.upper()} = "
            f"{_table_literal(node.table)};"
        )
    lines.append("")
    for node in netlist.nodes:
        lines.append(f"  wire {names[node.name]};")
    lines.append("")
    for node in netlist.nodes:
        lines.append(f"  // {node.kind} LUT, {node.n_inputs} inputs")
        lines.append(f"  assign {names[node.name]} = {_lookup(node, names)};")
    lines.append("")
    for position, signal in enumerate(netlist.output_signals):
        lines.append(f"  assign outputs[{position}] = {_signal_expr(names, signal)};")
    lines.append("")
    lines.append("endmodule")
    lines.append("")
    return "\n".join(lines)
