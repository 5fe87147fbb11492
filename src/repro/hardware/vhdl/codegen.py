"""Structural VHDL generation from a LUT netlist.

The paper generates the FPGA implementation automatically with a Python
script; this module is that script.  Each netlist node becomes a constant
truth-table plus a concurrent signal assignment that indexes it with the
node's input bits, so the synthesizer maps every node onto LUT fabric with no
arithmetic resources.
"""

from __future__ import annotations

import re
from typing import Dict, List

from repro.core.netlist import LUTNetlist, primary_input_index
from repro.hardware.hdl_names import unique_identifiers


def _vhdl_identifier(name: str) -> str:
    """Sanitise a netlist signal name into a legal VHDL identifier."""
    cleaned = re.sub(r"[^A-Za-z0-9_]", "_", name)
    if not cleaned or not cleaned[0].isalpha():
        cleaned = "s_" + cleaned
    return cleaned.lower()


def _signal_expr(names: Dict[str, str], signal: str) -> str:
    """VHDL expression for a netlist signal (primary input or node output)."""
    if signal in names:
        return names[signal]
    return f"features({primary_input_index(signal)})"


def _lookup(node, names: Dict[str, str]) -> str:
    """The right-hand side that drives ``node``."""
    if not node.n_inputs:  # a constant: there is nothing to index with
        return f"'{int(node.table[0])}'"
    if node.n_inputs == 1:  # a one-element aggregate, not a qualified scalar
        index = f"(0 => {_signal_expr(names, node.input_signals[0])})"
    else:
        index = "(" + " & ".join(_signal_expr(names, sig) for sig in node.input_signals) + ")"
    return f"table_{names[node.name]}(to_integer(unsigned(std_logic_vector'{index})))"


def _table_literal(table) -> str:
    """Truth table as a VHDL bit-string literal, address 0 first."""
    return '"' + "".join(str(int(bit)) for bit in table) + '"'


def generate_vhdl(netlist: LUTNetlist, entity_name: str = "poetbin_classifier") -> str:
    """Generate a synthesizable VHDL architecture for ``netlist``.

    The entity exposes the binary feature vector as ``features`` and one
    output bit per declared netlist output as ``outputs``.  Every LUT is a
    constant array indexed by the concatenation of its input signals, so the
    design is purely combinational — single-cycle inference, as in the paper.
    """
    if not netlist.output_signals:
        raise ValueError("netlist must declare at least one output signal")
    entity_name = _vhdl_identifier(entity_name)
    n_outputs = len(netlist.output_signals)

    lines: List[str] = []
    lines.append("-- Automatically generated by the PoET-BiN reproduction.")
    lines.append(f"-- {netlist.n_luts} LUT nodes, {netlist.n_primary_inputs} feature bits,")
    lines.append(f"-- {n_outputs} output bits, logic depth {netlist.logic_depth()}.")
    lines.append("library ieee;")
    lines.append("use ieee.std_logic_1164.all;")
    lines.append("use ieee.numeric_std.all;")
    lines.append("")
    lines.append(f"entity {entity_name} is")
    lines.append("  port (")
    lines.append(
        f"    features : in  std_logic_vector({netlist.n_primary_inputs - 1} downto 0);"
    )
    lines.append(f"    outputs  : out std_logic_vector({n_outputs - 1} downto 0)")
    lines.append("  );")
    lines.append(f"end entity {entity_name};")
    lines.append("")
    lines.append(f"architecture lut_network of {entity_name} is")

    names = unique_identifiers((node.name for node in netlist.nodes), _vhdl_identifier)
    # constants + internal signals
    for node in netlist.nodes:
        ident = names[node.name]
        lines.append(
            f"  constant table_{ident} : std_logic_vector(0 to {len(node.table) - 1}) := "
            f"{_table_literal(node.table)};"
        )
    for node in netlist.nodes:
        lines.append(f"  signal {names[node.name]} : std_logic;")
    lines.append("begin")

    # one concurrent lookup per node
    for node in netlist.nodes:
        lines.append(f"  -- {node.kind} LUT, {node.n_inputs} inputs")
        lines.append(f"  {names[node.name]} <= {_lookup(node, names)};")

    for position, signal in enumerate(netlist.output_signals):
        lines.append(f"  outputs({position}) <= {_signal_expr(names, signal)};")
    lines.append(f"end architecture lut_network;")
    lines.append("")
    return "\n".join(lines)
