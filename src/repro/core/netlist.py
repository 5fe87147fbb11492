"""LUT netlist: the flattened hardware view of a trained PoET-BiN classifier.

A netlist is a directed acyclic graph of LUT nodes.  Primary inputs are the
binary feature bits (named ``in<i>``); every node consumes either primary
inputs or the outputs of earlier nodes and produces one binary signal.  The
netlist is what the resource model, the latency model, the netlist simulator
and the VHDL generator all operate on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

import numpy as np

from repro.utils.bitops import binary_to_index
from repro.utils.validation import check_binary_matrix, is_binary


def primary_input(index: int) -> str:
    """Signal name of primary input ``index``."""
    if index < 0:
        raise ValueError("primary input index must be non-negative")
    return f"in{index}"


def is_primary_input(signal: str) -> bool:
    """True when ``signal`` is spelled like a primary input (``in<digits>``).

    This is a purely *syntactic* check on the reserved namespace.  Whether a
    signal actually is a primary input of a given netlist depends on that
    netlist's width: use :meth:`LUTNetlist.is_primary_input`, which checks the
    name against ``netlist.inputs``, whenever a netlist is at hand.
    """
    return signal.startswith("in") and signal[2:].isdigit()


def primary_input_index(signal: str) -> int:
    """Inverse of :func:`primary_input`."""
    if not is_primary_input(signal):
        raise ValueError(f"{signal!r} is not a primary input name")
    return int(signal[2:])


def is_declared_input(signal: str, n_primary_inputs: int) -> bool:
    """True when ``signal`` is one of ``in0 .. in<n_primary_inputs - 1>``."""
    return is_primary_input(signal) and int(signal[2:]) < n_primary_inputs


@dataclass
class NetlistNode:
    """One LUT in the netlist."""

    name: str
    kind: str  # "rinc0", "mat" or "output"
    input_signals: List[str]
    table: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        table = np.asarray(self.table)
        expected = 1 << len(self.input_signals)
        if table.shape != (expected,):
            raise ValueError(
                f"node {self.name!r}: table must have {expected} entries, "
                f"got {table.shape}"
            )
        if not is_binary(table):  # before the cast, which would turn 0.5 into 0
            raise ValueError(f"node {self.name!r}: table entries must be 0/1")
        if len(set(self.input_signals)) != len(self.input_signals):
            raise ValueError(f"node {self.name!r}: duplicate input signals")
        self.table = table.astype(np.uint8, copy=False)

    @property
    def n_inputs(self) -> int:
        return len(self.input_signals)


class LUTNetlist:
    """A topologically ordered collection of LUT nodes.

    Parameters
    ----------
    n_primary_inputs:
        Number of primary input bits the netlist reads.
    """

    def __init__(self, n_primary_inputs: int) -> None:
        if n_primary_inputs <= 0:
            raise ValueError("n_primary_inputs must be positive")
        self.n_primary_inputs = n_primary_inputs
        self.nodes: List[NetlistNode] = []
        self.output_signals: List[str] = []
        self._names: set[str] = set()

    # ------------------------------------------------------------ namespace
    @property
    def inputs(self) -> List[str]:
        """Names of this netlist's primary inputs (``in0`` .. ``in<n-1>``)."""
        return [primary_input(i) for i in range(self.n_primary_inputs)]

    def is_primary_input(self, signal: str) -> bool:
        """True when ``signal`` names one of *this* netlist's primary inputs.

        Unlike the module-level syntactic check, this resolves against the
        declared inputs: ``in12`` is not a primary input of a 4-input netlist
        (it may legitimately be a node name), and node names can never shadow
        a real primary input because the in-range ``in<i>`` namespace is
        reserved by :meth:`add_node`.
        """
        return is_declared_input(signal, self.n_primary_inputs)

    # ------------------------------------------------------------- building
    def add_node(
        self,
        name: str,
        kind: str,
        input_signals: Iterable[str],
        table: np.ndarray,
        metadata: Optional[dict] = None,
    ) -> str:
        """Append a node; all of its inputs must already exist."""
        if name in self._names:
            raise ValueError(f"duplicate node name {name!r}")
        if self.is_primary_input(name):
            raise ValueError(
                f"node name {name!r} is reserved for a primary input; "
                f"names in0..in{self.n_primary_inputs - 1} cannot be reused"
            )
        input_signals = list(input_signals)
        for signal in input_signals:
            if signal in self._names or self.is_primary_input(signal):
                continue
            if is_primary_input(signal):
                raise ValueError(f"primary input {signal!r} out of range")
            raise ValueError(f"node {name!r} reads unknown signal {signal!r}")
        node = NetlistNode(
            name=name,
            kind=kind,
            input_signals=input_signals,
            table=table,
            metadata=metadata or {},
        )
        self.nodes.append(node)
        self._names.add(name)
        return name

    def mark_output(self, signal: str) -> None:
        """Declare ``signal`` as one of the netlist outputs."""
        if signal not in self._names and not self.is_primary_input(signal):
            raise ValueError(f"unknown signal {signal!r}")
        self.output_signals.append(signal)

    def get_node(self, name: str) -> NetlistNode:
        for node in self.nodes:
            if node.name == name:
                return node
        raise KeyError(f"no node named {name!r}")

    # ----------------------------------------------------------- statistics
    @property
    def n_luts(self) -> int:
        return len(self.nodes)

    def count_by_kind(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for node in self.nodes:
            counts[node.kind] = counts.get(node.kind, 0) + 1
        return counts

    def used_primary_inputs(self) -> np.ndarray:
        """Sorted indices of primary inputs referenced anywhere."""
        used = {
            primary_input_index(sig)
            for node in self.nodes
            for sig in node.input_signals
            if self.is_primary_input(sig)
        }
        return np.array(sorted(used), dtype=np.int64)

    def node_levels(self) -> Dict[str, int]:
        """Level of every node: longest LUT chain from the primary inputs.

        Primary inputs sit at level 0; a node's level is one more than its
        deepest input.  Nodes at one level depend only on strictly earlier
        levels, which both :meth:`logic_depth` and the compiled engine's
        scheduler rely on.
        """
        level: Dict[str, int] = {}
        for node in self.nodes:
            # a signal without a level is a primary input (add_node checked)
            input_levels = [level.get(sig, 0) for sig in node.input_signals]
            level[node.name] = (max(input_levels) if input_levels else 0) + 1
        return level

    def logic_depth(self) -> int:
        """Longest LUT chain from any primary input to any output signal."""
        depth = self.node_levels()
        if not depth:
            return 0
        if self.output_signals:
            return max(
                depth.get(sig, 0) for sig in self.output_signals
            )
        return max(depth.values())

    # ----------------------------------------------------------- evaluation
    def evaluate(self, X_bits: np.ndarray) -> Dict[str, np.ndarray]:
        """Simulate the netlist on binary inputs; returns every signal's value."""
        X_bits = check_binary_matrix(X_bits, "X_bits")
        if X_bits.shape[1] != self.n_primary_inputs:
            raise ValueError(
                f"expected {self.n_primary_inputs} primary inputs, got {X_bits.shape[1]}"
            )
        signals: Dict[str, np.ndarray] = {}

        def resolve(signal: str) -> np.ndarray:
            if self.is_primary_input(signal):
                return X_bits[:, primary_input_index(signal)]
            return signals[signal]

        for node in self.nodes:
            if not node.input_signals:
                # zero-input nodes are constants (the fold pass emits them)
                signals[node.name] = np.full(
                    X_bits.shape[0], node.table[0], dtype=node.table.dtype
                )
                continue
            columns = np.column_stack([resolve(sig) for sig in node.input_signals])
            signals[node.name] = node.table[binary_to_index(columns)]
        return signals

    def evaluate_outputs(self, X_bits: np.ndarray) -> np.ndarray:
        """Values of the declared output signals, one column per output."""
        if not self.output_signals:
            raise RuntimeError("netlist has no declared outputs")
        signals = self.evaluate(X_bits)  # checks X_bits
        X_bits = np.asarray(X_bits).astype(np.uint8, copy=False)
        columns = []
        for sig in self.output_signals:
            if self.is_primary_input(sig):
                columns.append(X_bits[:, primary_input_index(sig)])
            else:
                columns.append(signals[sig])
        return np.column_stack(columns)
