"""Every rejection of a LUT or a netlist node, with its exact message.

``LUT`` and ``LUTNetlist.add_node`` / ``mark_output`` check the caller's
values before casting them, so a table entry of 0.5 or 2 and an index of 0.7
are refused rather than silently truncated into a different LUT.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import LUT, LUTNetlist


def _netlist_with_a():
    netlist = LUTNetlist(n_primary_inputs=2)
    netlist.add_node("a", "rinc0", ["in0"], np.array([0, 1]))
    return netlist


REJECTIONS = {
    "lut-not-1d": (
        lambda: LUT(input_indices=[[0, 1]], table=[0, 1, 1, 0]),
        "input_indices must be 1-D",
    ),
    "lut-negative-index": (
        lambda: LUT(input_indices=[-1], table=[0, 1]),
        "input_indices must be non-negative",
    ),
    "lut-repeated-index": (
        lambda: LUT(input_indices=[2, 2], table=[0, 1, 1, 0]),
        "input_indices must be distinct",
    ),
    "lut-table-length": (
        lambda: LUT(input_indices=[0, 1], table=[0, 1]),
        "table must have 4 entries for 2 inputs, got shape (2,)",
    ),
    "lut-non-binary-entry": (
        lambda: LUT(input_indices=[0], table=[0, 2]),
        "table entries must be 0/1",
    ),
    "lut-fractional-entry": (
        lambda: LUT(input_indices=[0], table=[0.5, 1.0]),
        "table entries must be 0/1",
    ),
    "lut-fractional-index": (
        lambda: LUT(input_indices=[0.7], table=[0, 1]),
        "input_indices must be integers",
    ),
    "lut-infinite-index": (
        lambda: LUT(input_indices=[np.inf], table=[0, 1]),
        "input_indices must be integers",
    ),
    "lut-from-function-fractional": (
        lambda: LUT.from_function([0], lambda combos: combos[:, 0] * 0.5),
        "table entries must be 0/1",
    ),
    "node-duplicate-name": (
        lambda: _netlist_with_a().add_node("a", "rinc0", ["in1"], np.array([0, 1])),
        "duplicate node name 'a'",
    ),
    "node-reserved-name": (
        lambda: _netlist_with_a().add_node("in1", "rinc0", ["in0"], np.array([0, 1])),
        "node name 'in1' is reserved for a primary input; names in0..in1 cannot be reused",
    ),
    "node-input-out-of-range": (
        lambda: _netlist_with_a().add_node("b", "rinc0", ["in5"], np.array([0, 1])),
        "primary input 'in5' out of range",
    ),
    "node-unknown-signal": (
        lambda: _netlist_with_a().add_node("b", "mat", ["ghost"], np.array([0, 1])),
        "node 'b' reads unknown signal 'ghost'",
    ),
    "node-table-length": (
        lambda: _netlist_with_a().add_node("b", "mat", ["in0", "in1"], np.array([0, 1])),
        "node 'b': table must have 4 entries, got (2,)",
    ),
    "node-duplicate-inputs": (
        lambda: _netlist_with_a().add_node("b", "mat", ["a", "a"], np.array([0, 1, 1, 0])),
        "node 'b': duplicate input signals",
    ),
    "node-non-binary-entry": (
        lambda: _netlist_with_a().add_node("b", "mat", ["in0", "in1"], [0, 2, 1, 3]),
        "node 'b': table entries must be 0/1",
    ),
    "mark-output-unknown": (
        lambda: _netlist_with_a().mark_output("nope"),
        "unknown signal 'nope'",
    ),
}


@pytest.mark.parametrize("build, message", REJECTIONS.values(), ids=REJECTIONS.keys())
def test_rejection_message(build, message):
    with pytest.raises(ValueError) as excinfo:
        build()
    assert str(excinfo.value) == message


@pytest.mark.parametrize(
    "indices, table",
    [
        (np.array([3, 1], dtype=np.int32), np.array([0, 1, 1, 0], dtype=np.int64)),
        (np.array([3, 1], dtype=np.uint8), np.array([False, True, True, False])),
        ([3.0, 1.0], [0.0, 1.0, 1.0, 0.0]),
        ([], [1]),
    ],
    ids=["int32-int64", "uint8-bool", "integral-floats", "constant"],
)
def test_integer_bool_and_integral_values_are_accepted(indices, table):
    lut = LUT(input_indices=indices, table=table)
    assert lut.input_indices.dtype == np.int64
    assert lut.table.dtype == np.uint8
    np.testing.assert_array_equal(lut.input_indices, np.asarray(indices, dtype=np.int64))
    np.testing.assert_array_equal(lut.table, np.asarray(table, dtype=np.uint8))

