"""Native (generated-C) backend on the benchmark banks: bit-exactness.

The native backend compiles the NumPy engine's flat word program into
straight-line C — one fused expression per LUT with the table bits folded
into constants at generation time.  On the paper's P=4 and P=6 RINC-bank
shapes it must be bit-identical to the NumPy engine on the same packed
words and to ``LUTNetlist.evaluate_outputs``.  Hosts without a C toolchain
skip with an explicit reason (the serving default is ``backend="auto"``,
which falls back to NumPy on exactly those hosts).

How fast it is is ``benchmarks/perf``'s ``native.ns_per_lutword`` (an
absolute number per commit), not a ratio against the NumPy engine.
"""

import ctypes
import re

import numpy as np
import pytest

from repro.engine import compile_netlist, pack_bits
from repro.engine import native as native_mod

from bench_utils import random_rows, require_toolchain, rinc_bank


@pytest.mark.parametrize("lut_width", [4, 6])
def test_native_backend_bit_exact(lut_width):
    require_toolchain()
    netlist = rinc_bank(lut_width)
    native = compile_netlist(netlist, backend="native")
    X = random_rows()
    packed = pack_bits(X)
    np.testing.assert_array_equal(
        native.run_packed(packed), compile_netlist(netlist).run_packed(packed)
    )
    np.testing.assert_array_equal(
        native.predict_batch(X), netlist.evaluate_outputs(X)
    )


def test_p6_bank_is_cut_by_statement_budget_and_exports_two_symbols():
    """The P=6 bank is large enough to be cut: no ``seg*`` function is over
    the statement budget (bar a lone over-budget node block), the source
    spans several translation units, and the linked object exports the two
    entry points and none of the cross-unit segment functions."""
    require_toolchain()
    engine = compile_netlist(rinc_bank(6), backend="native")
    units = engine.c_source.split(native_mod._UNIT_MARKER)
    assert len(units) >= 2
    bodies = re.findall(
        r"void (seg\d+_w\d+)\(W\* restrict s\) \{\n(.*?)\n\}\n", engine.c_source, re.S
    )
    assert len(bodies) > 20
    for _name, body in bodies:
        blocks = body.split("\n")
        assert (
            body.count(";") <= native_mod._SEGMENT_STATEMENTS or len(blocks) == 1
        )
    lib = ctypes.CDLL(engine.shared_object)
    assert lib.run_range and lib.run_scores_range
    for name, _body in (bodies[0], bodies[-1]):
        with pytest.raises(AttributeError):
            getattr(lib, name)
