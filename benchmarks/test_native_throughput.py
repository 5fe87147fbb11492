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

import numpy as np
import pytest

from repro.engine import compile_netlist, pack_bits

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
