"""Golden digests: the compiler's output, byte for byte.

The native cache is keyed by a digest of the generated C, so a compiler
change that is meant to alter *how fast* a netlist compiles — not *what* it
compiles to — must leave ``generate_c_source`` and ``optimize_netlist``
byte-identical; then every cached ``.so`` stays warm across the upgrade and
every kernel and serving number is, by construction, the same program's.

``GOLDEN`` was recorded by running this file as a script on commit
``697752c`` (the parent of the change that moved truth tables to machine
integers) — ``PYTHONPATH=src python tests/engine/test_codegen_golden.py``
prints the table — and the test passes on both sides of that change.  A
change that *intends* to alter the generated program re-records it and says
so: the ``c_unroll4`` column was re-recorded when vector builds dropped
their scalar twin (one K-lane instantiation, a padded tail block); every
``c_unroll1`` and ``netlist`` digest is still the one recorded at
``697752c``.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.core import LUTNetlist
from repro.core.serialization import netlist_to_dict
from repro.engine import (
    CompiledNetlist,
    optimize_netlist,
    random_netlist,
    rinc_bank_netlist,
    structured_bank_netlist,
)
from repro.engine.native import generate_c_source


def planted_netlist() -> LUTNetlist:
    """Everything the fold, fuse, dedup and decompose passes special-case.

    Constants (a zero-input node, a table that collapses), identity buffers
    (so consumers come to read one signal twice), structurally duplicate
    nodes, don't-care inputs, a fusable single-fanout chain, a 9-input LUT
    and a dead node.
    """
    rng = np.random.default_rng(21)
    netlist = LUTNetlist(n_primary_inputs=12)

    def table(width):
        return rng.integers(0, 2, size=1 << width, dtype=np.uint8)

    def pi(*indices):
        return [f"in{i}" for i in indices]

    netlist.add_node("one", "mat", [], np.array([1]))
    netlist.add_node("zero", "rinc0", pi(0, 1), np.zeros(4))
    netlist.add_node("buf", "rinc0", pi(2), np.array([0, 1]))
    netlist.add_node("inv", "rinc0", pi(3), np.array([1, 0]))
    netlist.add_node("buf2", "mat", ["buf"], np.array([0, 1]))
    shared = table(3)
    netlist.add_node("dup_a", "rinc0", pi(4, 5, 6), shared)
    netlist.add_node("dup_b", "rinc0", pi(4, 5, 6), shared)
    # reads in2 three times once the buffers are aliased away
    netlist.add_node("twice", "mat", ["in2", "buf", "buf2", "inv"], table(4))
    # reads one signal twice once dup_b is merged into dup_a
    netlist.add_node("merged", "mat", ["dup_a", "dup_b", "in7"], table(3))
    netlist.add_node("folded", "mat", ["one", "zero", "in8", "inv"], table(4))
    dont_care = np.repeat(table(2), 4)  # depends on its first two inputs only
    netlist.add_node("narrow", "rinc0", pi(9, 10, 11, 0), dont_care)
    netlist.add_node("link", "rinc0", pi(1, 2), table(2))
    netlist.add_node("chain", "mat", ["link", "in1", "in2"], table(3))
    netlist.add_node("wide", "mat", pi(0, 1, 2, 3, 4, 5, 6, 7, 8), table(9))
    netlist.add_node(
        "wide_mixed",
        "mat",
        ["one", "twice", "merged", "folded", "narrow", "chain", "buf", "in9", "in10"],
        table(9),
    )
    netlist.add_node("dead", "rinc0", pi(5, 6), table(2))
    for signal in ("wide", "wide_mixed", "buf2", "zero", "chain", "merged", "in3"):
        netlist.mark_output(signal)
    return netlist


NETLISTS = {
    "rinc_p6": lambda: rinc_bank_netlist(256, 960, 160, 60, lut_width=6, seed=2),
    "struct_p8": lambda: structured_bank_netlist(
        256, 960, 160, 60, lut_width=8, tree_depth=3
    ),
    "random_dag": lambda: random_netlist(256, 600, n_outputs=60),
    "planted": planted_netlist,
}

PIPELINES = {
    "p6": {"max_lut_inputs": 6},
    "unbounded": {},
    "raw": {"passes": ()},
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digests(name: str, pipeline: str) -> dict:
    """The three digests of one golden netlist under one pipeline setting."""
    optimized = optimize_netlist(NETLISTS[name](), **PIPELINES[pipeline])
    program = CompiledNetlist.from_netlist(optimized)
    return {
        "netlist": _sha(json.dumps(netlist_to_dict(optimized), sort_keys=True)),
        "c_unroll1": _sha(generate_c_source(program, 1)),
        "c_unroll4": _sha(generate_c_source(program, 4)),
    }


GOLDEN = {
    "planted/p6": {
        "c_unroll1": "5147bee17fb12f8be12e3c27c93907ed5eee4f7b375ff1dd7411f59dc2167270",
        "c_unroll4": "4502cce43b88532f447d2596a818343bb4ee1cafdd1a9bb1147091b70359d564",
        "netlist": "3f00cbc37b52c5d426ce5823fc39ffcc6f8181e91730f9dd48b7869c77b23585"
    },
    "planted/raw": {
        "c_unroll1": "e67e677b14be9b31f38150d49eb0b1f2b6cd92696bf4d06fe11dee5f6624e610",
        "c_unroll4": "b58e5f799173731d9266cefc75793912eb6c14dafa2577116f57ff16cbfcb34e",
        "netlist": "2bee0c88d0a15bd90966c7f00f33dc2fffa878536a07bde3dcc5ae50b49efe3e"
    },
    "planted/unbounded": {
        "c_unroll1": "f1f92ea0a039094b7ea38c0d5cf18e88940080f90e26e712a0f37633d14605f1",
        "c_unroll4": "4b12d5116672cfb682b73aaac5159905dceb029c417b946f398afecac09166c8",
        "netlist": "01078848a8a2a7c056ee9adfd04f59c008334f97552823c626e4ba2147b94c95"
    },
    "random_dag/p6": {
        "c_unroll1": "1d40455f1030f4cfcbc80f4810bc379d83d2404bc0f2cdc73ef24e8b76aacd98",
        "c_unroll4": "97177afcbfdba0794546dd3a7b94911e1ba2953b6c148659ab52e263fd315ff4",
        "netlist": "926f6bde0bdb40565a8cdc3e1f697ca18eebd7c9fd81149b0c18aada5bfa85a3"
    },
    "random_dag/raw": {
        "c_unroll1": "9ca3604b39065556cc00f4916f36212aa9c0c19c4fd34e2fd4053a4a3d7ec10c",
        "c_unroll4": "75a1b4a8f8b4cf26c7e2091efb1cdbb347d50f1d1b38fa3466b1e2dc760b1711",
        "netlist": "6d968372c9e954374334cc1ee151465338bcfde56575dc780ac933b545b59526"
    },
    "random_dag/unbounded": {
        "c_unroll1": "2cfc39729b96df84820b186651e5be8ae8e145e77e1dd111e98d539a04cb020f",
        "c_unroll4": "5b9659cc2665bead8b363f4c00d18421d0b613156583dc0b5e86ebfa2fa72712",
        "netlist": "bf0f7bbaefff5e56de6f188389ffaead4008cf22df0d7fa8508addb2dd4804bc"
    },
    "rinc_p6/p6": {
        "c_unroll1": "d249ebaa0f05d1092ddde8d9d1f29f54d2a4e11ac5085d77243136630ed75e88",
        "c_unroll4": "27dba101abc07a7b289b06f33f0cf158d52d39bfdea53118218b63fdfdc16653",
        "netlist": "78bb89b85f6a43f1d8302ef535d1568ef125422d0e1d3fa9958974feaec9498b"
    },
    "rinc_p6/raw": {
        "c_unroll1": "7351ff84abec130c41a8729b807579398c38cca06a634d1442181932a4cee783",
        "c_unroll4": "f7d9f8c74009fd657f674e3e8daad8c8d841354a22b4387f33ff39e50e743384",
        "netlist": "ace92b838633cf12e0121faec8453f0be200c55c44266c23bed3159667c339c2"
    },
    "rinc_p6/unbounded": {
        "c_unroll1": "d249ebaa0f05d1092ddde8d9d1f29f54d2a4e11ac5085d77243136630ed75e88",
        "c_unroll4": "27dba101abc07a7b289b06f33f0cf158d52d39bfdea53118218b63fdfdc16653",
        "netlist": "78bb89b85f6a43f1d8302ef535d1568ef125422d0e1d3fa9958974feaec9498b"
    },
    "struct_p8/p6": {
        "c_unroll1": "567a0701d11cd6b6188e1c4d6ee47f06cb7e13a2079886fac022381e26ffb2b2",
        "c_unroll4": "41e2fe951999fccf6be7334576788d076d2bc1b3594246fb48eb065413b20f86",
        "netlist": "8a7fe557fa2616a533adb1332a57c41409a40eda3709897b37a7b938f7996cc8"
    },
    "struct_p8/raw": {
        "c_unroll1": "4b552dc2a58205c2e8340fbdc4cc08542e114b20b51e5ce68b0720cb0b09e8c6",
        "c_unroll4": "045236c686d8adac8915741813c23d3d0174f60add30a82bdb4f7213269ac398",
        "netlist": "df10c3bd55040ca5f62f3b94cc40155be8c5b838b609628b641ce842527b5f2e"
    },
    "struct_p8/unbounded": {
        "c_unroll1": "ad9d9d4f2b03d5904ed4a0640807aac89748ba59bb2178aad15ddcbafcda9339",
        "c_unroll4": "2abb01f2b53738f4bd958ee3653803590e865c97b13925af39c685d75c34b399",
        "netlist": "b79286b79030bd15c375d9dbce10d958f10a6b0fc41d6199a5b6aebe661070b8"
    }
}


@pytest.mark.parametrize("pipeline", sorted(PIPELINES))
@pytest.mark.parametrize("name", sorted(NETLISTS))
def test_output_is_byte_identical_to_the_recorded_parent(name, pipeline):
    assert digests(name, pipeline) == GOLDEN[f"{name}/{pipeline}"]


def test_planted_netlist_exercises_every_special_case():
    """The small golden netlist is only worth pinning if the passes bite."""
    raw = planted_netlist()
    optimized = optimize_netlist(raw, max_lut_inputs=6)
    names = {node.name for node in optimized.nodes}
    assert "dead" not in names and "buf" not in names and "dup_b" not in names
    assert max(node.n_inputs for node in optimized.nodes) <= 6
    assert any(node.kind == "mux" for node in optimized.nodes)
    X = np.random.default_rng(3).integers(0, 2, size=(300, 12), dtype=np.uint8)
    np.testing.assert_array_equal(
        optimized.evaluate_outputs(X), raw.evaluate_outputs(X)
    )


if __name__ == "__main__":  # record: run on the commit whose output to pin
    table = {
        f"{name}/{pipeline}": digests(name, pipeline)
        for name in sorted(NETLISTS)
        for pipeline in sorted(PIPELINES)
    }
    print("GOLDEN = " + json.dumps(table, indent=4, sort_keys=True))
