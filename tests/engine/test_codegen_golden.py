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
so.
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
        "c_unroll4": "533c20148b8fa038547e41d066a089f2c19c0b21f1136ef1f9fdc557e97bb751",
        "netlist": "3f00cbc37b52c5d426ce5823fc39ffcc6f8181e91730f9dd48b7869c77b23585"
    },
    "planted/raw": {
        "c_unroll1": "e67e677b14be9b31f38150d49eb0b1f2b6cd92696bf4d06fe11dee5f6624e610",
        "c_unroll4": "5a8917f5936d5ca90f2b545ddc333aee9ced2e30f3971214b7ec50d3110dbaf4",
        "netlist": "2bee0c88d0a15bd90966c7f00f33dc2fffa878536a07bde3dcc5ae50b49efe3e"
    },
    "planted/unbounded": {
        "c_unroll1": "f1f92ea0a039094b7ea38c0d5cf18e88940080f90e26e712a0f37633d14605f1",
        "c_unroll4": "c1ac45699fe20348942fd5f7800b7a62ab511878d8f44174d141f7b8fb3e2cbc",
        "netlist": "01078848a8a2a7c056ee9adfd04f59c008334f97552823c626e4ba2147b94c95"
    },
    "random_dag/p6": {
        "c_unroll1": "1d40455f1030f4cfcbc80f4810bc379d83d2404bc0f2cdc73ef24e8b76aacd98",
        "c_unroll4": "6bb268ed193f9ddea531c9e0b8cbef52cd784c6d344110b3c04bc24532d7cb51",
        "netlist": "926f6bde0bdb40565a8cdc3e1f697ca18eebd7c9fd81149b0c18aada5bfa85a3"
    },
    "random_dag/raw": {
        "c_unroll1": "9ca3604b39065556cc00f4916f36212aa9c0c19c4fd34e2fd4053a4a3d7ec10c",
        "c_unroll4": "5e648436862578da38e42a9d9a5a664cd0cc27be51182a4d5ba5747a4eb99f02",
        "netlist": "6d968372c9e954374334cc1ee151465338bcfde56575dc780ac933b545b59526"
    },
    "random_dag/unbounded": {
        "c_unroll1": "2cfc39729b96df84820b186651e5be8ae8e145e77e1dd111e98d539a04cb020f",
        "c_unroll4": "ecb7d0a48e42d5b1dffc3c56c2dc126a664d47f1e36a26efbe0d7c742bf4eefb",
        "netlist": "bf0f7bbaefff5e56de6f188389ffaead4008cf22df0d7fa8508addb2dd4804bc"
    },
    "rinc_p6/p6": {
        "c_unroll1": "d249ebaa0f05d1092ddde8d9d1f29f54d2a4e11ac5085d77243136630ed75e88",
        "c_unroll4": "9566b8d148009c869bc4e421eccf423d08048eacc8308288ff4d5f708e8d13cc",
        "netlist": "78bb89b85f6a43f1d8302ef535d1568ef125422d0e1d3fa9958974feaec9498b"
    },
    "rinc_p6/raw": {
        "c_unroll1": "7351ff84abec130c41a8729b807579398c38cca06a634d1442181932a4cee783",
        "c_unroll4": "b9a4ce39937bce588c063c3807a4e486cfef1b225838f5e1490c84b9b8464c01",
        "netlist": "ace92b838633cf12e0121faec8453f0be200c55c44266c23bed3159667c339c2"
    },
    "rinc_p6/unbounded": {
        "c_unroll1": "d249ebaa0f05d1092ddde8d9d1f29f54d2a4e11ac5085d77243136630ed75e88",
        "c_unroll4": "9566b8d148009c869bc4e421eccf423d08048eacc8308288ff4d5f708e8d13cc",
        "netlist": "78bb89b85f6a43f1d8302ef535d1568ef125422d0e1d3fa9958974feaec9498b"
    },
    "struct_p8/p6": {
        "c_unroll1": "567a0701d11cd6b6188e1c4d6ee47f06cb7e13a2079886fac022381e26ffb2b2",
        "c_unroll4": "2babf3afc02908216940b3d769d1fd53bded475e65d0e33d7e52d52570c81c67",
        "netlist": "8a7fe557fa2616a533adb1332a57c41409a40eda3709897b37a7b938f7996cc8"
    },
    "struct_p8/raw": {
        "c_unroll1": "4b552dc2a58205c2e8340fbdc4cc08542e114b20b51e5ce68b0720cb0b09e8c6",
        "c_unroll4": "8713565ad3597cc4ee5e29aafe71cd3419c2a215c40900dc5f9682eb3cc58416",
        "netlist": "df10c3bd55040ca5f62f3b94cc40155be8c5b838b609628b641ce842527b5f2e"
    },
    "struct_p8/unbounded": {
        "c_unroll1": "ad9d9d4f2b03d5904ed4a0640807aac89748ba59bb2178aad15ddcbafcda9339",
        "c_unroll4": "2d488117beaa6cfc357aaa0f078012298128ad93be11f84dad86cf834206b4e0",
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
