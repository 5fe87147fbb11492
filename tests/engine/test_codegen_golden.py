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
their scalar twin (one K-lane instantiation, a padded tail block), and both
C columns when the driver moved to a translation unit of its own (compiled
at other flags than the segments); every ``netlist`` digest is still the
one recorded at ``697752c``.
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
        "c_unroll1": "4ebcd740f42878ec9e19d6f48f6ee19b01c7866daff3137df95a94edd77adec7",
        "c_unroll4": "7c3912d627fd9d6076a5ee3a11c8bfa2817d19da07f148141c3bfeb02dca6468",
        "netlist": "3f00cbc37b52c5d426ce5823fc39ffcc6f8181e91730f9dd48b7869c77b23585"
    },
    "planted/raw": {
        "c_unroll1": "28d994b8311691c1e61a4e11cc0bd7f376ea17c239e1fb2fcbb4043dfe0d348b",
        "c_unroll4": "0ccb557328b568ffe81a6e83ceca81d7af745b04598a0a569351f1b7dc23c25e",
        "netlist": "2bee0c88d0a15bd90966c7f00f33dc2fffa878536a07bde3dcc5ae50b49efe3e"
    },
    "planted/unbounded": {
        "c_unroll1": "5ea63fd834792d4014ec05a25d7305cdf418ce870a7530fbb464e07bef925289",
        "c_unroll4": "4cbc0c06f4479c451b076bc4ec14701369efd5a1a20b37900eedc7c93afa5236",
        "netlist": "01078848a8a2a7c056ee9adfd04f59c008334f97552823c626e4ba2147b94c95"
    },
    "random_dag/p6": {
        "c_unroll1": "ac07fe56e1d0f16d7d84c145dce9905538c5d93a84f64311b4f7f0162ec6a5b3",
        "c_unroll4": "f61099cbeab424a1fb07f57950c08592b04189e4a80b08de6b20a83effd20d73",
        "netlist": "926f6bde0bdb40565a8cdc3e1f697ca18eebd7c9fd81149b0c18aada5bfa85a3"
    },
    "random_dag/raw": {
        "c_unroll1": "b96ae16efe616a6b690d7ae1ea6eb85470b0d9532a1861841a4bad7c4a2ac353",
        "c_unroll4": "f8faff0dbe700e21eb62957def1962bea03c78cfc66654fd6e3b95bb5c764a86",
        "netlist": "6d968372c9e954374334cc1ee151465338bcfde56575dc780ac933b545b59526"
    },
    "random_dag/unbounded": {
        "c_unroll1": "d6f1fc66dd600cc5335bd6763d242eeb163f4785b75703492550c58a820e7124",
        "c_unroll4": "9de9ab0e1ef7260741160faf9e34a129046c14d51f663e73d54f7035b93c1e36",
        "netlist": "bf0f7bbaefff5e56de6f188389ffaead4008cf22df0d7fa8508addb2dd4804bc"
    },
    "rinc_p6/p6": {
        "c_unroll1": "49c0a2015ee7b2f867f2df1d3d00281656183793cc1a3375617680fc1758e47a",
        "c_unroll4": "161c9d714cf54e8641ec075a07e4a3b4fc9e82b0841a06ba0caf625d3ff8116d",
        "netlist": "78bb89b85f6a43f1d8302ef535d1568ef125422d0e1d3fa9958974feaec9498b"
    },
    "rinc_p6/raw": {
        "c_unroll1": "9199d99de63afcbdef00326fb98d79aec281489832f9a534808c563810a5eced",
        "c_unroll4": "44105674d1ae805f279b2eb373460dabe9e96c2d503eb3cac45281c9b0d4b884",
        "netlist": "ace92b838633cf12e0121faec8453f0be200c55c44266c23bed3159667c339c2"
    },
    "rinc_p6/unbounded": {
        "c_unroll1": "49c0a2015ee7b2f867f2df1d3d00281656183793cc1a3375617680fc1758e47a",
        "c_unroll4": "161c9d714cf54e8641ec075a07e4a3b4fc9e82b0841a06ba0caf625d3ff8116d",
        "netlist": "78bb89b85f6a43f1d8302ef535d1568ef125422d0e1d3fa9958974feaec9498b"
    },
    "struct_p8/p6": {
        "c_unroll1": "a4497d4fdcb1110b0a00d097b1a9577f3e1278236d9b3f43de68fbd3aba007d8",
        "c_unroll4": "6c2dfd714ce11bdf35b2bba36f00f0e8bda9f5d25ed1eecab60c8cf87d8b7e65",
        "netlist": "8a7fe557fa2616a533adb1332a57c41409a40eda3709897b37a7b938f7996cc8"
    },
    "struct_p8/raw": {
        "c_unroll1": "b2ff7a0f8e63a1ed9c13c3371b28da49c36e44edae9c94b25b6f66aea28d52c5",
        "c_unroll4": "754b4f7f018e032e730e037e48573f0b5b19232b8ca1c4c2813ef58cddbec957",
        "netlist": "df10c3bd55040ca5f62f3b94cc40155be8c5b838b609628b641ce842527b5f2e"
    },
    "struct_p8/unbounded": {
        "c_unroll1": "3448f18068183665445b15173b55275eba42719cccdc1d9d5077f5cd7e271a5c",
        "c_unroll4": "c308d5601d6d588edd2b2282cc0685ff530fbc2417a0fce2a2f98a1785b2b23e",
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
