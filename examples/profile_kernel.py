"""Where the native kernel's time goes (``make profile-kernel``).

Report only.  The four ``benchmarks/perf`` fixtures after the default passes
at ``max_lut_inputs=6``, as the one build every engine runs (the host's
vector width and flags) and, for contrast, the same flags at one lane:
emitted statements, units, one cold ``cc``, ``.so`` bytes; ``run_range`` on
one thread at 1 024 words, with ns per executed statement (one op on K
words), and at 1 / 3 / 7 / 9 / 33 words; where ``objdump`` exists,
instructions and vector instructions per statement in the word program and
the vector ops per ns they achieve — over two per cycle times the clock,
the achieved fraction of the bound.
"""

import os
import re
import shutil
import subprocess
import tempfile
import time

import numpy as np

from benchmarks.perf import fixtures
from benchmarks.perf.measure import median_call_s
from repro.engine import CompiledNetlist, native, optimize_netlist

SEGMENT = r"void seg\d+_w\d+\(W\* restrict s\) \{\n(.*?)\n\}"


def seg_instructions(so_path):
    """``(instructions, vector instructions)`` of the word program: the
    ``seg*`` functions and the ``run_word_w*`` driver that may inline them."""
    listing = subprocess.run(
        ["objdump", "-d", "--no-show-raw-insn", so_path], capture_output=True, text=True
    ).stdout
    total = vector = 0
    inside = False
    for line in listing.splitlines():
        if line.endswith(">:"):
            inside = re.search(r"<(seg\d+|run_word)_w\d+>:$", line) is not None
        elif inside and "\t" in line:
            total += 1
            vector += re.search(r"%[xyz]mm", line) is not None
    return total, vector


def build(program, unroll):
    """``(engine, statements, units, cc s, .so bytes, seg* instructions)``."""
    source = native.generate_c_source(program, unroll)
    statements = sum(body.count(";") for body in re.findall(SEGMENT, source, re.S))
    with tempfile.TemporaryDirectory() as cache:
        start = time.perf_counter()
        _, so_path = native.build_shared_object(source, cache_dir=cache)
        cc_s = time.perf_counter() - start
        engine = native.NativeCompiledNetlist(program, cache_dir=cache, unroll=unroll)
        insns = seg_instructions(so_path) if shutil.which("objdump") else None
        units = source.count(native._UNIT_MARKER) + 1
        return engine, statements, units, cc_s, os.path.getsize(so_path), insns


def run_range_us(engine, x, words, reps):
    batch = np.ascontiguousarray(x[:, :words])
    out = np.empty((engine.n_outputs, words), dtype=np.uint64)
    args = [a.ctypes.data_as(native._WORD_PTR) for a in (batch, out)]
    args += [0, words, words]
    return 1e6 * median_call_s(lambda: engine._run_range(*args), reps)


def main() -> None:
    lanes = native.vector_lanes()
    print(f"vector_lanes() = {lanes}")
    for name, netlist in fixtures.build().programs.items():
        optimized = optimize_netlist(netlist, max_lut_inputs=6)
        program = CompiledNetlist.from_netlist(optimized)
        x = fixtures.packed_batch(7, program.n_primary_inputs, 1024)
        for unroll in (lanes, 1):
            engine, stmts, units, cc_s, so_bytes, insns = build(program, unroll)
            big_us = run_range_us(engine, x, 1024, 60)
            ns = 1e3 * big_us / (stmts * 1024 / unroll)
            small = " ".join(
                f"{w}w {run_range_us(engine, x, w, 300):.1f}" for w in (1, 3, 7, 9, 33)
            )
            line = (f"{name} {engine.opt_tier} x{unroll}: {stmts} statements, {units} units,"
                    f" cc {cc_s:.2f} s, .so {so_bytes} B; 1024 words {big_us:.0f} us"
                    f" = {ns:.2f} ns/statement; {small} us")
            if insns:
                per = [count / stmts for count in insns]
                line += (f"; {per[0]:.2f} insns, {per[1]:.2f} vector ops per statement"
                         f" = {per[1] / ns:.2f} vector ops/ns")
            print(line)


if __name__ == "__main__":
    main()
