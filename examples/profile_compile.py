"""Where a warm ``compile_netlist`` spends its time (``make profile-compile``).

Report only.  Compiles the three synthetic benchmark netlists on the NumPy
backend (no toolchain, no cache) stage by stage, the way ``compile_netlist``
composes them, and prints per-stage milliseconds, what the fold passes did,
both cost models and a ``cProfile`` of the whole compile — the numbers to
budget a new pass against.  ``codegen`` is ``generate_c_source(program)`` at
its default unroll, the host's ``vector_lanes()``: the source every native
engine builds.
"""

import cProfile
import pstats
import time
from collections import Counter

from repro.engine import (
    CompiledNetlist, ConstantFoldPass, IRGraph, compile_netlist, default_passes,
    random_netlist, rinc_bank_netlist, statement_cost, structured_bank_netlist,
    table_cost,
)
from repro.engine.native import generate_c_source, vector_lanes

REPEATS = 5
NETLISTS = {
    "rinc_p6": rinc_bank_netlist(256, 960, 160, 60, lut_width=6, seed=2),
    "struct_p8": structured_bank_netlist(256, 960, 160, 60, lut_width=8, tree_depth=3),
    "random_dag": random_netlist(256, 600, n_outputs=60),
}

def main() -> None:
    print(f"codegen = generate_c_source(program) at unroll = vector_lanes() = "
          f"{vector_lanes()}")
    for name, netlist in NETLISTS.items():
        ms, fold = Counter(), Counter()

        def timed(stage, call):
            start = time.perf_counter()
            result = call()
            ms[stage] += (time.perf_counter() - start) * 1e3 / REPEATS
            return result

        for _ in range(REPEATS):
            graph = timed("from_netlist", lambda: IRGraph.from_netlist(netlist))
            for p in default_passes(6):
                before = {n.name: (len(n.inputs), n.bits) for n in graph.nodes}
                fold["visits"] += isinstance(p, ConstantFoldPass) and len(graph.live_nodes())
                graph = timed(p.name, lambda: p.run(graph))
                if isinstance(p, ConstantFoldPass):
                    after = [(before[n.name], (n.n_inputs, n.bits)) for n in graph.nodes]
                    fold["reduced"] += sum(was[0] > now[0] for was, now in after)
                    fold["rewritten"] += sum(was != now for was, now in after)
            optimized = timed("to_netlist", graph.to_netlist)
            program = timed("lower", lambda: CompiledNetlist.from_netlist(optimized))
            timed("codegen", lambda: generate_c_source(program))
        print(f"{name}: {sum(ms.values()):.1f} ms = "
              + "  ".join(f"{stage} {value:.1f}" for stage, value in ms.items()))
        print("  fold per compile: "
              + ", ".join(f"{key} {count // REPEATS}" for key, count in fold.items())
              + f"; table_cost {table_cost(optimized)}, "
              f"statement_cost {statement_cost(optimized)}")

    profile = cProfile.Profile()
    profile.enable()
    for netlist in NETLISTS.values():
        compile_netlist(netlist, backend="numpy", max_lut_inputs=6)
    profile.disable()
    pstats.Stats(profile).sort_stats("cumulative").print_stats(15)


if __name__ == "__main__":
    main()
