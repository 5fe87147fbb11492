"""Where a default ``predict_batch`` spends its time (``make profile-predict``).

Report only.  The benchmark's ``clf_p6`` (cached under ``benchmarks/perf/out``,
refitted in ~12 s when absent) on the NumPy backend: ns/sample per stage at
16 384 and 64 rows; per LUT arity the executor's NumPy calls per chunk and
word-passes per node, and the ns per word-pass it achieves next to an in-place
``^=`` on its own scratch (the roofline fraction); then the bit-layout helpers
at 1, 64 and 16 384 rows.
"""

from collections import Counter

import numpy as np

from benchmarks.perf import fixtures
from benchmarks.perf.measure import median_call_s
from repro.engine import concat_packed, pack_bits, unpack_bits
from repro.utils.validation import check_binary_matrix


def lut_cost(arity):
    """(NumPy calls per chunk, word-passes per node) of one executor step."""
    if arity == "mux":  # three gathers, xor & xor, scatter
        return 7, 7
    if arity < 2:  # a broadcast store; or gather, narrow xor, & ^, scatter
        return (5, 4) if arity else (1, 1)
    entries = 1 << (arity - 2)  # take, 4 basis, 2 index, gather, folds, scatter
    return 9 + 3 * (arity - 2), arity + 14 + entries + 3 * (entries - 1) + 1


def main() -> None:
    clf = fixtures.build().clf
    engine, readout = clf.compiled_netlist(), clf.output_layer_
    pool = fixtures.feature_rows(7, 16384)
    for rows in (16384, 64):
        X = pool[:rows]
        reps = 15 if rows > 64 else 200
        packed = pack_bits(X)
        bank = engine.run_packed(packed)
        scores = readout.decision_scores_packed(bank, rows)
        chunks = [pack_bits(X[i : i + 1]) for i in range(64)]
        stages = {
            "predict_batch": lambda: clf.predict_batch(X),
            "check": lambda: check_binary_matrix(X),
            "pack": lambda: pack_bits(X),
            "run_packed": lambda: engine.run_packed(packed),
            "look-up": lambda: readout.decision_scores_packed(bank, rows),
            "argmax": lambda: np.argmax(scores, axis=1),
        }
        helpers = {
            "pack": stages["pack"],
            "unpack": lambda: unpack_bits(packed, rows),
            "pack 1 row": lambda: pack_bits(X[:1]),
            "unpack 1 row": lambda: unpack_bits(packed, 1),
            "concat 64 x 1 sample": lambda: concat_packed(chunks, [1] * 64),
        }
        print(f"{rows} rows, ns/sample: " + "  ".join(
            f"{name} {1e9 * median_call_s(call, reps) / rows:.0f}"
            for name, call in stages.items()))
        print(f"{rows} rows, us: " + "  ".join(
            f"{name} {1e6 * median_call_s(call, reps):.1f}"
            for name, call in helpers.items()))
    nodes = Counter()
    for group in engine._groups:
        nodes[getattr(group, "arity", "mux")] += group.n_nodes
    for arity, count in sorted(nodes.items(), key=str):
        print("  arity {}: {} nodes, {} NumPy calls per chunk, {} word-passes "
              "per node".format(arity, count, *lut_cost(arity)))
    packed = pack_bits(pool)
    passes = packed.shape[1] * sum(lut_cost(a)[1] * n for a, n in nodes.items())
    scratch = engine._scratch[2]
    low, high = scratch[: scratch.size // 2], scratch[-(scratch.size // 2) :]
    xor = median_call_s(lambda: np.bitwise_xor(high, low, out=high), 200)
    achieved = 1e9 * median_call_s(lambda: engine.run_packed(packed), 15) / passes
    print(f"  {achieved:.2f} ns per word-pass at {packed.shape[1]} words; in-place "
          f"^= on the same scratch {1e9 * xor / low.size:.2f} ns/word")


if __name__ == "__main__":
    main()
