"""The one place the benchmark touches ``repro``.

Every public entry point the benchmark depends on is imported here and
nowhere else, so this file *is* the list a refactor must keep callable (or
change together with a benchmark-only PR — see README.md).  Importing it
fails, on purpose, in a tree without ``src/``.
"""

from __future__ import annotations

import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parents[2] / "src"
if not (_SRC / "repro").is_dir():
    raise ImportError(f"the program under test is missing: {_SRC}/repro")
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

# the model and its reference (non-engine) path
from repro.core import PoETBiNClassifier  # noqa: E402
from repro.core.serialization import netlist_to_dict  # noqa: E402

# engine: compiler, executors, bit layout
from repro.engine import (  # noqa: E402
    CompiledNetlist,
    IRGraph,
    NativeCompiledNetlist,
    WorkerPool,
    compile_netlist,
    concat_packed,
    default_passes,
    mask_padding,
    optimize_netlist,
    pack_bits,
    packed_weighted_sums,
    random_netlist,
    rinc_bank_netlist,
    structured_bank_netlist,
    table_cost,
    unpack_bits,
)
from repro.engine.native import (  # noqa: E402
    build_shared_object,
    find_compiler,
    generate_c_source,
)

# serving: queue, server, client, both wire codecs
from repro.serving import (  # noqa: E402
    BatchingQueue,
    InferenceServer,
    ServingClient,
    decode_reply,
    encode_message,
    encode_predict_request,
    encode_reply,
    replace_request_id,
)
from repro.serving.transport import read_frame, read_reply_frame  # noqa: E402

__all__ = [
    "BatchingQueue",
    "CompiledNetlist",
    "IRGraph",
    "InferenceServer",
    "NativeCompiledNetlist",
    "PoETBiNClassifier",
    "ServingClient",
    "WorkerPool",
    "build_shared_object",
    "compile_netlist",
    "concat_packed",
    "decode_reply",
    "default_passes",
    "encode_message",
    "encode_predict_request",
    "encode_reply",
    "find_compiler",
    "generate_c_source",
    "mask_padding",
    "netlist_to_dict",
    "optimize_netlist",
    "pack_bits",
    "packed_weighted_sums",
    "random_netlist",
    "read_frame",
    "read_reply_frame",
    "replace_request_id",
    "rinc_bank_netlist",
    "structured_bank_netlist",
    "table_cost",
    "unpack_bits",
]
