"""What a serving process imports: NumPy and ``repro``, never SciPy.

SciPy is a trainer-only dependency (``LevelWiseDecisionTree.fit`` imports
it when it runs).  These checks run in fresh interpreters, because
pytest's own process has long since imported SciPy.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

_SERVE_CHILD = """
import json, pickle, sys
import numpy as np
import repro.core, repro.engine, repro.serving
from repro.engine import compile_netlist
from repro.engine.bitpack import pack_bits
from repro.serving import InferenceServer

with open(sys.argv[1], "rb") as handle:
    saved = pickle.load(handle)  # written by this repository's own code
clf, X, scores = saved["clf"], saved["X"], saved["scores"]
labels = clf.predict_batch(X, engine_backend="numpy")
packed = clf.decision_scores_packed_batch(pack_bits(X), len(X), engine_backend="numpy")
netlist = clf.to_netlist()
bits = compile_netlist(netlist, backend="numpy").predict_batch(X)
InferenceServer().register_model("m", model=clf, backend="numpy")
print(json.dumps({
    "labels_ok": bool((labels == np.argmax(scores, axis=1)).all()),
    "scores_ok": bool(np.array_equal(packed, scores)),
    "bits_ok": bool(np.array_equal(bits, netlist.evaluate_outputs(X))),
    "scipy": sorted(name for name in sys.modules if name.split(".")[0] == "scipy"),
}))
"""

_TRAIN_CHILD = """
import json, sys
import repro.core
from repro.core import RINCClassifier
from repro.datasets import make_binary_teacher_task

before = "scipy" in sys.modules
data = make_binary_teacher_task(n_train=200, n_test=50, n_features=32, n_active=8, seed=0)
clf = RINCClassifier(n_inputs=4, n_levels=1).fit(data.X_train, data.y_train)
print(json.dumps({
    "before": before,
    "after": "scipy" in sys.modules,
    "accuracy": clf.score(data.X_test, data.y_test),
}))
"""


def _run(code: str, *args: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    child = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout.splitlines()[-1])


def test_serving_a_fitted_classifier_never_imports_scipy():
    report = _run(_SERVE_CHILD, str(REPO / "tests" / "core" / "data" / "poetbin_pr14.pkl"))
    assert report["labels_ok"] and report["scores_ok"] and report["bits_ok"]
    assert report["scipy"] == []


def test_training_imports_scipy_when_it_fits():
    report = _run(_TRAIN_CHILD)
    assert report["before"] is False
    assert report["after"] is True
    assert report["accuracy"] > 0.5


def test_only_the_engine_package_reaches_the_worker_pool():
    """The process pool is a leaf of ``repro.engine``: no other module of
    ``src/repro`` imports ``repro.engine.parallel`` or names
    ``WorkerPool``, so nothing can hand a pool to a classifier or a server."""
    import ast

    src = REPO / "src"
    allowed = {"repro/engine/__init__.py", "repro/engine/parallel.py"}
    for path in sorted((src / "repro").rglob("*.py")):
        module_path = path.relative_to(src).as_posix()
        if module_path in allowed:
            continue
        package = module_path.rsplit("/", 1)[0].split("/")
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = {alias.name for alias in node.names}
                names = set()
            elif isinstance(node, ast.ImportFrom):
                base = package[: len(package) - node.level + 1] if node.level else []
                module = ".".join(base + ([node.module] if node.module else []))
                names = {alias.name for alias in node.names}
                modules = {module} | {f"{module}.{name}" for name in names}
            elif isinstance(node, ast.Name):
                modules, names = set(), {node.id}
            elif isinstance(node, ast.Attribute):
                modules, names = set(), {node.attr}
            else:
                continue
            assert "repro.engine.parallel" not in modules, (module_path, modules)
            assert "WorkerPool" not in names, (module_path, names)
