"""Shared pytest fixtures."""

from __future__ import annotations

import numpy as np
import pytest


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic generator for tests."""
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def trained_poetbin():
    """A small fitted PoET-BiN classifier: ``(clf, X, targets, y)``.

    Shared by the engine equivalence tests and the serving tests that need
    a real classifier (engine selection and ownership); tests that need
    pristine engine caches take ``copy.copy(clf)`` and reset ``_compiled_``.
    """
    from repro.core import PoETBiNClassifier
    from repro.utils.rng import as_rng

    rng = as_rng(0)
    n, n_features, n_classes, per_class = 400, 48, 3, 2
    X = (rng.random((n, n_features)) < 0.5).astype(np.uint8)
    n_intermediate = n_classes * per_class
    targets = np.empty((n, n_intermediate), dtype=np.uint8)
    for j in range(n_intermediate):
        support = rng.choice(n_features, size=5, replace=False)
        w = rng.normal(size=5)
        targets[:, j] = (X[:, support] @ w - w.sum() / 2 >= 0).astype(np.uint8)
    block = targets.reshape(n, n_classes, per_class).sum(axis=2).astype(float)
    y = np.argmax(block + rng.normal(scale=0.05, size=block.shape), axis=1)
    clf = PoETBiNClassifier(
        n_classes=n_classes,
        n_inputs=4,
        n_levels=1,
        branching=(3,),
        intermediate_per_class=per_class,
        output_epochs=3,
        seed=0,
    ).fit(X, targets, y)
    return clf, X, targets, y


@pytest.fixture
def cc_wrapper(tmp_path):
    """``make(fail_on=None, hang_on=None) -> (wrapper path, log path)``: a
    ``$CC`` wrapper that logs each invocation and delegates to the real
    compiler — except its ``fail_on``-th invocation, which fails at once,
    and its ``hang_on``-th, which (when it starts before that failure)
    first waits ~10 s to be terminated and logs ``survived`` if nobody did.
    The wait also ends when the directory ``make.release`` is created: a
    build held mid-flight, let go.

    Invocations take their number by ``mkdir`` (atomic, so concurrent
    compilers never share one) and log it with their pid through
    ``O_APPEND``; ``exec`` keeps that pid for the compiler itself.  The
    host probe (``-dM -E``, once per process and compiler) builds nothing:
    it goes straight to the real compiler, unnumbered.
    """
    import stat

    from repro.engine.native import find_compiler

    release = tmp_path / "cc_release"

    def make(fail_on=None, hang_on=None):
        log = tmp_path / "cc_invocations.log"
        tickets = tmp_path / "cc_tickets"
        tickets.mkdir()
        wrapper = tmp_path / "cc_wrapper.sh"
        real = " ".join(find_compiler())
        wrapper.write_text(
            "#!/bin/sh\n"
            f'case " $* " in *" -dM "*) exec {real} "$@";; esac\n'
            "n=1\n"
            f'while ! mkdir "{tickets}/$n" 2>/dev/null; do n=$((n+1)); done\n'
            f'echo "$n $$" >> {log}\n'
            f'if [ "$n" = "{fail_on}" ]; then\n'
            f' mkdir "{tickets}/failed"; echo "injected failure" >&2; exit 1\n'
            "fi\n"
            f'if [ "$n" = "{hang_on}" ] && [ ! -e "{tickets}/failed" ]; then\n'
            " i=0\n"
            f' while [ $i -lt 1000 ] && [ ! -e "{release}" ]; do\n'
            "  sleep 0.01; i=$((i+1))\n"
            " done\n"
            f' [ -e "{release}" ] || echo "$n survived" >> {log}\n'
            "fi\n"
            f'exec {real} "$@"\n'
        )
        wrapper.chmod(wrapper.stat().st_mode | stat.S_IEXEC)
        return wrapper, log

    make.release = release
    return make


@pytest.fixture
def held_build(tmp_path, monkeypatch, cc_wrapper):
    """A fresh ``$REPRO_NATIVE_CACHE`` and a compiler whose first build
    waits for ``cc_wrapper.release`` (~10 s at most); yields that path.
    Every build thread is let go and joined on the way out."""
    import threading

    from repro.engine import native as native_mod

    if not native_mod.toolchain_available():
        pytest.skip("no C compiler on this host")
    wrapper, _log = cc_wrapper(hang_on=1)
    monkeypatch.setattr(native_mod, "find_compiler", lambda: [str(wrapper)])
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "cache"))
    yield cc_wrapper.release
    cc_wrapper.release.mkdir(exist_ok=True)
    for thread in threading.enumerate():
        if thread.name == "repro-native-build":
            thread.join(60)
