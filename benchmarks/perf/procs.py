"""Process and scratch-space hygiene, enforced rather than hoped for.

Every process the benchmark starts lives inside :func:`child`, which puts
it in its own session and — however the block is left — closes its stdin,
SIGTERMs the group, waits, SIGKILLs the group and ``wait()``s.  Every
scratch directory comes from :meth:`Audit.scratch_dir` under ``out/``
(inside the checkout).  :meth:`Audit.leftovers` is the final audit the
runner exits non-zero on.  Nothing here imports ``repro``.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, Iterator, List, Sequence, Set, Tuple

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
OUT_DIR = HERE / "out"

TERM_GRACE_S = 5.0


def stat_fields(pid) -> List[str]:
    """``/proc/<pid>/stat`` from field 3 (state) on; field 2 (comm) may
    itself contain spaces and parentheses, so split after its last ``)``."""
    stat = Path("/proc", str(pid), "stat").read_text()
    return stat[stat.rindex(")") + 2:].split()


def _proc_table() -> Dict[int, Tuple[int, int]]:
    """``pid -> (ppid, session)`` of every live, non-zombie process."""
    table = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            fields = stat_fields(entry)
        except OSError:
            continue  # exited while we were looking
        if fields[0] != "Z":
            table[int(entry)] = (int(fields[1]), int(fields[3]))
    return table


def _session_members(sid: int) -> List[int]:
    return [pid for pid, (_, session) in _proc_table().items() if session == sid]


def _signal_group(pgid: int, signum: int) -> None:
    try:
        os.killpg(pgid, signum)
    except (ProcessLookupError, PermissionError):
        pass


def reap(proc: subprocess.Popen, grace_s: float = TERM_GRACE_S) -> None:
    """Stop ``proc`` and everything in its session; returns once reaped.

    The child leads its own session (``start_new_session=True``), so the
    group signal also reaches grandchildren (pool workers, the
    multiprocessing resource tracker) that outlive a well-behaved leader.
    """
    sid = proc.pid
    for stream in (proc.stdin, proc.stdout):
        if stream is not None:
            try:
                stream.close()
            except OSError:
                pass
    _signal_group(sid, signal.SIGTERM)
    deadline = time.monotonic() + grace_s
    while time.monotonic() < deadline:
        if proc.poll() is not None and not _session_members(sid):
            return
        time.sleep(0.01)
    _signal_group(sid, signal.SIGKILL)
    proc.wait()
    deadline = time.monotonic() + grace_s
    while _session_members(sid) and time.monotonic() < deadline:
        time.sleep(0.01)  # SIGKILL cannot be refused; the audit names any holdout


@contextlib.contextmanager
def child(argv: Sequence[str], env: dict) -> Iterator[subprocess.Popen]:
    """Run ``python <argv>`` as a supervised child with piped stdin/stdout."""
    proc = subprocess.Popen(
        [sys.executable, *argv],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        env=env,
        cwd=str(REPO_ROOT),
        start_new_session=True,
    )
    try:
        yield proc
    finally:
        reap(proc)


def descendants(root: int) -> List[int]:
    """Live pids whose ancestry leads to ``root`` (``/proc`` scan)."""
    table = _proc_table()
    found: List[int] = []
    frontier = {root}
    while frontier:
        frontier = {pid for pid, (ppid, _) in table.items() if ppid in frontier}
        found.extend(sorted(frontier))
    return found


class Audit:
    """Hands out scratch directories and, at the end, names what survived."""

    def __init__(self) -> None:
        self._shm_before = self._shm_segments()
        self._scratch: List[Path] = []

    @staticmethod
    def _shm_segments() -> Set[str]:
        try:
            return set(os.listdir("/dev/shm"))
        except OSError:
            return set()

    @contextlib.contextmanager
    def scratch_dir(self, prefix: str) -> Iterator[Path]:
        """A fresh directory under ``out/``, removed on the way out."""
        OUT_DIR.mkdir(exist_ok=True)
        path = Path(tempfile.mkdtemp(prefix=f"tmp-{prefix}-", dir=OUT_DIR))
        self._scratch.append(path)
        try:
            yield path
        finally:
            shutil.rmtree(path, ignore_errors=True)

    def leftovers(self) -> List[str]:
        """Findings, one printable line each; strays are killed and removed."""
        findings: List[str] = []
        for proc in multiprocessing.active_children():
            findings.append(f"multiprocessing child {proc.pid} ({proc.name})")
            proc.kill()
            proc.join()
        for pid in descendants(os.getpid()):
            try:
                raw = Path("/proc", str(pid), "cmdline").read_bytes()
            except OSError:
                continue
            cmdline = raw.replace(b"\0", b" ").decode(errors="replace").strip()
            findings.append(f"descendant process {pid}: {cmdline}")
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        # Python names its SharedMemory segments psm_*; only those are ours
        for name in sorted(self._shm_segments() - self._shm_before):
            if name.startswith("psm_"):
                findings.append(f"shared-memory segment /dev/shm/{name}")
                try:
                    os.unlink(os.path.join("/dev/shm", name))
                except OSError:
                    pass
        for path in self._scratch:
            if path.exists():
                findings.append(f"scratch directory {path}")
                shutil.rmtree(path, ignore_errors=True)
        return findings
