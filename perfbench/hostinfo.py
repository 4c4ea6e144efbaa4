"""Host readings: process CPU and memory, steal time, fingerprint."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys
import time

__all__ = ["process_cpu_s", "peak_rss_mib", "steal_s", "fingerprint"]

_TICKS = os.sysconf("SC_CLK_TCK")


def process_cpu_s(pid: int) -> float:
    """CPU time (user + system) of every thread of *pid*, dead ones too.

    Reads the process's POSIX CPU clock, the same total ``/proc/<pid>/
    stat`` reports as utime + stime, but to the nanosecond instead of
    in clock ticks, which are too coarse for one-second windows.  Its
    clock id is what ``clock_getcpuclockid(3)`` would return.
    """
    return time.clock_gettime(((~pid) << 3) | 2)  # CPUCLOCK_SCHED


def peak_rss_mib(pid: int) -> float:
    """The process's high-water resident set (``VmHWM``) in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def steal_s() -> float:
    """Host-wide steal time so far, summed over CPUs, in seconds."""
    with open("/proc/stat", encoding="ascii") as handle:
        fields = handle.readline().split()
    return int(fields[8]) / _TICKS if len(fields) > 8 else 0.0


def _source_digest(root: str) -> str:
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for base, dirs, files in os.walk(src):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(hashlib.sha256(handle.read()).digest())
    return digest.hexdigest()[:16]


def _git_commit(root: str) -> str:
    if not os.path.isdir(os.path.join(root, ".git")):
        return "none (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def fingerprint(root: str) -> dict:
    """What a reader needs to tell two hosts or two trees apart."""
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "machine": platform.machine(),
        "commit": _git_commit(root),
        "src_sha256": _source_digest(root),
    }
