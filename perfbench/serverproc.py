"""One server process: launch, readiness, memory, orderly stop, leak check.

Each server runs in a session of its own, so every process it starts --
the multiprocessing forkserver, the shard workers, the resource
tracker -- shares its process group.  That group is what
:meth:`ServerProcess.memory_mb` sums over, and what
:meth:`ServerProcess.stop` requires to be gone once the server exits.
"""

from __future__ import annotations

import os
import re
import select
import signal
import subprocess
import time

_READY = re.compile(rb"listening on http://([^\s:/]+):(\d+)")

#: Seconds the server's helper processes get to exit after it has.
_GRACE_S = 10.0


class ServerFailure(RuntimeError):
    """The server did not start, did not stop, or left processes behind."""


def _stat(pid: int) -> list[bytes]:
    """``/proc/PID/stat`` fields after the command name (``[]`` if gone):
    state, ppid, pgrp, ..."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            return fh.read().rsplit(b")", 1)[1].split()
    except OSError:
        return []


def _peak_rss_kb(pid: int) -> int:
    """VmHWM of one process in kB (0 once it is gone)."""
    try:
        with open(f"/proc/{pid}/status", "rb") as fh:
            for line in fh:
                if line.startswith(b"VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class ServerProcess:
    """``argv`` started in a new session, ready once it prints the URL
    it listens on.  ``addr`` is that ``(host, port)``."""

    def __init__(self, argv: list[str], *, env: dict, log_path: str,
                 timeout_s: float = 120.0):
        self._log = open(log_path, "ab")
        self.proc = subprocess.Popen(
            argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            stderr=self._log, env=env, start_new_session=True)
        try:
            self.addr = self._wait_ready(timeout_s)
        except BaseException:
            self.kill()
            raise

    def _wait_ready(self, timeout_s: float) -> tuple[str, int]:
        fd = self.proc.stdout.fileno()
        deadline = time.monotonic() + timeout_s
        seen = b""
        while not (match := _READY.search(seen)):
            left = deadline - time.monotonic()
            if left <= 0:
                raise ServerFailure(
                    f"server not listening after {timeout_s:.0f} s")
            if select.select([fd], [], [], left)[0]:
                chunk = os.read(fd, 4096)
                if not chunk:
                    raise ServerFailure(
                        f"server exited with code {self.proc.wait()} "
                        "before listening")
                seen += chunk
        return match.group(1).decode(), int(match.group(2))

    def alive(self) -> bool:
        return self.proc.poll() is None

    def group(self) -> list[int]:
        """Live processes of the server's process group, itself included."""
        pids = []
        for entry in os.listdir("/proc"):
            if entry.isdigit():
                fields = _stat(int(entry))
                if (fields and fields[0] != b"Z"
                        and int(fields[2]) == self.proc.pid):
                    pids.append(int(entry))
        return pids

    def memory_mb(self) -> tuple[float, float]:
        """Peak resident memory (VmHWM) in MB, as ``(server and helper
        processes, helper processes alone)``."""
        total = helpers = 0
        for pid in self.group():
            kb = _peak_rss_kb(pid)
            total += kb
            if pid != self.proc.pid:
                helpers += kb
        return total / 1024, helpers / 1024

    def stop(self, timeout_s: float = 60.0) -> None:
        """SIGINT the server -- it closes its pools and its store -- and
        raise :class:`ServerFailure` if it does not exit or any process
        of its group outlives it.  Whatever is left is killed."""
        try:
            if self.alive():
                self.proc.send_signal(signal.SIGINT)
                try:
                    self.proc.wait(timeout_s)
                except subprocess.TimeoutExpired:
                    raise ServerFailure(
                        f"server still running {timeout_s:.0f} s after "
                        "SIGINT") from None
            deadline = time.monotonic() + _GRACE_S
            while (left := self.group()) and time.monotonic() < deadline:
                time.sleep(0.05)
            if left:
                raise ServerFailure(f"processes {left} outlived the server")
        finally:
            self.kill()

    def kill(self) -> None:
        """SIGKILL whatever is left of the group (idempotent)."""
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        self.proc.stdout.close()
        self._log.close()
