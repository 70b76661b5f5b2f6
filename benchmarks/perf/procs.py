"""The served process under test: spawn, observe, stop, and prove it is gone.

Every server is the real ``python -m repro serve`` in a session of its
own (``start_new_session``), so the server, its shard workers and its pool
workers share one session id that nothing else on the box has.  That id is
how the harness finds the whole tree in ``/proc`` — to add up memory and
CPU, to ``kill -9`` it on purpose, and to assert afterwards that no member
outlived the run.
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

SRC_DIR = Path(__file__).resolve().parents[2] / "src"

_CLOCK_TICK = os.sysconf("SC_CLK_TCK")
_READY_TIMEOUT_S = 120.0


class ServerError(RuntimeError):
    """The server did not start, did not stop, or left a process behind."""


def session_pids(sid: int) -> list[int]:
    """Live (non-zombie) pids whose session id is ``sid``."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue  # exited while we were listing
        # Fields after the parenthesised command name, which may itself
        # contain spaces: state, ppid, pgrp, session, ...
        fields = stat[stat.rindex(")") + 2:].split()
        if int(fields[3]) == sid and fields[0] != "Z":
            pids.append(int(entry))
    return pids


class ServerProcess:
    """One ``repro serve`` subprocess listening on a Unix socket.

    ``workdir`` holds the socket, the log and whatever store the flags
    name; the caller owns it, and calls :meth:`kill` on every path out.
    """

    def __init__(self, workdir: Path, database: Path, flags: list[str],
                 cpus: set[int]) -> None:
        self.workdir = workdir
        #: CPUs the server and everything it spawns may run on.
        self.cpus = cpus
        # A Unix socket path is limited to ~107 bytes; a path relative to
        # the working directory stays short wherever the checkout lives.
        self.socket_path = os.path.relpath(workdir / "serve.sock")
        self.address = f"unix:{self.socket_path}"
        self.command = [
            sys.executable, "-m", "repro", "serve", str(database),
            "--listen", self.address, *flags,
        ]
        self.proc: subprocess.Popen | None = None
        self.spawned_at = 0.0
        self._log = None

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "ServerProcess":
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC_DIR) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        self._log = open(self.workdir / "serve.log", "ab")
        self.spawned_at = time.perf_counter()
        self.proc = subprocess.Popen(
            self.command, stdout=self._log, stderr=subprocess.STDOUT,
            stdin=subprocess.DEVNULL, env=env, start_new_session=True,
        )
        # Set before the interpreter has started a thread or a worker, so
        # the whole tree inherits it.
        os.sched_setaffinity(self.proc.pid, self.cpus)
        return self

    def connect(self) -> socket.socket:
        """Block until the server accepts and answers ``ping``; returns
        the connected socket (the one connection the load generator uses)."""
        deadline = time.perf_counter() + _READY_TIMEOUT_S
        while True:
            if self.proc.poll() is not None:
                raise ServerError(
                    f"server exited with code {self.proc.returncode} before "
                    f"answering ping:\n{self.log_tail()}"
                )
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                sock.connect(self.socket_path)
                sock.sendall(b'{"id":"ready","op":"ping"}\n')
                sock.settimeout(_READY_TIMEOUT_S)
                if sock.recv(4096).startswith(b'{"id":"ready","ok":true'):
                    sock.settimeout(None)
                    return sock
            except OSError:
                pass
            sock.close()
            if time.perf_counter() > deadline:
                raise ServerError(
                    f"server did not answer ping within {_READY_TIMEOUT_S:.0f} s:"
                    f"\n{self.log_tail()}"
                )
            time.sleep(0.005)

    def log_tail(self, lines: int = 20) -> str:
        try:
            text = (self.workdir / "serve.log").read_text(errors="replace")
        except OSError:
            return "(no log)"
        return "\n".join(text.splitlines()[-lines:])

    def kill(self) -> None:
        """``kill -9`` the whole session and wait until it is empty."""
        if self.proc is None:
            return
        sid = self.proc.pid
        deadline = time.perf_counter() + 10.0
        while True:
            for pid in session_pids(sid):
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            self.proc.poll()  # reap our direct child if it is a zombie
            if not session_pids(sid):
                break
            if time.perf_counter() > deadline:
                raise ServerError(
                    f"processes {session_pids(sid)} of session {sid} "
                    f"survived SIGKILL"
                )
            time.sleep(0.002)
        self.proc.wait()
        if self._log is not None:
            self._log.close()
            self._log = None

    # -- observation -----------------------------------------------------

    def pids(self) -> list[int]:
        return session_pids(self.proc.pid)

    def peak_rss_mb(self) -> float:
        """Sum of ``VmHWM`` over the server and its live children, in MB."""
        total_kb = 0
        for pid in self.pids():
            try:
                status = Path("/proc", str(pid), "status").read_text()
            except OSError:
                continue
            for line in status.splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
                    break
        return total_kb / 1024.0

    def cpu_seconds(self) -> float:
        """User + system CPU time of the tree so far.

        A worker that has exited is counted through its parent's
        ``cutime``/``cstime`` once the parent has reaped it.
        """
        ticks = 0
        for pid in self.pids():
            try:
                stat = Path("/proc", str(pid), "stat").read_text()
            except OSError:
                continue
            fields = stat[stat.rindex(")") + 2:].split()
            ticks += sum(int(f) for f in fields[11:15])
        return ticks / _CLOCK_TICK
