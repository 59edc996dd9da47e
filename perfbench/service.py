"""The service workload: a pinned ``repro serve --listen`` and a closed-window client.

The server runs in its own process with every ``repro serve`` flag that takes
a value pinned (:func:`serve_args`), so a changed default shows up as a diff
here.  The client is one process, one thread and one non-blocking connection
that keeps :data:`WINDOW` single-arrival ``submit`` frames in flight, like as
many callers that each wait for their reply: it sends the next frame as soon
as a reply comes back.  Far more frames are in flight than the server's
``--batch``, so a full batch is always queued when the dispatcher finishes
one; the server never waits out its coalescing deadline, and throughput and
latency follow the CPU work per arrival, not timers.
"""

from __future__ import annotations

import gc
import json
import os
import select
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent

#: The server's ``--batch``: arrivals per engine ``submit_batch``.
BATCH = 8

#: Frames the client keeps in flight.  A pause of the server delays every one
#: of them, so each of its two or so full garbage collections per repetition
#: delays 128 arrivals, more than 1% of :data:`~perfbench.inputs.SERVICE_ARRIVALS`:
#: p99 then measures the longest pause, which repeats from run to run, rather
#: than the host's millisecond stalls, which do not (with 16 in flight, p99
#: moved by 30% of its median across five seeds on a shared 2-vCPU VM).
WINDOW = 16 * BATCH

#: How long the client waits for any reply before it gives up on the rest.
REPLY_TIMEOUT_S = 30.0

#: Upper bound on any wait for the server (start-up, drain, exit).
SERVER_TIMEOUT_S = 60.0


def serve_args(trace: str, seed: int, log: str) -> List[str]:
    """Every value-taking ``repro serve`` flag, pinned.

    Omitted on purpose: ``--checkpoint`` (this workload does not checkpoint;
    ``session_doubling`` covers the codec), ``--resume`` and ``--max-arrivals``
    (not valid with ``--listen``).
    """
    return [
        "--trace", trace, "--listen", "127.0.0.1:0",
        "--algorithm", "randomized", "--backend", "numpy", "--seed", str(seed),
        "--shards", "1", "--workers", "1", "--strategy", "namespace",
        "--batch", str(BATCH), "--batch-wait-ms", "2", "--checkpoint-every", "0",
        "--log", log,
    ]


def proc_cpu_seconds(pid: int) -> float:
    """User plus system CPU time of a live process, from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat", encoding="utf-8") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class Server:
    """One ``repro serve --listen`` process (optionally through the traced launcher)."""

    def __init__(self, args: Sequence[str], workdir: str, *, spans_file: Optional[str] = None):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        if spans_file is None:
            cmd = [sys.executable, "-m", "repro", "serve", *args]
        else:
            launcher = str(ROOT / "perfbench" / "serve_traced.py")
            cmd = [sys.executable, launcher, spans_file, "--", *args]
        self._stderr_path = os.path.join(workdir, "server.stderr")
        self._stderr = open(self._stderr_path, "wb")
        self.spawned = time.monotonic()
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=self._stderr,
            env=env, cwd=str(ROOT),
        )
        self._out = b""

    def _fail(self, what: str) -> RuntimeError:
        self.kill()
        with open(self._stderr_path, "rb") as fh:
            tail = fh.read()[-2000:].decode("utf-8", "replace")
        return RuntimeError(f"server {what}; stderr tail:\n{tail}")

    def _readline(self, deadline: float) -> bytes:
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._out:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise self._fail("timed out before printing its address")
            if not select.select((fd,), (), (), remaining)[0]:
                continue
            chunk = os.read(fd, 65536)
            if not chunk:
                raise self._fail("exited before printing its address")
            self._out += chunk
        line, self._out = self._out.split(b"\n", 1)
        return line

    def connect(self) -> Tuple[socket.socket, float]:
        """Wait for the listening line, connect, read the welcome frame.

        Returns the connected socket and the set-up time: spawn to the first
        welcome frame.
        """
        deadline = self.spawned + SERVER_TIMEOUT_S
        prefix = b"service listening on "
        while True:
            line = self._readline(deadline)
            if line.startswith(prefix):
                break
        host, port = line[len(prefix):].decode().rsplit(":", 1)
        sock = socket.create_connection((host, int(port)), timeout=SERVER_TIMEOUT_S)
        welcome = read_frame(sock, b"")[0]
        ready = time.monotonic()
        if b'"welcome"' not in welcome:
            raise self._fail(f"sent {welcome[:200]!r} instead of a welcome frame")
        return sock, ready - self.spawned

    def cpu_seconds(self) -> float:
        return proc_cpu_seconds(self.proc.pid)

    def stop(self) -> int:
        """SIGTERM (graceful drain) and wait; returns the exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=SERVER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
        self._stderr.close()
        return self.proc.returncode

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._stderr.close()


def read_frame(sock: socket.socket, buffered: bytes) -> Tuple[bytes, bytes]:
    """One newline-terminated frame from a blocking socket; returns (frame, rest)."""
    while b"\n" not in buffered:
        chunk = sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection")
        buffered += chunk
    frame, rest = buffered.split(b"\n", 1)
    return frame, rest


@dataclass
class WindowResult:
    """What the client saw: each frame's send time and every reply line, stamped."""

    sent_at: List[float]
    replies: List[Tuple[float, bytes]] = field(default_factory=list)
    sent: int = 0


def closed_window(sock: socket.socket, frames: Sequence[bytes], window: int = WINDOW) -> WindowResult:
    """Keep ``window`` of ``frames`` in flight until every one is answered.

    A frame's send time is when it is handed to the socket; a reply is stamped
    with the time the chunk holding its newline was received.  Every reply is
    one line, so the count of newlines says how many frames may follow.
    Stops when every frame is answered, the server hangs up, or no reply came
    for :data:`REPLY_TIMEOUT_S`.
    """
    n = len(frames)
    sock.setblocking(False)
    # A collector pause in the client would be charged to the server; the
    # loop creates no reference cycles.
    gc.disable()
    clock = time.monotonic
    sent_at = [0.0] * n
    chunks: List[Tuple[float, bytes]] = []
    pending = b""
    answered = 0
    i = 0
    try:
        while answered < n:
            now = clock()
            while i < n and i < answered + window:
                pending += frames[i]
                sent_at[i] = now
                i += 1
            if pending:
                try:
                    pending = pending[sock.send(pending):]
                except BlockingIOError:
                    pass
            readable, writable, _ = select.select(
                (sock,), (sock,) if pending else (), (), REPLY_TIMEOUT_S
            )
            if not readable and not writable:
                break
            if readable:
                data = sock.recv(1 << 20)
                if not data:
                    break
                chunks.append((clock(), data))
                answered += data.count(b"\n")
    except OSError:
        # The server reset the connection: every unanswered arrival counts
        # as failed.
        pass
    finally:
        gc.enable()
        sock.setblocking(True)
    result = WindowResult(sent_at=sent_at, sent=i)
    partial = b""
    for stamp, data in chunks:
        *complete, partial = (partial + data).split(b"\n")
        result.replies.extend((stamp, line) for line in complete if line.strip())
    return result


def drain(sock: socket.socket, seq: int) -> Dict[str, object]:
    """Send a ``drain`` frame and wait for ``drained`` (the log is then on disk)."""
    from repro.service.wire import decode_frame, encode_frame

    sock.settimeout(SERVER_TIMEOUT_S)
    sock.sendall(encode_frame({"op": "drain", "seq": seq}))
    rest = b""
    while True:
        line, rest = read_frame(sock, rest)
        frame = decode_frame(line)
        if frame.get("op") == "drained":
            return frame
        if frame.get("op") == "error":
            raise RuntimeError(f"drain failed: {json.dumps(frame)}")
