"""The closed-window client against a fake server on a socket pair."""

import json
import socket
import threading

from perfbench import service


def fake_server(sock, batch, seen):
    """Answer every ``batch`` frames at once, recording how many were in flight."""
    buffered, queued = b"", []
    with sock:
        while True:
            data = sock.recv(65536)
            if not data:
                return
            *lines, buffered = (buffered + data).split(b"\n")
            queued += [json.loads(line)["seq"] for line in lines]
            seen.append(len(queued))
            while len(queued) >= batch:
                replies = b"".join(
                    json.dumps({"op": "result", "seq": seq, "entry": {}}).encode() + b"\n"
                    for seq in queued[:batch]
                )
                queued = queued[batch:]
                sock.sendall(replies)


def test_closed_window_keeps_the_window_full_and_times_every_reply():
    client, server = socket.socketpair()
    seen = []
    thread = threading.Thread(target=fake_server, args=(server, 4, seen))
    thread.start()
    frames = [json.dumps({"op": "submit", "seq": i}).encode() + b"\n" for i in range(40)]
    try:
        result = service.closed_window(client, frames, window=8)
    finally:
        client.close()
        thread.join(timeout=10)
    assert result.sent == 40
    assert max(seen) <= 8
    seqs = [json.loads(line)["seq"] for _, line in result.replies]
    assert seqs == list(range(40))
    assert all(a <= b for a, b in zip(result.sent_at, result.sent_at[1:]))
    assert all(stamp >= result.sent_at[seq] for seq, (stamp, _) in enumerate(result.replies))


def test_closed_window_stops_when_the_server_hangs_up():
    client, server = socket.socketpair()
    server.close()
    frames = [b'{"op": "submit", "seq": 0}\n'] * 5
    try:
        result = service.closed_window(client, frames, window=2)
    finally:
        client.close()
    assert result.replies == []
