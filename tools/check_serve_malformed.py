"""Gate: a live ``repro serve`` answers malformed HTTP and keeps serving.

Usage::

    python tools/check_serve_malformed.py [--domains 60] [--seed 3]

Starts ``python -m repro.cli serve --domains N --seed S --port 0
--no-ledger`` as a child process and sends it, each on its own raw
socket: an oversized request line, a malformed header line, a POST with
a body followed by a pipelined GET, a HEAD, an ``HTTP/2.0`` request and
a ``Transfer-Encoding: chunked`` request. Every answer must carry its
listed status (a HEAD answer no body), ``/healthz`` must still answer
200 afterwards, and after an interrupt the server must exit 0 with no
``Traceback`` on its stderr. Exit status 0 when all of that holds, 1
otherwise.
"""

from __future__ import annotations

import argparse
import os
import re
import signal
import socket
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

CLOSE_GET = b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"

#: name -> (payload, expected statuses in order, HEAD answers by index)
CASES = {
    "oversized request line": (
        b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n", [414], ()
    ),
    "bad header line": (
        b"GET /healthz HTTP/1.1\r\nHost t\r\n\r\n", [400], ()
    ),
    "POST body then pipelined GET": (
        b"POST /report HTTP/1.1\r\nHost: t\r\nContent-Length: 11\r\n\r\n"
        b"hello=world" + CLOSE_GET,
        [405, 200],
        (),
    ),
    "HEAD": (b"HEAD /report HTTP/1.1\r\nHost: t\r\n\r\n" + CLOSE_GET, [405, 200], (0,)),
    "HTTP/2.0": (b"GET /healthz HTTP/2.0\r\n\r\n", [505], ()),
    "Transfer-Encoding": (
        b"POST /report HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
        [501],
        (),
    ),
}


def exchange(port: int, payload: bytes) -> bytes:
    """Everything the server writes on one connection until it closes."""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(payload)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


def statuses(data: bytes, head_only: tuple[int, ...]) -> list[int]:
    """The status of each response in ``data``, split by Content-Length;
    -1 for bytes that do not parse as a response."""
    found = []
    while data:
        head, _, data = data.partition(b"\r\n\r\n")
        status = re.match(rb"HTTP/1\.[01] ([0-9]{3}) ", head)
        length = re.search(rb"(?im)^content-length:[ \t]*([0-9]+)", head)
        if status is None or length is None:
            found.append(-1)
            break
        found.append(int(status.group(1)))
        data = data[0 if len(found) - 1 in head_only else int(length.group(1)):]
    return found


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--domains", type=int, default=60)
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args(argv)
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONUNBUFFERED="1")
    server = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--domains", str(args.domains), "--seed", str(args.seed),
            "--port", "0", "--no-ledger",
        ],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    failures = []
    try:
        line = server.stdout.readline()
        match = re.search(rb"http://[0-9.]+:([0-9]+)", line)
        if match is None:
            print(f"FAIL: server did not start: {line!r}")
            return 1
        port = int(match.group(1))
        for name, (payload, expected, head_only) in CASES.items():
            got = statuses(exchange(port, payload), head_only)
            verdict = "ok" if got == expected else "FAIL"
            print(f"{verdict}: {name}: {got} (expected {expected})")
            if got != expected:
                failures.append(name)
        health = statuses(exchange(port, CLOSE_GET), ())
        print(f"{'ok' if health == [200] else 'FAIL'}: /healthz afterwards: {health}")
        if health != [200]:
            failures.append("/healthz")
    finally:
        server.send_signal(signal.SIGINT)
        try:
            _, stderr = server.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            server.kill()
            _, stderr = server.communicate()
    if server.returncode != 0:
        print(f"FAIL: server exited {server.returncode}")
        failures.append("exit")
    if b"Traceback" in stderr:
        print("FAIL: server stderr holds a traceback:\n" + stderr.decode(errors="replace"))
        failures.append("traceback")
    print("PASS" if not failures else f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
