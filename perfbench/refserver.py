"""Reference HTTP server: the yardstick ``serve_live`` reads are scaled by.

    python3 perfbench/refserver.py

Built on the same standard-library HTTP stack as ``repro serve``
(``ThreadingHTTPServer``, HTTP/1.1 keep-alive, buffered writes,
``TCP_NODELAY``) but running none of the program's code: every GET
answers a fixed small JSON body. It prints its port and serves until it
is killed.

A read of ``repro serve`` on a shared VM costs mostly what this server
costs too: two Python processes handing a request back and forth through
the kernel, each woken from idle. How long that takes moves with the
host's load far more than pure computation does (reads even got faster
when another process kept the CPUs busy), so the client times a burst of
reads of this server beside its real reads and scales them by it.
"""

from __future__ import annotations

from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

BODY = b'{"reference": true}'


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    wbufsize = 64 * 1024
    disable_nagle_algorithm = True

    def do_GET(self) -> None:
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(BODY)))
        self.end_headers()
        self.wfile.write(BODY)

    def log_message(self, format: str, *args: object) -> None:
        pass


def main() -> None:
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    print(server.server_address[1], flush=True)
    server.serve_forever()


if __name__ == "__main__":
    main()
