"""Threaded HTTP/1.1 listener over :class:`~repro.serve.app.ReproApp`.

Stdlib only: a :class:`socketserver.ThreadingTCPServer` (one thread per
connection) and a small HTTP/1.1 handler on
:class:`socketserver.StreamRequestHandler`. Per request the handler
reads the request line and each header line with one bounded
``readline``, splits each header line once, hands ``(method, raw
target, headers)`` to :meth:`ReproApp.handle`, and writes the status
line, headers and body with one ``sendall``. Connections are
keep-alive (HTTP/1.1 by default, HTTP/1.0 on request), with
``TCP_NODELAY`` set and a :data:`IDLE_TIMEOUT` idle close.

Input the handler does not accept is answered with a JSON error and
the connection is closed:

=====================================================  ======
request line longer than :data:`MAX_LINE` bytes          414
malformed request line                                   400
HTTP version other than 1.0 or 1.1                       505
more than :data:`MAX_HEADERS` header lines, or one
longer than :data:`MAX_LINE` bytes                       431
header line without a colon, with whitespace before
the colon, or folded (obs-fold)                          400
malformed or conflicting ``Content-Length``              400
any ``Transfer-Encoding``                                501
``Content-Length`` over :data:`MAX_BODY` bytes           413
=====================================================  ======

A ``Content-Length`` body within the limit is read and discarded before
the app answers, so a body can never be read as the next request.
Every method reaches the app (which answers 405 for all but GET); a
HEAD response carries headers only. A client that resets, closes
mid-request or idles past the timeout ends its connection quietly.

Graceful shutdown: ``daemon_threads`` is off and ``block_on_close``
on, so :meth:`ReproServer.stop` first stops accepting work
(``shutdown``) and then joins every in-flight handler thread
(``server_close``) — a response that started is always written before
the process moves on. Binding port 0 picks an ephemeral port (the test
harness does this); :attr:`ReproServer.address` reports the bound
``host:port``.
"""

from __future__ import annotations

import re
import socketserver
import threading
import time
from typing import BinaryIO

from ..obs.log import get_logger
from .app import ReproApp, Response, error_response

__all__ = [
    "MAX_BODY",  # lint: ignore[flow-dead-api] an HTTP limit a client must know
    "MAX_HEADERS",  # lint: ignore[flow-dead-api] an HTTP limit a client must know
    "MAX_LINE",  # lint: ignore[flow-dead-api] an HTTP limit a client must know
    "ReproServer",
]

_log = get_logger("serve.server")

#: Longest request line or header line, in bytes (as ``http.server``).
MAX_LINE = 65536

#: Most header lines in one request (as ``http.server``).
MAX_HEADERS = 100

#: Largest request body read (and discarded), in bytes.
MAX_BODY = 1 << 20

#: Seconds an idle keep-alive connection is kept. Without it, a client
#: that never closes parks a handler thread in a blocking read forever
#: and :meth:`ReproServer.stop` (which joins every handler thread) can
#: never finish draining.
IDLE_TIMEOUT = 5

_REASONS = {
    200: "OK",
    304: "Not Modified",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Content Too Large",
    414: "URI Too Long",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
    505: "HTTP Version Not Supported",
}

_VERSIONS = frozenset({b"HTTP/1.0", b"HTTP/1.1"})
_VERSION_FORM = re.compile(rb"HTTP/[0-9]\.[0-9]")
#: RFC 9110 ``tchar``: the bytes a method token may hold.
_TCHARS = b"!#$%&'*+-.^_`|~0123456789" + bytes(range(65, 91)) + bytes(range(97, 123))
_WHITESPACE = b" \t"
_BLANK = (b"\r\n", b"\n")
_CONTINUE = b"HTTP/1.1 100 Continue\r\n\r\n"
_DAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_MONTHS = (
    "Jan", "Feb", "Mar", "Apr", "May", "Jun",
    "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
)

#: ``(second, Date header value)``: the header is formatted once per
#: second, not once per response.
_date_cache: tuple[int, str] = (-1, "")


def _http_date() -> str:
    """The current time as an RFC 9110 IMF-fixdate (for ``Date``)."""
    global _date_cache
    now = int(time.time())  # lint: ignore[det-wall-clock] Date is wall time by definition
    second, text = _date_cache
    if second != now:
        t = time.gmtime(now)
        text = (
            f"{_DAYS[t.tm_wday]}, {t.tm_mday:02d} {_MONTHS[t.tm_mon - 1]}"
            f" {t.tm_year} {t.tm_hour:02d}:{t.tm_min:02d}:{t.tm_sec:02d} GMT"
        )
        _date_cache = (now, text)
    return text


class RequestRejected(Exception):
    """A request the transport answers itself, then closes the connection."""

    def __init__(self, status: int, message: str) -> None:
        """Record the error status next to the message."""
        super().__init__(message)
        self.status = status


def _read_request(
    rfile: BinaryIO,
) -> tuple[str, str, bytes, dict[str, str]] | None:
    """Read one request head: ``(method, target, version, headers)``.

    ``headers`` maps lower-cased names to values (the first of repeated
    names wins). ``None`` means the client closed the connection
    before a complete head; :class:`RequestRejected` carries the status
    for input outside the limits in the module docstring.
    """
    line = rfile.readline(MAX_LINE + 1)
    if line in _BLANK:  # RFC 9112 §2.2: ignore one empty line first
        line = rfile.readline(MAX_LINE + 1)
    if len(line) > MAX_LINE:
        raise RequestRejected(414, "request line too long")
    if not line.endswith(b"\n"):
        return None
    words = line.split()
    if len(words) != 3 or words[0].translate(None, _TCHARS):
        raise RequestRejected(400, "malformed request line")
    method, target, version = words
    if version not in _VERSIONS:
        if _VERSION_FORM.fullmatch(version):
            raise RequestRejected(505, "only HTTP/1.0 and HTTP/1.1 are served")
        raise RequestRejected(400, "malformed request line")
    headers: dict[str, str] = {}
    for _ in range(MAX_HEADERS + 1):
        line = rfile.readline(MAX_LINE + 1)
        if len(line) > MAX_LINE:
            raise RequestRejected(431, "header line too long")
        if not line.endswith(b"\n"):
            return None
        if line in _BLANK:
            return method.decode("ascii"), target.decode("latin-1"), version, headers
        name, colon, value = line.partition(b":")
        if not colon or not name or name[0] in _WHITESPACE or name[-1] in _WHITESPACE:
            raise RequestRejected(400, "malformed header line")
        key = name.decode("latin-1").lower()
        text = value.strip(b" \t\r\n").decode("latin-1")
        seen = headers.setdefault(key, text)
        if key == "content-length" and seen != text:
            raise RequestRejected(400, "conflicting Content-Length")
    raise RequestRejected(431, f"more than {MAX_HEADERS} header lines")


def _body_length(headers: dict[str, str]) -> int:
    """The declared body length (0 when none); rejects what is not served."""
    if "transfer-encoding" in headers:
        raise RequestRejected(501, "Transfer-Encoding is not supported")
    raw = headers.get("content-length")
    if raw is None:
        return 0
    if not raw.isascii() or not raw.isdigit():
        raise RequestRejected(400, "malformed Content-Length")
    digits = raw.lstrip("0") or "0"
    if len(digits) > len(str(MAX_BODY)) or int(digits) > MAX_BODY:
        raise RequestRejected(413, f"request body over {MAX_BODY} bytes")
    return int(digits)


def _keep_alive(version: bytes, headers: dict[str, str]) -> bool:
    """Whether the connection stays open after this request."""
    value = headers.get("connection")
    if value is None:
        return version == b"HTTP/1.1"
    tokens = {token.strip() for token in value.lower().split(",")}
    if "close" in tokens:
        return False
    return version == b"HTTP/1.1" or "keep-alive" in tokens


def _encode(
    response: Response, *, keep_alive: bool, http10: bool, head: bool
) -> bytes:
    """Status line, headers and (unless ``head``) body, as one buffer."""
    lines = [
        f"HTTP/1.1 {response.status} {_REASONS.get(response.status, 'Unknown')}\r\n"
        f"Server: repro-serve\r\nDate: {_http_date()}\r\n"
        f"Content-Type: {response.content_type}\r\n"
        f"Content-Length: {len(response.body)}\r\n"
    ]
    for name, value in response.headers:
        lines.append(f"{name}: {value}\r\n")
    if not keep_alive:
        lines.append("Connection: close\r\n")
    elif http10:
        lines.append("Connection: keep-alive\r\n")
    lines.append("\r\n")
    data = "".join(lines).encode("latin-1")
    return data if head else data + response.body


class _Handler(socketserver.StreamRequestHandler):
    """One connection: read requests, answer each through the app."""

    disable_nagle_algorithm = True
    timeout = IDLE_TIMEOUT
    app: ReproApp  # injected by the per-server subclass

    def handle(self) -> None:
        """Serve requests until the client or the request closes."""
        try:
            while self._serve_one():
                pass
        except (ConnectionError, TimeoutError):
            return  # reset, broken pipe or idle timeout: nothing to answer

    def _serve_one(self) -> bool:
        """Answer one request; ``True`` keeps the connection open."""
        rfile = self.rfile
        try:
            request = _read_request(rfile)
            if request is None:
                return False
            method, target, version, headers = request
            length = _body_length(headers)
        except RequestRejected as rejected:
            _log.debug(
                "serve.http_rejected",
                client=self.client_address[0],
                status=rejected.status,
                reason=str(rejected),
            )
            response = error_response(rejected.status, str(rejected))
            self.request.sendall(
                _encode(response, keep_alive=False, http10=False, head=False)
            )
            return False
        if length:
            if (
                version == b"HTTP/1.1"
                and headers.get("expect", "").lower() == "100-continue"
            ):
                self.request.sendall(_CONTINUE)
            if len(rfile.read(length)) < length:
                return False
        keep_alive = _keep_alive(version, headers)
        response = self.app.handle(method, target, headers)
        self.request.sendall(
            _encode(
                response,
                keep_alive=keep_alive,
                http10=version == b"HTTP/1.0",
                head=method == "HEAD",
            )
        )
        _log.debug(
            "serve.http",
            client=self.client_address[0],
            method=method,
            target=target,
            status=response.status,
        )
        return keep_alive


class _ThreadingServer(socketserver.ThreadingTCPServer):
    """Thread per connection; handler threads are joined on close."""

    allow_reuse_address = True
    daemon_threads = False
    block_on_close = True


class ReproServer:
    """The resident ``repro serve`` process: listener + app + lifecycle.

    Usable as a context manager (``with ReproServer(app) as server:``)
    or via explicit :meth:`start` / :meth:`stop`. :meth:`serve_forever`
    runs the accept loop in the calling thread (the CLI foreground
    mode); :meth:`start` runs it in a background thread (tests,
    load-generation).
    """

    def __init__(
        self,
        app: ReproApp,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        """Bind the listening socket (port 0 = ephemeral)."""
        self.app = app
        handler = type("_BoundHandler", (_Handler,), {"app": app})
        self._httpd = _ThreadingServer((host, port), handler)
        self._thread: threading.Thread | None = None

    @property
    def host(self) -> str:
        """The bound interface."""
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        """The bound (possibly ephemeral) port."""
        return self._httpd.server_address[1]

    @property
    def address(self) -> str:
        """``host:port`` of the listening socket."""
        return f"{self.host}:{self.port}"

    def start(self) -> "ReproServer":
        """Run the accept loop in a background thread; returns self."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-serve",
            daemon=True,
        )
        self._thread.start()
        _log.info("serve.listening", address=self.address)
        return self

    def serve_forever(self) -> None:
        """Run the accept loop in the calling thread (CLI foreground).

        Returns after :meth:`stop` (from another thread) or a
        ``KeyboardInterrupt``, draining in-flight requests either way.
        """
        _log.info("serve.listening", address=self.address)
        try:
            self._httpd.serve_forever()
        except KeyboardInterrupt:
            _log.info("serve.interrupt")
        finally:
            self._httpd.server_close()

    def stop(self) -> None:
        """Stop accepting, then drain: joins every in-flight handler."""
        self._httpd.shutdown()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
            self._httpd.server_close()
        _log.info("serve.stopped", address=self.address)

    def __enter__(self) -> "ReproServer":
        """Start on entry."""
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        """Stop (and drain) on exit."""
        self.stop()
