"""Client library for the serving front-end.

:class:`ServiceClient` is a plain blocking socket speaking the framed
protocol — what the CLI's ``--remote`` flag, the benches, and the
chaos fuzzer use.  It is single-request-at-a-time: responses are
matched to requests by arrival order, and a stream is consumed to its
``end`` frame before the next call.

Addresses are strings: ``unix:/path/to.sock`` (or any bare path with
a ``/``) for Unix sockets, ``host:port`` or ``tcp:host:port`` for
TCP.  Structured server-side rejections (quota, admission, timeout,
protocol, auth) surface as :class:`RemoteJobError` with the error
document on ``.error``.
"""

import socket

from repro.service.jobkey import JobSpec
from repro.service.net.protocol import (
    MAX_FRAME_BYTES,
    FrameDecoder,
    ProtocolError,
    RemoteJobError,
    encode_frame,
    request,
)


def parse_address(address):
    """``unix:/path`` | ``/path`` → ("unix", path);
    ``tcp:host:port`` | ``host:port`` → ("tcp", host, port)."""
    if isinstance(address, (tuple, list)):
        return tuple(address)
    if address.startswith("unix:"):
        return ("unix", address[len("unix:"):])
    if address.startswith("tcp:"):
        address = address[len("tcp:"):]
    if "/" in address or address.startswith("."):
        return ("unix", address)
    host, sep, port = address.rpartition(":")
    if not sep:
        raise ValueError(
            f"address {address!r} is neither unix:<path> nor "
            f"<host>:<port>")
    return ("tcp", host or "127.0.0.1", int(port))


def job_document(job) -> dict:
    """A :class:`JobSpec` (or already-shaped dict) as a wire job
    document — identity fields only, Nones elided."""
    if isinstance(job, JobSpec):
        document = {"kind": job.kind}
        for field in ("spec", "tier", "config", "seed", "opt"):
            value = getattr(job, field)
            if value is not None:
                document[field] = value
        return document
    if isinstance(job, dict):
        return job
    raise TypeError(f"job must be a JobSpec or dict, "
                    f"not {type(job).__name__}")


class ServiceClient:
    """Blocking framed-protocol client."""

    def __init__(self, address, auth=None, timeout=30.0,
                 max_frame_bytes=MAX_FRAME_BYTES):
        self.address = parse_address(address)
        self.auth = auth
        self.timeout = float(timeout)
        self._decoder = FrameDecoder(max_frame_bytes)
        self._inbox = []
        self._sock = None
        self._request_id = 0

    # -- connection ---------------------------------------------------

    def connect(self) -> "ServiceClient":
        if self._sock is not None:
            return self
        if self.address[0] == "unix":
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(self.timeout)
            sock.connect(self.address[1])
        else:
            sock = socket.create_connection(
                (self.address[1], self.address[2]),
                timeout=self.timeout)
        self._sock = sock
        return self

    def close(self):
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None

    def __enter__(self):
        return self.connect()

    def __exit__(self, *exc):
        self.close()
        return False

    # -- plumbing -----------------------------------------------------

    def _next_request(self, method, params) -> bytes:
        self._request_id += 1
        clean = {k: v for k, v in params.items() if v is not None}
        if self.auth is not None and method == "submit":
            clean.setdefault("auth", self.auth)
        return encode_frame(request(self._request_id, method, **clean))

    @staticmethod
    def _check(message) -> dict:
        if not isinstance(message, dict):
            raise ProtocolError("request",
                               "server sent a non-object message")
        if message.get("ok") is False:
            raise RemoteJobError(message.get("error"))
        return message

    def _send(self, data: bytes):
        self.connect()
        self._sock.sendall(data)

    def _recv_message(self) -> dict:
        while not self._inbox:
            data = self._sock.recv(65536)
            if not data:
                raise ConnectionError(
                    "server closed the connection")
            self._inbox.extend(self._decoder.feed(data))
        return self._inbox.pop(0)

    def _call(self, method, **params):
        self._send(self._next_request(method, params))
        return self._check(self._recv_message())

    # -- API ----------------------------------------------------------

    def ping(self) -> dict:
        return self._call("ping")["result"]

    def submit(self, job, priority=0, wait=None,
               with_result=True) -> dict:
        """Submit one job; returns its record.  ``wait=<seconds>``
        blocks server-side until terminal (or the deadline) and the
        record then carries the result payload."""
        return self._call(
            "submit", job=job_document(job), priority=priority,
            wait=wait, result=with_result)["result"]

    def status(self, key, with_result=False) -> dict:
        return self._call("status", key=key,
                          result=with_result)["result"]

    def result(self, key, timeout=60.0) -> dict:
        """Wait server-side for ``key`` and return its full record
        (``record["result"]`` is the payload once done)."""
        return self._call("result", key=key,
                          timeout=timeout)["result"]

    def cancel(self, key) -> dict:
        return self._call("cancel", key=key)["result"]

    def stats(self) -> dict:
        return self._call("stats")["result"]

    def stream(self, key=None, job=None, priority=0):
        """Generator over one job's status events.

        Yields ``("submitted", record)`` (only when submitting via
        ``job=``), then ``("event", event)`` per lifecycle transition,
        and finally ``("end", record)`` with the result payload.
        """
        if (key is None) == (job is None):
            raise ValueError("stream() takes exactly one of key= "
                             "or job=")
        if job is not None:
            frame = self._next_request("submit", {
                "job": job_document(job), "priority": priority,
                "stream": True})
        else:
            frame = self._next_request("subscribe", {"key": key})
        self._send(frame)
        first = job is not None
        while True:
            message = self._check(self._recv_message())
            if "event" in message:
                yield ("event", message["event"])
            elif message.get("end"):
                yield ("end", message["result"])
                return
            elif first:
                first = False
                yield ("submitted", message["result"])
            else:
                raise ProtocolError(
                    "request", "unexpected message mid-stream")

    def watch(self, key) -> tuple:
        """Convenience: ``(events, final_record)`` for one key."""
        events = []
        record = None
        for tag, payload in self.stream(key=key):
            if tag == "event":
                events.append(payload)
            elif tag == "end":
                record = payload
        return events, record
