"""The asyncio serving runtime: sockets + HTTP over one core.

QCDSP's node machine was operated as a shared facility behind a
front-end host; this module is that host for the machine room.  One
``asyncio`` event loop accepts connections on a Unix socket and/or a
TCP port, sniffs the first two bytes of each connection, and serves
either wire dialect on the same core:

* the framed protocol (:mod:`repro.service.net.protocol`) — magic
  ``RN``, version byte, CRC-checked length-prefixed JSON;
* a minimal HTTP/1.1 adapter — ``POST /jobs``, ``GET /jobs/<key>``,
  ``GET /jobs/<key>/stream`` (chunked status events), ``GET /stats``,
  ``GET /healthz`` — so ``curl`` against the same port just works.

Both dialects call one table of request handlers
(``ServiceServer._HANDLERS``); a dialect keeps only its parser and its
reply envelope.  A handler's structured error crosses either wire as
its ``as_json`` body, and ``_ERROR_STATUS`` gives its HTTP status; any
other exception is answered as an ``internal`` error (HTTP 500) and
counted in ``internal_errors``.

The event loop never simulates and never waits on the service lock,
which a drain holds over journal fsyncs.  Submissions run
``SimulationService.submit`` on the default executor (journal fsyncs
off the loop), and so do ``stats`` and result-store reads; the
service's own background drainer executes the queue — the server
wakes it after each submit that queued a job.  A stream watches the
one :class:`~repro.service.scheduler.JobFuture` behind its key
(:meth:`~repro.service.scheduler.JobFuture.watch`): the future's
events so far, then each new one, bridged into an ``asyncio.Queue``
with ``call_soon_threadsafe``.  A future emits at most three events,
so that queue needs no bound of its own.

Backpressure and protection, outermost first: a connection beyond
``max_connections`` (or arriving during drain) is shed with a
structured error; per-request auth resolves an ``X-Repro-Token`` /
``Authorization: Bearer`` header (or the framed ``auth`` param)
through an optional token table into a
:class:`~repro.service.tenants.TenantTable` tenant, so quotas meter
*people*, not sockets; frames and HTTP bodies beyond
``max_frame_bytes`` are rejected before buffering
(413 / ``oversize``); a connection idle past ``idle_timeout_s`` is
dropped; a stream that waits past :data:`STREAM_TIMEOUT_S` for its
job's next event ends with a ``timeout`` error.

Graceful drain: ``SIGTERM``/``SIGINT`` (via :func:`run_server`) stops
accepting, lets the service's drainer finish every queued job —
subscribers receive their terminal events — stops the drainer,
flushes and closes the journal, then closes remaining connections.  A
``kill -9`` instead loses nothing durable: the write-ahead journal
replays on the next start, the server adopts the recovered futures,
and wakes the drainer to finish them.
"""

import asyncio
import json
import threading
import time
import urllib.parse
from collections import OrderedDict

from repro.service.jobkey import JobSpec, canonical_json, \
    payload_digest
from repro.service.net.protocol import (
    MAGIC,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    FrameDecoder,
    ProtocolError,
    encode_frame,
    error_payload,
    error_response,
    response,
    stream_event,
)
from repro.service.scheduler import (
    TERMINAL_OPS,
    AdmissionError,
    JobError,
    JobTimeout,
    QuotaError,
)
from repro.service.workloads import UnknownWorkloadError

_REASONS = {
    200: "OK", 400: "Bad Request", 401: "Unauthorized",
    404: "Not Found", 405: "Method Not Allowed",
    408: "Request Timeout", 413: "Payload Too Large",
    429: "Too Many Requests", 431: "Request Header Fields Too Large",
    500: "Internal Server Error", 503: "Service Unavailable",
}

#: HTTP methods we recognise when sniffing a connection's dialect.
_HTTP_HEADS = {b"GE", b"PO", b"PU", b"DE", b"HE", b"OP", b"PA"}

#: Seconds a stream waits for its job's next status event before it
#: ends with a ``timeout`` error.
STREAM_TIMEOUT_S = 600.0
#: Futures the server keeps addressable by key (least recent dropped
#: first).
MAX_FUTURES = 16384

#: HTTP routes other than ``/jobs/<key>[/stream]``: path → (verb,
#: handler name).
_HTTP_ROUTES = {"/healthz": ("GET", "ping"), "/stats": ("GET", "stats"),
                "/jobs": ("POST", "submit")}


class AuthError(RuntimeError):
    """Structured rejection: the auth token did not resolve."""

    def as_json(self) -> dict:
        return {"error": "auth", "message": str(self)}


class UnknownKeyError(KeyError):
    """Structured rejection: nobody knows this job key."""

    def __init__(self, key):
        super().__init__(key)
        self.key = key

    def as_json(self) -> dict:
        return {"error": "unknown_key", "key": self.key}


class WireError(Exception):
    """A rejection that carries its own HTTP status and structured
    body (malformed HTTP, unknown route)."""

    def __init__(self, status, payload):
        super().__init__(f"HTTP {status}")
        self.status = status
        self.payload = payload


#: The HTTP status of each structured error a handler may raise, a
#: subclass before its base.  The framed dialect sends the same
#: ``as_json`` body in an error frame.  The ValueError family answers
#: 400 as a ``protocol``/``request`` error; anything else is
#: ``internal`` (500).
_ERROR_STATUS = (
    (AuthError, 401),
    (QuotaError, 429),
    (AdmissionError, 503),
    (UnknownKeyError, 404),
    (UnknownWorkloadError, 400),
    (ProtocolError, 400),
    (JobTimeout, 408),
)


class NetCounters:
    """Wire-level counters, attached to ``service.net`` while a
    server runs and surfaced through ``service_stats``."""

    _FIELDS = (
        "connections", "active_connections", "frames_in",
        "frames_out", "http_requests", "rejected_auth", "shed",
        "protocol_errors", "idle_timeouts", "streaming_subscribers",
        "stream_events", "submits", "internal_errors",
    )

    def __init__(self):
        for field in self._FIELDS:
            setattr(self, field, 0)

    def snapshot(self) -> dict:
        return {field: getattr(self, field)
                for field in self._FIELDS}


async def _write_http(writer, status, payload):
    body = (canonical_json(payload) + "\n").encode()
    head = (
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Error')}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: close\r\n\r\n"
    )
    writer.write(head.encode() + body)
    await writer.drain()


class _FramedReply:
    """Where one framed request's replies go: frames carrying its
    id."""

    def __init__(self, server, writer, request_id):
        self._send = lambda message: server._send_frame(writer, message)
        self._id = request_id
        self.streaming = False

    async def open(self):
        self.streaming = True

    async def send(self, record):
        """A response that does not end the request (a streaming
        submit's record)."""
        await self._send(response(self._id, record))

    async def event(self, event):
        await self._send(stream_event(self._id, event))

    async def finish(self, record):
        await self._send(response(self._id, record,
                                  end=self.streaming))

    async def fail(self, status, error):
        await self._send(error_response(self._id, error))


class _HttpReply:
    """Where one HTTP request's reply goes: one JSON response, or a
    chunked NDJSON stream once the handler opens one."""

    def __init__(self, writer):
        self._writer = writer
        self.streaming = False

    async def open(self):
        self.streaming = True
        self._writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Transfer-Encoding: chunked\r\n"
            b"Connection: close\r\n\r\n")
        await self._writer.drain()

    async def _chunk(self, payload, last=False):
        data = (canonical_json(payload) + "\n").encode()
        self._writer.write(f"{len(data):x}\r\n".encode() + data
                           + b"\r\n" + (b"0\r\n\r\n" if last else b""))
        await self._writer.drain()

    async def event(self, event):
        await self._chunk({"event": event})

    async def finish(self, record):
        if self.streaming:
            await self._chunk({"end": True, "result": record},
                              last=True)
        else:
            await _write_http(self._writer, 200, record)

    async def fail(self, status, error):
        if self.streaming:
            await self._chunk({"error": error}, last=True)
        else:
            await _write_http(self._writer, status, error)


class ServiceServer:
    """One serving front-end over one :class:`SimulationService`."""

    def __init__(self, service, unix_path=None, host=None, port=0,
                 auth_tokens=None, require_auth=False,
                 max_connections=256,
                 max_frame_bytes=MAX_FRAME_BYTES,
                 idle_timeout_s=30.0):
        if unix_path is None and host is None:
            raise ValueError("need a unix_path and/or a host to bind")
        self.service = service
        self.unix_path = unix_path
        self.host = host
        self.port = port
        #: token → tenant; ``None`` means "the token *is* the tenant"
        #: (no table to check against).
        self.auth_tokens = (dict(auth_tokens)
                            if auth_tokens is not None else None)
        self.require_auth = bool(require_auth)
        self.max_connections = int(max_connections)
        self.max_frame_bytes = int(max_frame_bytes)
        self.idle_timeout_s = float(idle_timeout_s)
        self.counters = NetCounters()
        service.net = self.counters
        self._futures = OrderedDict()   # key -> JobFuture (bounded)
        self._writers = set()
        self._servers = []
        self._loop = None
        self._draining = False

    # -- lifecycle ----------------------------------------------------

    async def start(self):
        """Bind the listeners and adopt journal-recovered jobs."""
        self._loop = asyncio.get_running_loop()
        if self.unix_path is not None:
            self._servers.append(await asyncio.start_unix_server(
                self._handle_connection, path=self.unix_path,
            ))
        if self.host is not None:
            server = await asyncio.start_server(
                self._handle_connection, host=self.host,
                port=self.port,
            )
            self.port = server.sockets[0].getsockname()[1]
            self._servers.append(server)
        # Adopt journal-recovered jobs: they are servable by key and
        # the service's drainer finishes them without waiting for
        # traffic.
        for future in self.service.recovered:
            self._remember(future)
        if self.service.queue_depth():
            self.service._wake_drainer()
        return self

    async def shutdown(self, timeout=30.0):
        """Graceful stop: no new connections, let the service's
        drainer finish queued work (for at most ``timeout`` seconds)
        and stop, flush the journal, close what remains."""
        if self._draining:
            return
        self._draining = True
        for server in self._servers:
            server.close()
        for server in self._servers:
            await server.wait_closed()
        await self._loop.run_in_executor(
            None, self.service._stop_drainer, timeout)
        if self.service.journal is not None:
            self.service.journal.close()
        for writer in list(self._writers):
            try:
                writer.close()
            except Exception:
                pass

    def addresses(self) -> list:
        """Bound endpoints, e.g. ``["unix:/tmp/s.sock",
        "tcp:127.0.0.1:40123"]``."""
        out = []
        if self.unix_path is not None:
            out.append(f"unix:{self.unix_path}")
        if self.host is not None:
            out.append(f"tcp:{self.host}:{self.port}")
        return out

    # -- connection handling ------------------------------------------

    async def _handle_connection(self, reader, writer):
        counters = self.counters
        counters.connections += 1
        counters.active_connections += 1
        self._writers.add(writer)
        try:
            shed = (self._draining or counters.active_connections
                    > self.max_connections)
            try:
                head = await asyncio.wait_for(
                    reader.readexactly(2), self.idle_timeout_s)
            except asyncio.TimeoutError:
                counters.idle_timeouts += 1
                return
            except (asyncio.IncompleteReadError, ConnectionError):
                return
            if shed:
                counters.shed += 1
                await self._reject_connection(writer, head)
                return
            if head == MAGIC:
                await self._serve_frames(reader, writer, head)
            elif head in _HTTP_HEADS:
                await self._serve_http(reader, writer, head)
            else:
                counters.protocol_errors += 1
                await self._send_frame(writer, error_response(
                    None, ProtocolError(
                        "magic", f"unrecognised preamble {head!r}")))
        except (ConnectionError, BrokenPipeError):
            pass
        except Exception:
            # A bug outside any handler must not take the accept loop
            # down; it is counted, and the connection closes.
            counters.internal_errors += 1
        finally:
            counters.active_connections -= 1
            self._writers.discard(writer)
            try:
                writer.close()
            except Exception:
                pass

    async def _reject_connection(self, writer, head):
        error = {"error": "shed",
                 "message": ("draining" if self._draining
                             else "connection limit reached"),
                 "limit": self.max_connections}
        if head == MAGIC:
            await self._send_frame(writer,
                                   error_response(None, error))
        else:
            await _write_http(writer, 503, error)

    async def _answer(self, reply, call, *args):
        """Run one request's handler call and send its record — or
        its error, with the status ``_ERROR_STATUS`` gives it —
        through the dialect's ``reply``."""
        try:
            record = await call(*args, reply)
        except ConnectionError:
            raise
        except Exception as exc:
            await reply.fail(*self._error(exc))
        else:
            await reply.finish(record)

    def _error(self, exc) -> tuple:
        """``(HTTP status, structured body)`` for a handler's
        exception."""
        if isinstance(exc, WireError):
            return exc.status, exc.payload
        for cls, status in _ERROR_STATUS:
            if isinstance(exc, cls):
                return status, exc.as_json()
        if isinstance(exc, (ValueError, TypeError, KeyError)):
            return 400, ProtocolError(
                "request", f"bad request: {exc}").as_json()
        self.counters.internal_errors += 1
        return 500, error_payload(exc)

    # -- framed protocol ----------------------------------------------

    async def _send_frame(self, writer, message):
        writer.write(encode_frame(message))
        self.counters.frames_out += 1
        await writer.drain()

    async def _serve_frames(self, reader, writer, data):
        decoder = FrameDecoder(self.max_frame_bytes)
        while True:
            try:
                messages = decoder.feed(data)
            except ProtocolError as exc:
                self.counters.protocol_errors += 1
                await self._send_frame(writer,
                                       error_response(None, exc))
                return
            for message in messages:
                self.counters.frames_in += 1
                if not isinstance(message, dict):
                    self.counters.protocol_errors += 1
                    await self._send_frame(writer, error_response(
                        None, ProtocolError(
                            "request", "message must be an object")))
                    return
                await self._answer(
                    _FramedReply(self, writer, message.get("id")),
                    self._framed_call, message.get("method"),
                    message.get("params") or {})
            try:
                data = await asyncio.wait_for(
                    reader.read(65536), self.idle_timeout_s)
            except asyncio.TimeoutError:
                self.counters.idle_timeouts += 1
                return
            except ConnectionError:
                return
            if not data:
                return

    async def _framed_call(self, method, params, reply):
        handler = (self._HANDLERS.get(method)
                   if isinstance(method, str) else None)
        if handler is None:
            raise ProtocolError("request",
                                f"unknown method {method!r}")
        if not isinstance(params, dict):
            raise ProtocolError("request", "params must be an object")
        return await handler(self, params, reply)

    # -- HTTP adapter -------------------------------------------------

    async def _read_http(self, reader, head):
        buffer = bytearray(head)
        while b"\r\n\r\n" not in buffer:
            if len(buffer) > 32768:
                raise WireError(431, {
                    "error": "oversize",
                    "message": "request head exceeds 32768 bytes"})
            data = await asyncio.wait_for(reader.read(8192),
                                          self.idle_timeout_s)
            if not data:
                raise WireError(400, {
                    "error": "bad_request",
                    "message": "truncated request head"})
            buffer.extend(data)
        header_block, _, rest = bytes(buffer).partition(b"\r\n\r\n")
        lines = header_block.decode("latin-1").split("\r\n")
        parts = lines[0].split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise WireError(400, {
                "error": "bad_request",
                "message": f"malformed request line {lines[0]!r}"})
        method, target = parts[0].upper(), parts[1]
        headers = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length") or 0)
        except ValueError:
            raise WireError(400, {
                "error": "bad_request",
                "message": "unparseable Content-Length"}) from None
        if length > self.max_frame_bytes:
            raise WireError(413, {
                "error": "oversize", "length": length,
                "limit": self.max_frame_bytes,
                "message": "request body exceeds the frame limit"})
        body = bytearray(rest)
        while len(body) < length:
            data = await asyncio.wait_for(reader.read(65536),
                                          self.idle_timeout_s)
            if not data:
                raise WireError(400, {
                    "error": "bad_request",
                    "message": "truncated request body"})
            body.extend(data)
        return method, target, headers, bytes(body[:length])

    async def _serve_http(self, reader, writer, head):
        self.counters.http_requests += 1
        try:
            request = await self._read_http(reader, head)
        except WireError as exc:
            await _write_http(writer, exc.status, exc.payload)
            return
        except asyncio.TimeoutError:
            self.counters.idle_timeouts += 1
            return
        await self._answer(_HttpReply(writer), self._http_call,
                           *request)

    def _http_token(self, headers):
        token = headers.get("x-repro-token")
        if token:
            return token
        auth = headers.get("authorization", "")
        if auth.lower().startswith("bearer "):
            return auth[7:].strip()
        return None

    async def _http_call(self, method, target, headers, body, reply):
        path, _, query = target.partition("?")
        query = dict(urllib.parse.parse_qsl(query))
        params = {"result": query.get("result") != "0"}
        if path.startswith("/jobs/"):
            key = params["key"] = path[len("/jobs/"):]
            verb, name = "GET", "status"
            if key.endswith("/stream"):
                params["key"], name = key[:-len("/stream")], "subscribe"
        elif path in _HTTP_ROUTES:
            verb, name = _HTTP_ROUTES[path]
        else:
            raise WireError(404, {"error": "not_found", "path": path})
        if method != verb:
            raise WireError(405, {"error": "method_not_allowed",
                                  "method": method})
        if name == "submit":
            return await self._http_submit(query, headers, body, reply)
        return await self._HANDLERS[name](self, params, reply)

    async def _http_submit(self, query, headers, body, reply):
        """``POST /jobs``: one job, or a ``{"jobs": [...]}`` batch,
        each entry through the submit handler.  ``?wait=`` is one
        deadline for the whole batch; a batch entry's admission,
        kind or document error becomes a ``rejected`` record."""
        try:
            document = json.loads(body or b"{}")
        except ValueError as exc:
            raise WireError(400, {
                "error": "bad_request",
                "message": f"body is not JSON: {exc}"}) from None
        if not isinstance(document, dict):
            raise WireError(400, {"error": "bad_request",
                                  "message": "body must be an object"})
        token = self._http_token(headers)
        self._resolve_tenant(token)  # a bad token fails the request
        wait = float(query["wait"]) if "wait" in query else None
        batch = "jobs" in document
        jobs = document["jobs"] if batch else [document.get("job",
                                                            document)]
        default_priority = document.get("priority", 0)
        deadline = (time.monotonic() + wait
                    if wait is not None else None)
        records = []
        for entry in jobs:
            params = {"job": entry, "auth": token,
                      "result": wait is not None,
                      "priority": (entry if isinstance(entry, dict)
                                   else {}).get("priority",
                                                default_priority)}
            if deadline is not None:
                params["wait"] = max(0.001,
                                     deadline - time.monotonic())
            try:
                records.append(await self._submit_job(params, reply))
            except (AdmissionError, UnknownWorkloadError,
                    ProtocolError) as exc:
                if not batch:
                    raise
                records.append({"status": "rejected",
                                "error": exc.as_json()})
        return {"jobs": records} if batch else records[0]

    # -- the request handlers (one table, both dialects) ----------------

    async def _ping(self, params, reply):
        # One body for ``ping`` and ``GET /healthz``.
        return {"ok": True, "pong": True, "version": PROTOCOL_VERSION,
                "draining": self._draining,
                "queue_depth": self.service.queue_depth()}

    async def _stats(self, params, reply):
        # ``stats()`` takes the service lock: off the event loop.
        from repro.analysis.tracing import service_stats
        return await self._loop.run_in_executor(None, service_stats,
                                                self.service)

    async def _submit_job(self, params, reply):
        tenant = self._resolve_tenant(params.get("auth"))
        future = await self._submit(params.get("job"),
                                    params.get("priority", 0), tenant)
        if params.get("stream"):
            await reply.send(self._record(future, include_result=False))
            return await self._stream(future, future.key, None, reply)
        include_result = params.get("result", True)
        if params.get("wait") is None:
            return self._record(future, include_result=include_result)
        return await self._wait_record(future, float(params["wait"]),
                                       include_result)

    async def _status(self, params, reply):
        future, stored = await self._find(params.get("key"))
        return self._record(future, stored,
                            include_result=params.get("result", True))

    async def _result(self, params, reply):
        future, stored = await self._find(params.get("key"))
        if future is None:
            return stored
        return await self._wait_record(
            future, float(params.get("timeout", 60.0)), True)

    async def _subscribe(self, params, reply):
        key = params.get("key")
        future, stored = await self._find(key)
        return await self._stream(future, key, stored, reply)

    async def _cancel(self, params, reply):
        # A job the store alone knows is finished: there is nothing to
        # cancel, so the store is not read.
        key = params.get("key")
        future = self._known_future(key)
        if future is None:
            raise UnknownKeyError(key)
        cancelled = await self._loop.run_in_executor(
            None, future.cancel)
        return {"key": key, "cancelled": cancelled,
                "status": future.status}

    _HANDLERS = {"ping": _ping, "stats": _stats, "submit": _submit_job,
                 "status": _status, "result": _result,
                 "subscribe": _subscribe, "cancel": _cancel}

    # -- shared serving core ------------------------------------------

    def _resolve_tenant(self, token):
        """Auth token → tenant.  With a token table, unknown or
        missing tokens are rejected; without one, the token itself is
        the tenant id (``None`` stays anonymous unless
        ``require_auth``)."""
        if token is not None and not isinstance(token, str):
            raise ProtocolError("request", "auth token must be a "
                                "string")
        if self.auth_tokens is not None:
            if token is None:
                if self.require_auth:
                    self.counters.rejected_auth += 1
                    raise AuthError("missing auth token")
                return None
            tenant = self.auth_tokens.get(token)
            if tenant is None:
                self.counters.rejected_auth += 1
                raise AuthError("unknown auth token")
            return tenant
        if token is None and self.require_auth:
            self.counters.rejected_auth += 1
            raise AuthError("missing auth token")
        return token

    def _job_from_document(self, document) -> JobSpec:
        if not isinstance(document, dict) or "kind" not in document:
            raise ProtocolError(
                "request", "a job document needs at least a 'kind'")
        return JobSpec(
            kind=document["kind"], spec=document.get("spec"),
            tier=document.get("tier"),
            config=document.get("config"),
            seed=document.get("seed"), opt=document.get("opt"),
        )

    def _remember(self, future):
        self._futures[future.key] = future
        self._futures.move_to_end(future.key)
        while len(self._futures) > MAX_FUTURES:
            self._futures.popitem(last=False)

    def _submit_sync(self, document, priority, tenant):
        job = self._job_from_document(document)
        future = self.service.submit(job, priority=int(priority or 0),
                                     tenant=tenant)
        self._remember(future)
        self.counters.submits += 1
        if not future.done():
            self.service._wake_drainer()
        return future

    async def _submit(self, document, priority, tenant):
        # The submit path can fsync the journal — keep it off the
        # event loop.
        return await self._loop.run_in_executor(
            None, self._submit_sync, document, priority, tenant)

    def _known_future(self, key):
        """The future the scheduler or the server holds for ``key``,
        or ``None``; a malformed key is an :class:`UnknownKeyError`.
        The scheduler's live future comes first: a key re-opened
        beside the server streams its newest lifecycle."""
        if not (isinstance(key, str) and key):
            raise UnknownKeyError(key)
        return self.service._inflight.get(key) or self._futures.get(key)

    def _stored_record(self, key):
        """The wire record, with its result, of the result the store
        holds under ``key``, or ``None``: a disk read, a checksum and
        a digest, so it runs in the executor."""
        value = self.service.cache.get(key)
        if value is None:
            return None
        return {"key": key, "status": "cached",
                "digest": payload_digest(value), "result": value}

    async def _find(self, key):
        """The job behind ``key``: ``(future, None)`` while the server
        or the scheduler holds its future, else ``(None, record)``
        from one read of the result store, off the event loop.
        Raises :class:`UnknownKeyError` when neither knows it."""
        future = self._known_future(key)
        if future is not None:
            return future, None
        if self.service.cache is not None:
            stored = await self._loop.run_in_executor(
                None, self._stored_record, key)
            if stored is not None:
                return None, stored
        raise UnknownKeyError(key)

    @staticmethod
    def _record(future, stored=None, include_result=True) -> dict:
        """A job's wire record: its future's, or — with no future —
        the ``stored`` record from :meth:`_stored_record`."""
        if future is None:
            record = dict(stored)
            if not include_result:
                del record["result"]
            return record
        record = future.as_json()
        if include_result and future.status in ("done", "cached"):
            record["result"] = future.value
        return record

    async def _wait_record(self, future, timeout, include_result):
        def wait():
            try:
                future.result(timeout=max(0.0, timeout))
            except JobError:
                pass  # the record carries the status either way
            return self._record(future, include_result=include_result)
        return await self._loop.run_in_executor(None, wait)

    async def _stream(self, future, key, stored, reply):
        """Send the events of ``future`` until its terminal one, then
        return the completion record.  A key only the store knows
        (``stored``) gets one synthesized ``CACHED`` event."""
        queue = asyncio.Queue()
        await reply.open()
        if future is None:
            queue.put_nowait({"op": "CACHED", "state": "DONE",
                              "key": key, "digest": stored["digest"]})
            stop = None
        else:
            loop = self._loop
            stop = future.watch(lambda event: loop.call_soon_threadsafe(
                queue.put_nowait, event))
        self.counters.streaming_subscribers += 1
        try:
            while True:
                try:
                    event = await asyncio.wait_for(queue.get(),
                                                   STREAM_TIMEOUT_S)
                except asyncio.TimeoutError:
                    raise JobTimeout(key, STREAM_TIMEOUT_S,
                                     "streaming") from None
                self.counters.stream_events += 1
                await reply.event(event)
                if event["op"] in TERMINAL_OPS:
                    return stored or self._record(future)
        finally:
            if stop is not None:
                stop()
            self.counters.streaming_subscribers -= 1


class ServerThread:
    """A :class:`ServiceServer` on its own event-loop thread.

    The synchronous harnesses — tests, benches, the chaos fuzzer —
    need a live server next to blocking client code.  ``start()``
    returns once the listeners are bound; ``stop()`` runs the graceful
    shutdown and joins the thread.  Usable as a context manager.
    """

    def __init__(self, service, **kwargs):
        self.service = service
        self._kwargs = kwargs
        self.server = None
        self._thread = None
        self._loop = None
        self._stop_event = None
        self._started = threading.Event()
        self._error = None

    def start(self) -> "ServerThread":
        self._thread = threading.Thread(target=self._run,
                                        daemon=True,
                                        name="repro-net-server")
        self._thread.start()
        if not self._started.wait(timeout=30):
            raise RuntimeError("server thread failed to start")
        if self._error is not None:
            raise self._error
        return self

    def _run(self):
        asyncio.run(self._main())

    async def _main(self):
        try:
            self._loop = asyncio.get_running_loop()
            self._stop_event = asyncio.Event()
            self.server = ServiceServer(self.service, **self._kwargs)
            await self.server.start()
        except Exception as exc:
            self._error = exc
            self._started.set()
            return
        self._started.set()
        await self._stop_event.wait()
        await self.server.shutdown()

    def stop(self, timeout=30.0):
        if (self._loop is not None and self._loop.is_running()
                and self._stop_event is not None):
            self._loop.call_soon_threadsafe(self._stop_event.set)
        if self._thread is not None:
            self._thread.join(timeout=timeout)

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc):
        self.stop()
        return False


async def _serve_until_signal(service, **kwargs):
    import signal

    server = ServiceServer(service, **kwargs)
    await server.start()
    for address in server.addresses():
        print(f"serving on {address}", flush=True)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, stop.set)
        except (NotImplementedError, RuntimeError):
            pass
    await stop.wait()
    print("draining...", flush=True)
    await server.shutdown()
    print("drained; bye", flush=True)


def run_server(service, **kwargs):
    """Serve until SIGTERM/SIGINT, then drain gracefully (the CLI
    ``serve`` entry point)."""
    asyncio.run(_serve_until_signal(service, **kwargs))
