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

The event loop never simulates.  Submissions run
``SimulationService.submit`` on the default executor (journal fsyncs
off the loop), execution happens on a dedicated *drain thread* that
the loop wakes after each admission, and job status flows back
through the :class:`~repro.service.net.bus.StatusBus` fed by the
scheduler's lifecycle hooks — each streaming subscriber owns a
bounded ``asyncio.Queue`` bridged with ``call_soon_threadsafe``.

Backpressure and protection, outermost first: a connection beyond
``max_connections`` (or arriving during drain) is shed with a
structured error; per-request auth resolves an ``X-Repro-Token`` /
``Authorization: Bearer`` header (or the framed ``auth`` param)
through an optional token table into a
:class:`~repro.service.tenants.TenantTable` tenant, so quotas meter
*people*, not sockets; frames and HTTP bodies beyond
``max_frame_bytes`` are rejected before buffering
(413 / ``oversize``); a connection idle past ``idle_timeout_s`` is
dropped; a streaming subscriber that cannot keep up has its queue
reset to a single overflow marker and the stream is closed with a
``slow_consumer`` error instead of buffering without bound.  The
scheduler's own rejections (:class:`QuotaError` → 429,
:class:`AdmissionError` → 503, :class:`JobTimeout`) cross the wire as
their structured ``as_json`` forms.

Graceful drain: ``SIGTERM``/``SIGINT`` (via :func:`run_server`) stops
accepting, lets the drain thread finish every queued job —
subscribers receive their terminal events — flushes and closes the
journal, then closes remaining connections.  A ``kill -9`` instead
loses nothing durable: the write-ahead journal replays on the next
start, the server adopts the recovered futures, and wakes the drain
thread to finish them.
"""

import asyncio
import json
import threading
import time
import urllib.parse
from collections import OrderedDict

from repro.service.jobkey import JobSpec, canonical_json, \
    payload_digest
from repro.service.net.bus import StatusBus, is_terminal
from repro.service.net.protocol import (
    MAGIC,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    FrameDecoder,
    ProtocolError,
    encode_frame,
    error_response,
    response,
    stream_event,
)
from repro.service.scheduler import (
    EVENT_STATES,
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

#: Map a terminal future status back to the event op announcing it.
_TERMINAL_OPS = {"done": "DONE", "cached": "CACHED",
                 "failed": "FAIL", "cancelled": "CANCEL",
                 "shed": "CANCEL", "rejected": "CANCEL"}


class AuthError(RuntimeError):
    """Structured rejection: the auth token did not resolve."""

    def __init__(self, message):
        super().__init__(message)

    def as_json(self) -> dict:
        return {"error": "auth", "message": str(self)}


class UnknownKeyError(KeyError):
    """Structured rejection: nobody knows this job key."""

    def __init__(self, key):
        super().__init__(key)
        self.key = key

    def as_json(self) -> dict:
        return {"error": "unknown_key", "key": self.key}


class HttpError(Exception):
    """An HTTP-level rejection with a status and structured body."""

    def __init__(self, status, payload):
        super().__init__(f"HTTP {status}")
        self.status = status
        self.payload = payload


class NetCounters:
    """Wire-level counters, attached to ``service.net`` while a
    server runs and surfaced through ``service_stats``."""

    _FIELDS = (
        "connections", "active_connections", "frames_in",
        "frames_out", "http_requests", "rejected_auth", "shed",
        "protocol_errors", "idle_timeouts", "streaming_subscribers",
        "stream_events", "submits", "drain_errors",
    )

    def __init__(self):
        for field in self._FIELDS:
            setattr(self, field, 0)

    def snapshot(self) -> dict:
        return {field: getattr(self, field)
                for field in self._FIELDS}


class ServiceServer:
    """One serving front-end over one :class:`SimulationService`."""

    def __init__(self, service, unix_path=None, host=None, port=0,
                 auth_tokens=None, require_auth=False,
                 max_connections=256,
                 max_frame_bytes=MAX_FRAME_BYTES,
                 idle_timeout_s=30.0, stream_timeout_s=600.0,
                 stream_queue=256, max_futures=16384):
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
        self.stream_timeout_s = float(stream_timeout_s)
        self.stream_queue = int(stream_queue)
        self.max_futures = int(max_futures)
        self.counters = NetCounters()
        service.net = self.counters
        #: Attached before the listener sockets exist, so no event of
        #: a served job can precede the bus's view of it.
        self.bus = StatusBus().attach(service)
        self._futures = OrderedDict()   # key -> JobFuture (bounded)
        self._writers = set()
        self._servers = []
        self._loop = None
        self._draining = False
        self._shutdown_started = False
        self._drain_wake = threading.Event()
        self._drain_stop = False
        self._drain_busy = False
        self._drain_thread = None

    # -- lifecycle ----------------------------------------------------

    async def start(self):
        """Bind the listeners and start the drain thread."""
        self._loop = asyncio.get_running_loop()
        self._drain_thread = threading.Thread(
            target=self._drain_loop, daemon=True,
            name="repro-net-drain",
        )
        self._drain_thread.start()
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
        # the drain thread finishes them without waiting for traffic.
        for future in self.service.recovered:
            self._remember(future)
        if self.service.queue_depth():
            self._drain_wake.set()
        return self

    async def shutdown(self, drain=True, timeout=30.0):
        """Graceful stop: no new connections, finish in-flight work,
        flush the journal, close what remains."""
        if self._shutdown_started:
            return
        self._shutdown_started = True
        self._draining = True
        for server in self._servers:
            server.close()
        for server in self._servers:
            await server.wait_closed()
        if drain:
            deadline = time.monotonic() + float(timeout)
            while ((self.service.queue_depth() or self._drain_busy)
                   and time.monotonic() < deadline):
                self._drain_wake.set()
                await asyncio.sleep(0.02)
        self._drain_stop = True
        self._drain_wake.set()
        if self._drain_thread is not None:
            await self._loop.run_in_executor(
                None, self._drain_thread.join, 5.0)
        if self.service.journal is not None:
            self.service.journal.close()
        for writer in list(self._writers):
            try:
                writer.close()
            except Exception:
                pass
        self.service.remove_status_listener(self.bus.publish)

    def addresses(self) -> list:
        """Bound endpoints, e.g. ``["unix:/tmp/s.sock",
        "tcp:127.0.0.1:40123"]``."""
        out = []
        if self.unix_path is not None:
            out.append(f"unix:{self.unix_path}")
        if self.host is not None:
            out.append(f"tcp:{self.host}:{self.port}")
        return out

    # -- the drain thread ---------------------------------------------

    def _drain_loop(self):
        """Execute queued jobs off the event loop, on demand."""
        while True:
            self._drain_wake.wait()
            self._drain_wake.clear()
            try:
                while self.service.queue_depth():
                    self.service.drain()
            except Exception:
                self.counters.drain_errors += 1
                time.sleep(0.05)
            finally:
                self._drain_busy = False
            if self._drain_stop:
                return

    def _wake_drain(self):
        self._drain_busy = True
        self._drain_wake.set()

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
            # A handler bug must not take the accept loop down.
            counters.drain_errors += 0  # placeholder: keep counters
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
            await self._write_http(writer, 503, error)

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
                if not await self._dispatch_frame(message, writer):
                    return
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

    async def _dispatch_frame(self, message, writer) -> bool:
        """Handle one framed request; False closes the connection."""
        if not isinstance(message, dict):
            self.counters.protocol_errors += 1
            await self._send_frame(writer, error_response(
                None, ProtocolError("request",
                                    "message must be an object")))
            return False
        request_id = message.get("id")
        method = message.get("method")
        params = message.get("params") or {}
        try:
            if method == "ping":
                await self._send_frame(writer, response(request_id, {
                    "pong": True, "version": PROTOCOL_VERSION,
                    "draining": self._draining,
                }))
            elif method == "submit":
                await self._frame_submit(request_id, params, writer)
            elif method == "status":
                record = self._lookup(
                    params.get("key"),
                    include_result=params.get("result", True))
                await self._send_frame(writer,
                                       response(request_id, record))
            elif method == "result":
                await self._frame_result(request_id, params, writer)
            elif method == "subscribe":
                await self._stream_frames(request_id,
                                          params.get("key"), writer)
            elif method == "cancel":
                await self._frame_cancel(request_id, params, writer)
            elif method == "stats":
                from repro.analysis import service_stats
                await self._send_frame(writer, response(
                    request_id, service_stats(self.service)))
            else:
                await self._send_frame(writer, error_response(
                    request_id, ProtocolError(
                        "request", f"unknown method {method!r}")))
        except UnknownWorkloadError as exc:
            await self._send_frame(writer, error_response(
                request_id, {"error": exc.code, "message": str(exc)}))
        except (AuthError, AdmissionError, JobTimeout,
                UnknownKeyError, ProtocolError) as exc:
            await self._send_frame(writer,
                                   error_response(request_id, exc))
        except (ValueError, TypeError, KeyError) as exc:
            await self._send_frame(writer, error_response(
                request_id, ProtocolError(
                    "request", f"bad request: {exc}")))
        return True

    async def _frame_submit(self, request_id, params, writer):
        job = params.get("job")
        tenant = self._resolve_tenant(params.get("auth"))
        future = await self._submit(job, params.get("priority", 0),
                                    tenant)
        if params.get("stream"):
            await self._send_frame(writer, response(
                request_id, self._record(future, False)))
            await self._stream_frames(request_id, future.key, writer)
            return
        wait = params.get("wait")
        if wait is not None:
            record = await self._wait_record(
                future, float(wait),
                include_result=params.get("result", True))
        else:
            record = self._record(
                future, params.get("result", True))
        await self._send_frame(writer, response(request_id, record))

    async def _frame_result(self, request_id, params, writer):
        key = params.get("key")
        future = self._find_future(key)
        if future is None:
            record = self._lookup(key, include_result=True)
            await self._send_frame(writer,
                                   response(request_id, record))
            return
        timeout = float(params.get("timeout", 60.0))
        record = await self._wait_record(future, timeout,
                                         include_result=True)
        await self._send_frame(writer, response(request_id, record))

    async def _frame_cancel(self, request_id, params, writer):
        key = params.get("key")
        future = self._find_future(key)
        if future is None:
            raise UnknownKeyError(key)
        cancelled = await self._loop.run_in_executor(
            None, future.cancel)
        await self._send_frame(writer, response(request_id, {
            "key": key, "cancelled": cancelled,
            "status": future.status,
        }))

    async def _stream_frames(self, request_id, key, writer):
        async def send_event(event):
            await self._send_frame(writer,
                                   stream_event(request_id, event))

        async def send_end(record):
            await self._send_frame(writer,
                                   response(request_id, record,
                                            end=True))

        async def send_error(error):
            await self._send_frame(writer,
                                   error_response(request_id, error))

        await self._stream_to(key, send_event, send_end, send_error)

    # -- HTTP adapter -------------------------------------------------

    async def _write_http(self, writer, status, payload):
        body = (canonical_json(payload) + "\n").encode()
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Error')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n"
        )
        writer.write(head.encode() + body)
        await writer.drain()

    async def _read_http(self, reader, head):
        buffer = bytearray(head)
        while b"\r\n\r\n" not in buffer:
            if len(buffer) > 32768:
                raise HttpError(431, {
                    "error": "oversize",
                    "message": "request head exceeds 32768 bytes"})
            data = await asyncio.wait_for(reader.read(8192),
                                          self.idle_timeout_s)
            if not data:
                raise HttpError(400, {
                    "error": "bad_request",
                    "message": "truncated request head"})
            buffer.extend(data)
        header_block, _, rest = bytes(buffer).partition(b"\r\n\r\n")
        lines = header_block.decode("latin-1").split("\r\n")
        parts = lines[0].split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise HttpError(400, {
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
            raise HttpError(400, {
                "error": "bad_request",
                "message": "unparseable Content-Length"}) from None
        if length > self.max_frame_bytes:
            raise HttpError(413, {
                "error": "oversize", "length": length,
                "limit": self.max_frame_bytes,
                "message": "request body exceeds the frame limit"})
        body = bytearray(rest)
        while len(body) < length:
            data = await asyncio.wait_for(reader.read(65536),
                                          self.idle_timeout_s)
            if not data:
                raise HttpError(400, {
                    "error": "bad_request",
                    "message": "truncated request body"})
            body.extend(data)
        return method, target, headers, bytes(body[:length])

    async def _serve_http(self, reader, writer, head):
        self.counters.http_requests += 1
        try:
            method, target, headers, body = await self._read_http(
                reader, head)
        except HttpError as exc:
            await self._write_http(writer, exc.status, exc.payload)
            return
        except asyncio.TimeoutError:
            self.counters.idle_timeouts += 1
            return
        try:
            await self._route_http(method, target, headers, body,
                                   writer)
        except HttpError as exc:
            await self._write_http(writer, exc.status, exc.payload)
        except AuthError as exc:
            await self._write_http(writer, 401, exc.as_json())
        except QuotaError as exc:
            await self._write_http(writer, 429, exc.as_json())
        except AdmissionError as exc:
            await self._write_http(writer, 503, exc.as_json())
        except UnknownWorkloadError as exc:
            await self._write_http(writer, 400, {
                "error": exc.code, "message": str(exc)})
        except UnknownKeyError as exc:
            await self._write_http(writer, 404, exc.as_json())
        except (ValueError, TypeError, KeyError) as exc:
            await self._write_http(writer, 400, {
                "error": "bad_request",
                "message": f"{type(exc).__name__}: {exc}"})

    def _http_token(self, headers):
        token = headers.get("x-repro-token")
        if token:
            return token
        auth = headers.get("authorization", "")
        if auth.lower().startswith("bearer "):
            return auth[7:].strip()
        return None

    async def _route_http(self, method, target, headers, body,
                          writer):
        path, _, query = target.partition("?")
        params = dict(urllib.parse.parse_qsl(query))
        if path == "/healthz":
            if method != "GET":
                raise HttpError(405, {"error": "method_not_allowed",
                                      "method": method})
            await self._write_http(writer, 200, {
                "ok": True, "version": PROTOCOL_VERSION,
                "draining": self._draining,
                "queue_depth": self.service.queue_depth(),
            })
            return
        if path == "/stats":
            if method != "GET":
                raise HttpError(405, {"error": "method_not_allowed",
                                      "method": method})
            from repro.analysis import service_stats
            await self._write_http(writer, 200,
                                   service_stats(self.service))
            return
        if path == "/jobs":
            if method != "POST":
                raise HttpError(405, {"error": "method_not_allowed",
                                      "method": method})
            await self._http_submit(params, headers, body, writer)
            return
        if path.startswith("/jobs/"):
            if method != "GET":
                raise HttpError(405, {"error": "method_not_allowed",
                                      "method": method})
            rest = path[len("/jobs/"):]
            if rest.endswith("/stream"):
                key = rest[:-len("/stream")]
                await self._http_stream(key, writer)
                return
            record = self._lookup(
                rest, include_result=params.get("result") != "0")
            await self._write_http(writer, 200, record)
            return
        raise HttpError(404, {"error": "not_found", "path": path})

    async def _http_submit(self, params, headers, body, writer):
        try:
            document = json.loads(body or b"{}")
        except ValueError as exc:
            raise HttpError(400, {
                "error": "bad_request",
                "message": f"body is not JSON: {exc}"}) from None
        if not isinstance(document, dict):
            raise HttpError(400, {"error": "bad_request",
                                  "message": "body must be an object"})
        tenant = self._resolve_tenant(self._http_token(headers))
        wait = float(params["wait"]) if "wait" in params else None
        if "jobs" in document:
            jobs = document["jobs"]
            batch = True
        else:
            jobs = [document.get("job", document)]
            batch = False
        default_priority = document.get("priority", 0)
        records = []
        deadline = (time.monotonic() + wait
                    if wait is not None else None)
        for entry in jobs:
            try:
                future = await self._submit(
                    entry, entry.get("priority", default_priority)
                    if isinstance(entry, dict) else default_priority,
                    tenant)
            except (AdmissionError, UnknownWorkloadError,
                    ProtocolError) as exc:
                if not batch:
                    raise
                if isinstance(exc, UnknownWorkloadError):
                    error = {"error": exc.code, "message": str(exc)}
                else:
                    error = exc.as_json()
                records.append({"status": "rejected",
                                "error": error})
                continue
            if deadline is not None:
                remaining = max(0.001, deadline - time.monotonic())
                records.append(await self._wait_record(
                    future, remaining, include_result=True))
            else:
                records.append(self._record(future, False))
        payload = {"jobs": records} if batch else records[0]
        await self._write_http(writer, 200, payload)

    async def _http_stream(self, key, writer):
        if not self._known_key(key):
            raise UnknownKeyError(key)
        head = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: application/x-ndjson\r\n"
            "Transfer-Encoding: chunked\r\n"
            "Connection: close\r\n\r\n"
        )
        writer.write(head.encode())
        await writer.drain()

        async def chunk(payload):
            data = (canonical_json(payload) + "\n").encode()
            writer.write(f"{len(data):x}\r\n".encode() + data
                         + b"\r\n")
            await writer.drain()

        async def send_event(event):
            await chunk({"event": event})

        async def send_end(record):
            await chunk({"end": True, "result": record})
            writer.write(b"0\r\n\r\n")
            await writer.drain()

        async def send_error(error):
            from repro.service.net.protocol import error_payload
            await chunk({"error": error_payload(error)})
            writer.write(b"0\r\n\r\n")
            await writer.drain()

        await self._stream_to(key, send_event, send_end, send_error)

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
        while len(self._futures) > self.max_futures:
            self._futures.popitem(last=False)

    def _submit_sync(self, document, priority, tenant):
        job = self._job_from_document(document)
        future = self.service.submit(job, priority=int(priority or 0),
                                     tenant=tenant)
        self._remember(future)
        self.counters.submits += 1
        if not future.done():
            self._wake_drain()
        return future

    async def _submit(self, document, priority, tenant):
        # The submit path can fsync the journal — keep it off the
        # event loop.
        return await self._loop.run_in_executor(
            None, self._submit_sync, document, priority, tenant)

    def _record(self, future, include_result) -> dict:
        record = future.as_json()
        if include_result and future.status in ("done", "cached"):
            record["result"] = future.value
        return record

    async def _wait_record(self, future, timeout, include_result):
        def wait():
            try:
                future.result(timeout=max(0.0, timeout))
            except (JobTimeout, JobError):
                pass  # the record carries the status either way
            return self._record(future, include_result)
        return await self._loop.run_in_executor(None, wait)

    def _find_future(self, key):
        future = self._futures.get(key)
        if future is not None:
            return future
        return self.service._inflight.get(key)

    def _known_key(self, key) -> bool:
        if not isinstance(key, str) or not key:
            return False
        if self._find_future(key) is not None:
            return True
        if self.bus.last_event(key) is not None:
            return True
        return (self.service.cache is not None
                and self.service.cache.get(key) is not None)

    def _lookup(self, key, include_result=True) -> dict:
        if not isinstance(key, str) or not key:
            raise UnknownKeyError(key)
        future = self._find_future(key)
        if future is not None:
            return self._record(future, include_result)
        if self.service.cache is not None:
            value = self.service.cache.get(key)
            if value is not None:
                record = {"key": key, "status": "cached",
                          "digest": payload_digest(value)}
                if include_result:
                    record["result"] = value
                return record
        raise UnknownKeyError(key)

    def _synthesize_terminal(self, key):
        """A terminal event for a job that finished before anyone
        could observe it live (pre-restart completions served from
        cache, or futures that resolved before the bus existed)."""
        future = self._futures.get(key)
        if future is not None and future.done():
            op = _TERMINAL_OPS.get(future.status, "CANCEL")
            event = {"op": op, "state": EVENT_STATES[op],
                     "key": key, "kind": future.job.kind,
                     "priority": future.priority,
                     "tenant": future.tenant}
            digest = future.digest()
            if digest is not None:
                event["digest"] = digest
            if future.error is not None:
                event["error"] = str(future.error)
            return event
        if self.service.cache is not None:
            value = self.service.cache.get(key)
            if value is not None:
                return {"op": "CACHED", "state": "DONE", "key": key,
                        "digest": payload_digest(value)}
        return None

    def _terminal_record(self, key, event) -> dict:
        future = self._futures.get(key)
        if future is not None and future.done():
            return self._record(future, include_result=True)
        record = {"key": key, "status": "cached",
                  "digest": event.get("digest")}
        if self.service.cache is not None:
            value = self.service.cache.get(key)
            if value is not None:
                record["result"] = value
        return record

    async def _stream_to(self, key, send_event, send_end,
                         send_error):
        """The streaming core: bus events for ``key`` until terminal,
        then the completion record with its result payload."""
        if not self._known_key(key):
            await send_error(UnknownKeyError(key))
            return
        queue = asyncio.Queue(maxsize=self.stream_queue)

        def offer(event):
            try:
                queue.put_nowait(event)
            except asyncio.QueueFull:
                # A subscriber that cannot keep up does not get an
                # unbounded buffer: reset to one overflow marker and
                # let the consumer shut the stream down.
                while True:
                    try:
                        queue.get_nowait()
                    except asyncio.QueueEmpty:
                        break
                queue.put_nowait({"op": "__overflow__"})

        loop = self._loop

        def callback(event):
            loop.call_soon_threadsafe(offer, event)

        subscription = self.bus.subscribe(callback, key=key)
        self.counters.streaming_subscribers += 1
        try:
            if self.bus.last_event(key) is None:
                terminal = self._synthesize_terminal(key)
                if terminal is not None:
                    offer(terminal)
            if self.service.queue_depth():
                self._wake_drain()
            while True:
                try:
                    event = await asyncio.wait_for(
                        queue.get(), self.stream_timeout_s)
                except asyncio.TimeoutError:
                    await send_error(JobTimeout(
                        key, self.stream_timeout_s, "streaming"))
                    return
                if event.get("op") == "__overflow__":
                    self.counters.shed += 1
                    await send_error({
                        "error": "slow_consumer", "key": key,
                        "message": "subscriber queue overflowed"})
                    return
                self.counters.stream_events += 1
                await send_event(event)
                if is_terminal(event):
                    await send_end(self._terminal_record(key, event))
                    return
        finally:
            subscription.close()
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
