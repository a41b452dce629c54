"""Network serving front-end for the machine-room service.

Layers, bottom up: :mod:`~repro.service.net.protocol` (CRC-checked
length-prefixed JSON frames, protocol versioning, structured wire
errors), :mod:`~repro.service.net.server` (the asyncio runtime
serving the framed protocol and a minimal HTTP/1.1 adapter on the
same listeners, with auth, backpressure, graceful drain, and status
streams that watch each job's
:class:`~repro.service.scheduler.JobFuture`), and
:mod:`~repro.service.net.client` (the blocking client behind the
CLI's ``--remote`` flag).
"""

from repro.service.net.client import ServiceClient, job_document, \
    parse_address
from repro.service.net.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    FrameDecoder,
    ProtocolError,
    RemoteJobError,
    encode_frame,
)
from repro.service.net.server import (
    AuthError,
    NetCounters,
    ServerThread,
    ServiceServer,
    UnknownKeyError,
    run_server,
)

__all__ = [
    "AuthError",
    "FrameDecoder",
    "MAX_FRAME_BYTES",
    "NetCounters",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "RemoteJobError",
    "ServerThread",
    "ServiceClient",
    "ServiceServer",
    "UnknownKeyError",
    "encode_frame",
    "job_document",
    "parse_address",
    "run_server",
]
