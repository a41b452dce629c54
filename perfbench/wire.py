"""The two wire workloads: ``wire_warm`` and ``wire_cold``.

The system under test is a ``python -m repro.service serve`` process
on a Unix socket; this process is its only client.  Job documents are
drawn from the seed, and each job's payload digest is recorded when
the input is made, by running the same workload runner in-process, so
every reply can be checked against it.
"""

import collections
import itertools
import json
import os
import random
import shutil
import signal
import socket
import subprocess
import sys
import time

from repro.fpu.vector_forms import FORMS
from repro.service.cache import ResultCache
from repro.service.jobkey import JobSpec, job_key, payload_digest
from repro.service.net.protocol import FrameDecoder, encode_frame, request
from repro.service.workloads import execute_job

#: Requests per wire_warm op, and how many distinct cached jobs they
#: draw from: twice the server's 256-entry memory LRU, so both cache
#: tiers serve.
WINDOW = 32
WARM_JOBS = 512
#: Every fourth wire_warm op is one HTTP batch on a fresh connection.
HTTP_EVERY = 4
#: wire_cold's store starts this full, so each store pays the
#: size-bound scan over it.
TEMPLATE_ENTRIES = 2000
#: Never-seen jobs prepared for one wire_cold run; a run that uses them
#: all stops early.
COLD_POOL = 1500
#: Ops (windows or jobs) run before timing starts.
WARMUP_OPS = {"wire_warm": 16, "wire_cold": 20}
#: Ops in a traced run and in its untraced twin.
TRACED_OPS = {"wire_warm": 160, "wire_cold": 150}

LAUNCHER = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "launcher.py")
_FORM_NAMES = sorted(FORMS)
_REPLY_TIMEOUT_S = 30.0


#: One client op as logged: its interval (perf_counter seconds), its
#: dialect, the job keys its replies named, their ``queued_s`` and
#: ``run_s`` fields, and how many requests it sent.
OpRecord = collections.namedtuple(
    "OpRecord", "start end dialect keys queued run requests")


class ConnectionClosed(Exception):
    """The server closed the connection before every reply arrived."""

    def __init__(self, received):
        super().__init__(f"connection closed after {len(received)} "
                         "replies")
        self.received = received


# -- inputs -------------------------------------------------------------

def _events_spec(rng):
    procs = []
    for _ in range(3):
        ops = []
        for _ in range(rng.randint(3, 6)):
            pick = rng.randrange(4)
            if pick == 0:
                ops.append(["timeout", rng.randint(1, 500)])
            elif pick == 1:
                ops.append(["put", 0, rng.randint(-10 ** 6, 10 ** 6)])
            elif pick == 2:
                ops.append(["get", 0])
            else:
                ops.append(["hold", 0, rng.randint(1, 50)])
        procs.append(ops)
    return {"kind": "events", "channels": 1, "stores": [],
            "resources": [[1]], "procs": procs, "interrupts": []}


def _vector_spec(rng):
    ops = []
    for _ in range(2):
        form = rng.choice(_FORM_NAMES)
        ops.append({
            "form": form, "n": rng.randint(8, 64),
            "seed": rng.randrange(1 << 30),
            "scalars": [round(rng.uniform(-10, 10), 3)
                        for _ in range(FORMS[form].scalar_inputs)],
            "specials": False, "precision": 64,
        })
    return {"kind": "vector", "ops": ops}


def tiny_jobs(label, count):
    """``count`` distinct tiny job documents (events and vector kinds,
    alternating), drawn from ``label``."""
    rng = random.Random(label)
    docs, seen = [], set()
    while len(docs) < count:
        kind = ("events", "vector")[len(docs) % 2]
        spec = (_events_spec if kind == "events" else _vector_spec)(rng)
        text = json.dumps(spec, sort_keys=True)
        if text not in seen:
            seen.add(text)
            docs.append({"kind": kind, "spec": spec})
    return docs


def expected(doc):
    """``(key, payload, digest)`` for one job document, computed
    in-process exactly as the server's runner computes it."""
    job = JobSpec(kind=doc["kind"], spec=doc["spec"]).resolved()
    payload = json.loads(json.dumps(execute_job(job.payload())))
    return job_key(job), payload, payload_digest(payload)


def fill_store(root, docs):
    """A result store holding ``docs``; returns their digests."""
    cache = ResultCache(root=root)
    digests = []
    for doc in docs:
        key, payload, digest = expected(doc)
        cache.put(key, payload, job=doc)
        digests.append(digest)
    return digests


def template_store(workdir):
    """The 2,000-entry store wire_cold starts from, built once per
    checkout (it depends on no seed) and copied for each run."""
    docs = tiny_jobs("template", TEMPLATE_ENTRIES)
    tag = expected(docs[0])[0][:16]
    path = os.path.join(workdir, f"template-{tag}")
    if not os.path.isdir(path):
        partial = path + ".partial"
        shutil.rmtree(partial, ignore_errors=True)
        fill_store(partial, docs)
        os.replace(partial, path)
    return path


def warm_pattern():
    """Endless indices into the cached jobs, one per request.  The
    pattern is fixed; the seed picks which jobs the indices name, so
    the memory tier's hit share is the same for every seed."""
    rng = random.Random("wire_warm:pattern")
    while True:
        yield rng.randrange(WARM_JOBS)


# -- the server ---------------------------------------------------------

def clean_env(src):
    """The environment without any ``REPRO_*`` setting, so the server
    runs the default kernel tier and default pool."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = src
    return env


def _proc_stat(pid):
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rpartition(")")[2].split()
    return int(fields[11]) + int(fields[12])


def _proc_hwm_kb(pid):
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM")


class Server:
    """One served process: spawn, readiness, CPU, memory, stop."""

    def __init__(self, argv, env, cwd, sock, log_path):
        self.argv, self.env, self.cwd, self.sock = argv, env, cwd, sock
        self.log_path = log_path
        self.proc = None

    def start(self, timeout=60.0):
        """Spawn and wait for the first answered ``ping``; returns the
        seconds that took."""
        if os.path.exists(self.sock):
            os.unlink(self.sock)
        log = open(self.log_path, "ab")
        t0 = time.perf_counter()
        try:
            self.proc = subprocess.Popen(
                self.argv, env=self.env, cwd=self.cwd,
                stdout=log, stderr=log, stdin=subprocess.DEVNULL)
        finally:
            log.close()
        deadline = t0 + timeout
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with "
                                   f"{self.proc.returncode}; see "
                                   f"{self.log_path}")
            try:
                with FramedConnection(self.sock) as conn:
                    conn.send(encode_frame(request(0, "ping")))
                    reply = conn.replies(1)[0]
                if reply.get("ok"):
                    return time.perf_counter() - t0
            except (OSError, ConnectionClosed):
                pass
            if time.perf_counter() > deadline:
                raise RuntimeError("server never answered ping")
            time.sleep(0.002)

    def cpu_seconds(self):
        return _proc_stat(self.proc.pid) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self):
        return _proc_hwm_kb(self.proc.pid) / 1024.0

    def stats(self):
        with FramedConnection(self.sock) as conn:
            conn.send(encode_frame(request(0, "stats")))
            return conn.replies(1)[0]["result"]

    def stop(self, timeout=60.0):
        if self.proc is None or self.proc.poll() is not None:
            return
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


class FramedConnection:
    """A blocking framed-protocol connection that can pipeline."""

    def __init__(self, path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(_REPLY_TIMEOUT_S)
        try:
            self.sock.connect(path)
        except OSError:
            self.sock.close()
            raise
        self.decoder = FrameDecoder()
        self.inbox = []

    def send(self, data):
        self.sock.sendall(data)

    def replies(self, count):
        """The next ``count`` replies; raises ConnectionClosed (with
        what did arrive) when the server hangs up first."""
        while len(self.inbox) < count:
            try:
                data = self.sock.recv(1 << 16)
            except OSError:
                data = b""
            if not data:
                received, self.inbox = self.inbox, []
                raise ConnectionClosed(received)
            self.inbox.extend(self.decoder.feed(data))
        out, self.inbox = self.inbox[:count], self.inbox[count:]
        return out

    def close(self):
        self.sock.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def http_post(path, target, document):
    """One HTTP/1.1 POST on a fresh connection; ``(status, body)``."""
    body = json.dumps(document).encode()
    head = (f"POST {target} HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n").encode()
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(_REPLY_TIMEOUT_S)
    try:
        sock.connect(path)
        sock.sendall(head + body)
        chunks = []
        while True:
            data = sock.recv(1 << 16)
            if not data:
                break
            chunks.append(data)
    finally:
        sock.close()
    raw = b"".join(chunks)
    header, _, payload = raw.partition(b"\r\n\r\n")
    if not header:
        raise ConnectionClosed([])
    status = int(header.split(b" ", 2)[1])
    return status, json.loads(payload) if payload else None


# -- checking -------------------------------------------------------------

def check_record(record, want_status, digest):
    """None if a job record is the right answer, else why not."""
    if not isinstance(record, dict):
        return "reply carries no job record"
    if record.get("status") != want_status:
        return f"status {record.get('status')!r}, wanted {want_status!r}"
    if record.get("digest") != digest:
        return "digest differs from the one recorded for the input"
    if payload_digest(record.get("result")) != digest:
        return "payload does not hash to its digest"
    return None


def check_reply(reply, want_status, digest):
    if not isinstance(reply, dict) or not reply.get("ok"):
        error = reply.get("error") if isinstance(reply, dict) else reply
        return f"error reply {error!r}"
    return check_record(reply.get("result"), want_status, digest)


# -- one run's plumbing -------------------------------------------------

class Rig:
    """Inputs, store and server command for one wire run."""

    def __init__(self, workload, seed, root, workdir, delays=()):
        self.workload = workload
        self.root = root
        self.rundir = os.path.join(workdir, f"run-{os.getpid()}")
        shutil.rmtree(self.rundir, ignore_errors=True)
        os.makedirs(self.rundir)
        self.src = os.path.join(root, "src")
        self.delays = list(delays)
        if workload == "wire_warm":
            self.docs = tiny_jobs(f"wire_warm:{seed}", WARM_JOBS)
            self.template = os.path.join(self.rundir, "warm-store")
            self.digests = fill_store(self.template, self.docs)
            self.frames = [
                encode_frame(request(i, "submit", job=doc))
                for i, doc in enumerate(self.docs)
            ]
        else:
            self.template = template_store(workdir)
            self.docs = tiny_jobs(f"wire_cold:{seed}", COLD_POOL)
            self.digests = [expected(doc)[2] for doc in self.docs]
        self.servers = 0

    def server(self, spans_path=None):
        """A fresh store copy and the server command over it."""
        self.servers += 1
        rel = os.path.relpath(self.rundir, self.root)
        store = os.path.join(rel, f"store-{self.servers}")
        shutil.copytree(self.template, os.path.join(self.root, store))
        sock = os.path.join(rel, f"s{self.servers}.sock")
        args = ["serve", "--socket", sock, "--cache-dir", store]
        if self.workload == "wire_cold":
            journal = os.path.join(rel, f"journal-{self.servers}")
            args += ["--journal-dir", journal]
        if spans_path is None and not self.delays:
            argv = [sys.executable, "-m", "repro.service"] + args
        else:
            argv = [sys.executable, LAUNCHER]
            if spans_path is not None:
                argv += ["--spans", spans_path]
            for qual, seconds in self.delays:
                argv += ["--delay", f"{qual}={seconds}"]
            argv += ["--"] + args
        # Connect through a relative path: a Unix socket path must fit
        # in 108 bytes, and the checkout may sit deep in the tree.
        return Server(argv, clean_env(self.src), self.root,
                      os.path.relpath(os.path.join(self.root, sock)),
                      os.path.join(self.rundir, "server.log"))

    def close(self):
        shutil.rmtree(self.rundir, ignore_errors=True)


class Client:
    """The closed-loop load generator: one op at a time, at most one
    persistent framed connection plus one HTTP connection open."""

    def __init__(self, rig, server, tally, clock=time.perf_counter):
        self.rig = rig
        self.server = server
        self.tally = tally
        self.clock = clock
        self.conn = None
        self.pattern = warm_pattern()
        self.next_op = 0
        self.next_cold = 0
        self.log = []   # OpRecord per op
        self.errors = []

    def _connection(self):
        if self.conn is None:
            self.conn = FramedConnection(self.server.sock)
        return self.conn

    def close(self):
        if self.conn is not None:
            self.conn.close()
            self.conn = None

    def exhausted(self):
        return (self.rig.workload == "wire_cold"
                and self.next_cold >= len(self.rig.docs))

    def op(self):
        """Run the next op; returns its latency in seconds.  The op
        fails if any of its requests gets no reply or a wrong one."""
        self.errors = []
        if self.rig.workload == "wire_warm":
            latency = self._warm_op()
        else:
            latency = self._cold_op()
        if self.errors:
            self.tally.fail(self.errors[0])
        else:
            self.tally.ok()
        return latency

    def _warm_op(self):
        index = self.next_op
        self.next_op += 1
        ids = list(itertools.islice(self.pattern, WINDOW))
        rig = self.rig
        if index % HTTP_EVERY == HTTP_EVERY - 1:
            dialect = "http"
            document = {"jobs": [rig.docs[i] for i in ids]}
            t0 = self.clock()
            try:
                status, body = http_post(self.server.sock,
                                         "/jobs?wait=30", document)
                t1 = self.clock()
            except (OSError, ConnectionClosed, ValueError):
                t1 = self.clock()
                self.errors.append("connection closed without a reply")
                self._log(t0, t1, dialect, ids, [])
                return t1 - t0
            records = (body or {}).get("jobs") or []
            if status != 200 or len(records) != WINDOW:
                self.errors.append(f"http status {status} with "
                                   f"{len(records)} records")
            for i, record in zip(ids, records):
                self._judge(check_record(record, "cached",
                                         rig.digests[i]))
        else:
            dialect = "framed"
            conn = self._connection()
            t0 = self.clock()
            try:
                conn.send(b"".join(rig.frames[i] for i in ids))
                replies = conn.replies(WINDOW)
            except (OSError, ConnectionClosed) as exc:
                replies = getattr(exc, "received", [])
                self.close()
            t1 = self.clock()
            for i, reply in zip(ids, replies):
                error = check_reply(reply, "cached", rig.digests[i])
                if error is None and reply.get("id") != i:
                    error = "reply answers another request"
                self._judge(error)
            if len(replies) < WINDOW:
                self.errors.append("connection closed without a reply")
            records = [r.get("result") for r in replies
                       if isinstance(r, dict)]
        self._log(t0, t1, dialect, ids, records)
        return t1 - t0

    def _cold_op(self):
        i = self.next_cold
        self.next_cold += 1
        doc = self.rig.docs[i]
        frame = encode_frame(request(i, "submit", job=doc,
                                     wait=_REPLY_TIMEOUT_S))
        conn = self._connection()
        t0 = self.clock()
        try:
            conn.send(frame)
            reply = conn.replies(1)[0]
        except (OSError, ConnectionClosed):
            t1 = self.clock()
            self.close()
            self.errors.append("connection closed without a reply")
            self._log(t0, t1, "framed", [i], [])
            return t1 - t0
        t1 = self.clock()
        self._judge(check_reply(reply, "done", self.rig.digests[i]))
        record = reply.get("result") if isinstance(reply, dict) else None
        self._log(t0, t1, "framed", [i],
                  [record] if isinstance(record, dict) else [])
        return t1 - t0

    def _judge(self, error):
        if error is not None:
            self.errors.append(error)

    def _log(self, t0, t1, dialect, ids, records):
        records = [r for r in records if isinstance(r, dict)]
        self.log.append(OpRecord(
            t0, t1, dialect, {r.get("key") for r in records},
            [r.get("queued_s", 0.0) for r in records],
            [r.get("run_s", 0.0) for r in records], len(ids)))
