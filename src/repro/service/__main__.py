"""``python -m repro.service`` — the machine-room front door.

Subcommands::

    submit  one job from the command line; prints its summary record
    batch   a batch file of jobs; prints the per-job summary + stats
    key     print a job's content address (no execution)
    stats   inspect the on-disk cache store
    serve   run the network front-end (framed socket + HTTP)

Examples::

    python -m repro.service submit --kind golden \\
        --spec '{"name": "vector_forms"}'
    python -m repro.service batch examples/service_batch.json --json
    python -m repro.service batch jobs.json --no-cache --jobs 4
    python -m repro.service key --kind vector --spec "$(cat op.json)"
    python -m repro.service serve --socket /tmp/repro.sock \\
        --journal-dir .repro-journal
    python -m repro.service submit --remote unix:/tmp/repro.sock \\
        --kind golden --spec '{"name": "vector_forms"}' --stream

``--remote ADDR`` (on ``submit``, ``batch``, ``stats``) talks to a
running ``serve`` instance over its framed socket protocol instead of
simulating in-process; ``--stream`` prints each status transition as
the server pushes it.  ``serve`` drains gracefully on SIGTERM and,
with ``--journal-dir``, resumes journaled work after a hard kill.

``--no-cache`` bypasses the result cache entirely (every job
simulates); ``--cache-dir`` points the store somewhere other than
``.repro-cache/``; ``--jobs N`` fans execution over N fork-pool
workers.  ``--journal-dir DIR`` write-ahead-journals every job
transition so a killed run can be resumed by re-running with the same
directory; ``--timeout S`` bounds the wait per run (unfinished jobs
are reported, exit status 1).  ``--tenant NAME`` attributes the
submission for per-tenant metering.  ``--json`` emits the
machine-readable summary (what the CI smoke stage diffs) instead of
the human table.
"""

import argparse
import json
import sys

from repro.analysis.tracing import service_stats_table
from repro.events.engine import KERNEL_TIERS
from repro.service.api import load_batch, run_batch
from repro.service.cache import ResultCache
from repro.service.jobkey import JobSpec, job_key
from repro.service.scheduler import SimulationService


def _build_service(args) -> SimulationService:
    use_cache = not args.no_cache
    cache = ResultCache(root=args.cache_dir) if use_cache else None
    return SimulationService(cache=cache, use_cache=use_cache,
                             pool_jobs=args.jobs,
                             journal_dir=args.journal_dir)


def _job_from_args(args) -> JobSpec:
    spec = json.loads(args.spec) if args.spec is not None else None
    return JobSpec(kind=args.kind, spec=spec, tier=args.tier,
                   config=(json.loads(args.config)
                           if args.config is not None else None),
                   seed=args.seed,
                   tenant=getattr(args, "tenant", None))


def _emit(summary: dict, args, out=None):
    out = out if out is not None else sys.stdout
    if args.json:
        json.dump(summary, out, indent=2, sort_keys=True)
        out.write("\n")
        return
    from repro.analysis.report import Table
    table = Table(
        "Service batch summary",
        ["#", "kind", "status", "submits", "key", "digest",
         "queued s", "run s"],
    )
    for record in summary["jobs"]:
        table.add(record["index"], record["kind"], record["status"],
                  record["submits"], record["key"][:12],
                  (record["digest"] or "-")[:12],
                  round(record["queued_s"], 4),
                  round(record["run_s"], 4))
    out.write(table.render() + "\n\n")
    stats = summary["stats"]
    out.write(service_stats_table(stats).render() + "\n")


def _remote_client(args):
    from repro.service.net import ServiceClient
    return ServiceClient(args.remote,
                         auth=getattr(args, "auth", None))


def _remote_submit(args) -> int:
    job = _job_from_args(args)
    from repro.service.net import job_document
    document = job_document(job)
    document.pop("tenant", None)
    with _remote_client(args) as client:
        if args.stream:
            record = None
            for tag, payload in client.stream(job=document,
                                              priority=args.priority):
                if tag == "event":
                    print(f"{payload['state']:<9} "
                          f"{payload['key'][:12]}… "
                          f"({payload['op']})")
                elif tag == "end":
                    record = payload
        else:
            record = client.submit(document,
                                   priority=args.priority,
                                   wait=args.timeout or 60.0)
    record["index"] = 0
    summary = {"jobs": [record], "stats": None,
               "all_ok": record.get("status") in ("done", "cached")}
    if args.json:
        json.dump(summary, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        status = record.get("status")
        digest = record.get("digest") or "-"
        print(f"{record['key'][:12]}… {status} digest {digest[:12]}")
    return 0 if summary["all_ok"] else 1


def _cmd_submit(args) -> int:
    if args.remote:
        return _remote_submit(args)
    summary = run_batch(_build_service(args),
                        [(_job_from_args(args), args.priority)],
                        timeout=args.timeout)
    _emit(summary, args)
    return 0 if summary["all_ok"] else 1


def _remote_batch(args) -> int:
    from repro.service.net import job_document
    jobs = load_batch(args.path, tenant=args.tenant)
    with _remote_client(args) as client:
        records = []
        for index, job in enumerate(jobs):
            document = job_document(job)
            record = client.submit(document,
                                   wait=args.timeout or 60.0)
            record["index"] = index
            records.append(record)
        stats = client.stats()
    summary = {
        "jobs": records,
        "stats": stats,
        "all_ok": all(r.get("status") in ("done", "cached")
                      for r in records),
    }
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.out}")
    else:
        _emit(summary, args)
    return 0 if summary["all_ok"] else 1


def _cmd_batch(args) -> int:
    if args.remote:
        return _remote_batch(args)
    service = _build_service(args)
    jobs = load_batch(args.path, tenant=args.tenant)
    summary = run_batch(service, jobs, timeout=args.timeout)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.out}")
    else:
        _emit(summary, args)
    return 0 if summary["all_ok"] else 1


def _cmd_key(args) -> int:
    print(job_key(_job_from_args(args)))
    return 0


def _cmd_serve(args) -> int:
    from repro.service.net import run_server
    service = _build_service(args)
    auth_tokens = None
    if args.auth_token:
        auth_tokens = {}
        for pair in args.auth_token:
            token, _, tenant = pair.partition("=")
            auth_tokens[token] = tenant or token
    host = args.host
    if args.socket is None and host is None:
        host = "127.0.0.1"
    run_server(
        service,
        unix_path=args.socket,
        host=host,
        port=args.port,
        auth_tokens=auth_tokens,
        require_auth=args.require_auth,
        max_connections=args.max_connections,
        idle_timeout_s=args.idle_timeout,
    )
    return 0


def _cmd_stats(args) -> int:
    if args.remote:
        with _remote_client(args) as client:
            print(json.dumps(client.stats(), indent=2,
                             sort_keys=True))
        return 0
    cache = ResultCache(root=args.cache_dir)
    usage = cache.disk_usage()
    usage["root"] = cache.root
    if args.journal_dir:
        from repro.service.journal import JobJournal
        journal = JobJournal(args.journal_dir)
        replay = journal.replay()
        # What the directory holds; this process has appended nothing.
        usage["journal"] = {
            "size_bytes": journal.size_bytes(),
            "pending": len(replay.pending()),
            "done": len(replay.done),
            "replay": replay.stats,
        }
    print(json.dumps(usage, indent=2, sort_keys=True))
    return 0


def _add_job_arguments(parser):
    parser.add_argument("--kind", required=True,
                        help="registered workload kind (cp, events, "
                        "occam, vector, faults, golden, bench.*)")
    parser.add_argument("--spec", help="workload spec as JSON")
    parser.add_argument("--tier", choices=KERNEL_TIERS,
                        help="kernel tier (default: ambient)")
    parser.add_argument("--config", help="machine config as JSON "
                        "(key-affecting; handed to takes='job' "
                        "runners)")
    parser.add_argument("--seed", type=int,
                        help="seed (key-affecting)")
    parser.add_argument("--tenant", default=None,
                        help="submitting tenant id (metering only — "
                        "never part of the job key)")


def _add_service_arguments(parser):
    parser.add_argument("--cache-dir", default=None,
                        help="result-cache directory "
                        "(default .repro-cache or REPRO_CACHE_DIR)")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the result cache entirely")
    parser.add_argument("--jobs", default=None,
                        help="fork-pool workers per drain "
                        "(default: REPRO_SWEEP_JOBS, i.e. inline)")
    parser.add_argument("--journal-dir", default=None,
                        help="write-ahead job journal directory; a "
                        "killed run resumes when re-run with the "
                        "same directory")
    parser.add_argument("--timeout", type=float, default=None,
                        help="bound the wait in seconds; unfinished "
                        "jobs are reported instead of blocking")
    parser.add_argument("--json", action="store_true",
                        help="emit the machine-readable summary")
    parser.add_argument("--remote", default=None,
                        help="submit to a running serve instance "
                        "(unix:/path or host:port) instead of "
                        "simulating in-process")
    parser.add_argument("--auth", default=None,
                        help="auth token sent with --remote submits")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    commands = parser.add_subparsers(dest="command", required=True)

    submit = commands.add_parser(
        "submit", help="run one job through the service")
    _add_job_arguments(submit)
    _add_service_arguments(submit)
    submit.add_argument("--priority", type=int, default=0)
    submit.add_argument("--stream", action="store_true",
                        help="with --remote: print status events as "
                        "the server pushes them")
    submit.set_defaults(handler=_cmd_submit)

    batch = commands.add_parser(
        "batch", help="run a batch file of jobs")
    batch.add_argument("path", help="batch JSON file")
    _add_service_arguments(batch)
    batch.add_argument("--tenant", default=None,
                       help="tenant for jobs that name none "
                       "(metering only — never part of the job key)")
    batch.add_argument("--out", help="write the JSON summary here")
    batch.set_defaults(handler=_cmd_batch)

    key = commands.add_parser(
        "key", help="print a job's content address")
    _add_job_arguments(key)
    key.set_defaults(handler=_cmd_key)

    stats = commands.add_parser(
        "stats", help="inspect the on-disk cache store and journal")
    stats.add_argument("--cache-dir", default=None)
    stats.add_argument("--journal-dir", default=None)
    stats.add_argument("--remote", default=None,
                       help="query a running serve instance instead")
    stats.add_argument("--auth", default=None)
    stats.set_defaults(handler=_cmd_stats)

    serve = commands.add_parser(
        "serve", help="run the network front-end until SIGTERM")
    _add_service_arguments(serve)
    serve.add_argument("--socket", default=None,
                       help="bind a unix socket at this path")
    serve.add_argument("--host", default=None,
                       help="bind TCP on this host (default "
                       "127.0.0.1 when no --socket is given)")
    serve.add_argument("--port", type=int, default=0,
                       help="TCP port (default: ephemeral)")
    serve.add_argument("--auth-token", action="append", default=[],
                       metavar="TOKEN=TENANT",
                       help="accept TOKEN as TENANT (repeatable); "
                       "with any --auth-token, unknown tokens are "
                       "rejected")
    serve.add_argument("--require-auth", action="store_true",
                       help="reject submissions without a token")
    serve.add_argument("--max-connections", type=int, default=256)
    serve.add_argument("--idle-timeout", type=float, default=30.0,
                       help="drop connections idle this many seconds")
    serve.set_defaults(handler=_cmd_serve)

    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
