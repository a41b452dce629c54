"""Serve ``python -m repro.service`` under the layer tracer.

Usage: ``python perfbench/launcher.py [--spans OUT.json]
[--delay MODULE:QUALNAME=SECONDS ...] -- serve ...``

Applies any ``--delay`` (the sensitivity self-test's fault injection),
installs the same wrappers as the in-process traced run when
``--spans`` is given, then hands the remaining arguments to the
service CLI.  When the server drains on SIGTERM the recorded spans are
written to ``OUT.json`` as a list of
``[name, start_ns, end_ns, parent, op, tag]``.
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans")
    parser.add_argument("--delay", action="append", default=[])
    parser.add_argument("service_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    service_args = args.service_args
    if service_args[:1] == ["--"]:
        service_args = service_args[1:]
    sys.path[:0] = [SRC, HERE]
    import tracing

    for qual, seconds in tracing.parse_delays(",".join(args.delay)):
        tracing.delay(qual, seconds)
    from repro.service.__main__ import main as service_main

    if args.spans is None:
        return service_main(service_args)
    recorder = tracing.SpanRecorder()
    tracing.install(recorder)
    try:
        return service_main(service_args)
    finally:
        spans = [list(span[:5]) + [list(span[5]) if isinstance(
                     span[5], tuple) else span[5]]
                 for span in recorder.take()]
        tmp = args.spans + ".tmp"
        with open(tmp, "w") as handle:
            json.dump(spans, handle)
        os.replace(tmp, args.spans)


if __name__ == "__main__":
    sys.exit(main())
