"""Run one soccersum CLI command in a fresh process, optionally traced.

    python3 perfbench/child.py [--cpus 0,1] [--spans OUT.json --op N] -- <soccersum args>

Each benchmark operation of the ``train`` and ``e2e-small`` workloads is one
such process, as a user's command would be, so no in-process state carries
from one operation to the next.  With ``--spans`` the tracer wraps the
layers before the command runs and writes the spans and warning counts to
OUT.json when it ends.
"""
import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--spans", default=None)
    parser.add_argument("--op", type=int, default=0)
    parser.add_argument("--cpus", default=None, help="comma-separated cores to run on")
    parser.add_argument("cli", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli[1:] if args.cli[:1] == ["--"] else args.cli
    if args.cpus:  # before numpy loads; pool workers inherit it
        os.sched_setaffinity(0, {int(c) for c in args.cpus.split(",")})

    from soccersum import cli

    if args.spans is None:
        return cli.main(cli_args)
    from tracing import TRACER

    TRACER.op = args.op
    TRACER.start()
    try:
        code = cli.main(cli_args)
    finally:
        TRACER.stop()
    with open(args.spans, "w") as fh:
        json.dump({"spans": TRACER.spans, "warnings": dict(TRACER.warnings)}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
