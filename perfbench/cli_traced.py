"""Run one stci command as ``python -m stci.cli`` would, recording spans.

Usage: python cli_traced.py REPORT_PATH ARG...

The phases of ``stci.cli.run`` are timed as spans named cli.import
(``import stci.cli``), cli.parse (``build_parser().parse_args``),
cli.handler (``args.handler``) and cli.render (``render``); the library
layers called by the handler are traced as in the in-process workloads.
Stdout, stderr and the exit code follow ``stci.cli.run``; the spans are
written as JSON to REPORT_PATH, also when the command raises.
"""

from __future__ import annotations

import json
import sys

from tracer import Tracer


def _run(cli, domain_error, tracer: Tracer, argv) -> int:
    sid = tracer.open(tracer.name_id("cli.parse"))
    try:
        args = cli.build_parser().parse_args(argv)
    except SystemExit as exc:
        tracer.close(sid, True)
        return exc.code if isinstance(exc.code, int) else 2
    tracer.close(sid)
    try:
        sid = tracer.open(tracer.name_id("cli.handler"))
        doc = args.handler(args)
        tracer.close(sid)
        sid = tracer.open(tracer.name_id("cli.render"))
        text = cli.render(doc, args.format)
        tracer.close(sid)
    except domain_error as exc:
        tracer.close(sid, True)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BaseException:
        tracer.close(sid, True)
        raise
    sys.stdout.write(text)
    return 0


def main() -> int:
    report_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    sid = tracer.open(tracer.name_id("cli.import"))
    import stci.cli
    from stci.errors import DomainError

    tracer.close(sid)
    tracer.install()
    try:
        return _run(stci.cli, DomainError, tracer, argv)
    finally:
        with open(report_path, "w") as fh:
            json.dump(tracer.export(), fh)


if __name__ == "__main__":
    sys.exit(main())
