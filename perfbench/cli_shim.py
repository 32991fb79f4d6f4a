"""Run `schreier.cli` under the span wrappers, for the traced cli-session.

    python3 perfbench/cli_shim.py SPANS_FILE [CLI ARGUMENTS...]

Times the import of the CLI, installs the same wrappers as the worker, runs
the command and writes the span aggregates to SPANS_FILE, also when the
command exits or raises; the exit status and any traceback are left exactly
as the CLI produces them.
"""

import json
import sys

import tracer as tracing


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracer.open("cli.import")
    import schreier.cli as cli

    tracer.close()
    tracing.install(tracer)
    tracer.open("cli.command")
    try:
        cli.main(args=argv, prog_name="schreier")
    finally:
        tracer.close()
        from schreier import families

        summary = tracer.summary()
        summary["memo_entries"] = len(families._fs_cache)
        with open(spans_path, "w") as fh:
            json.dump(summary, fh)


if __name__ == "__main__":
    main()
