"""Run the kahlergrad CLI with the layer wrappers installed.

    python3 perfbench/traced_verify.py TRACE_FILE verify --suite ... --json

The spans and counts stay in memory until the CLI returns, then go to
TRACE_FILE as JSON.  The exit code is the CLI's.
"""

import sys

import tracing


def main() -> int:
    path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.install()
    from kahlergrad import cli

    code = cli.main(argv)
    tracer.dump(path)
    return code


if __name__ == "__main__":
    sys.exit(main())
