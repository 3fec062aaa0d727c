"""Run one bhgs command in this fresh interpreter with spans installed.

    python3 bench/launch.py --spans OUT.json -- <bhgs arguments>

Installs the spans of spans.py, calls bhgs.cli.main(argv), writes the spans
to OUT.json and exits with main's exit code. The benchmark's traced `cli`
runs start every command through this file; untraced runs use
`python3 -m bhgs.cli` directly.
"""
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spans import Tracer  # noqa: E402


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--spans" or argv[2] != "--":
        sys.stderr.write(__doc__)
        return 2
    import bhgs.cli
    tracer = Tracer()
    tracer.install()
    tracer.op = 0
    try:
        return bhgs.cli.main(argv[3:])
    finally:
        tracer.op = -1
        tracer.dump(argv[1])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
