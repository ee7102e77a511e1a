"""Run one `cohom` command under the layer tracer and save its op summary.

Usage: python3 perfbench/traced_cli.py <summary.json> <cohom arguments...>

Stdout and the exit code are those of `cohom`; the summary (spans,
calls, self times, counts) goes to the given file as JSON.
"""

import json
import sys
from pathlib import Path

sys.path.insert(1, str(Path(__file__).resolve().parent.parent / "src"))

import cohom.cli  # noqa: E402
from tracer import Tracer  # noqa: E402


def main() -> int:
    summary_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    tracer.begin()
    try:
        return cohom.cli.main(argv)
    finally:
        Path(summary_path).write_text(json.dumps(tracer.end()))


if __name__ == "__main__":
    sys.exit(main())
