"""``janus serve`` with the benchmark's layer wrappers installed.

Usage: ``python3 serve_traced.py SPANS_FILE serve [serve options...]``

Installs :mod:`tracer` in this process, then hands the remaining
arguments to the program's own CLI entry (the same one ``python -m
repro`` runs).  ``SIGUSR1`` and ``SIGUSR2`` mark the start and end of
the measured phase; when the server shuts down (``SIGTERM``) the two
snapshots are written to ``SPANS_FILE`` as ``{"start": ..., "end": ...}``.
"""

from __future__ import annotations

import json
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracer as tracing  # noqa: E402


def main() -> int:
    spans_file, argv = Path(sys.argv[1]), sys.argv[2:]
    recorder = tracing.Tracer()
    tracing.install(recorder)
    marks: dict = {}

    def mark(name: str):
        def handler(_signum, _frame) -> None:
            marks[name] = recorder.snapshot()

        return handler

    signal.signal(signal.SIGUSR1, mark("start"))
    signal.signal(signal.SIGUSR2, mark("end"))
    from repro.cli import main as janus

    try:
        return janus(argv)
    finally:
        spans_file.write_text(json.dumps(marks))


if __name__ == "__main__":
    sys.exit(main())
