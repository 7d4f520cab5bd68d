"""Start ``repro-sat serve`` with the benchmark's span wrappers installed.

Usage (from the repository root)::

    python3 perfbench/daemon_launcher.py [--spans FILE] serve --state-dir DIR ...

Everything after the launcher's own option is handed to the ``repro-sat``
command line unchanged.  With ``--spans`` the layer wrappers of
:mod:`perfbench.tracing` time every call into the program inside the daemon
process, and the spans are written to ``FILE`` when the daemon stops.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import use_repo_sources  # noqa: E402


def main(argv: list[str]) -> int:
    spans = None
    if argv[:1] == ["--spans"]:
        spans, argv = Path(argv[1]), argv[2:]
    use_repo_sources()
    from repro.cli import main as repro_main

    from perfbench.tracing import Tracer

    tracer = Tracer().install() if spans is not None else None
    try:
        return repro_main(argv)
    finally:
        if tracer is not None:
            tracer.uninstall()
            tracer.dump(spans, process="daemon")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
