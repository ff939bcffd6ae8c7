"""Start ``repro-seu serve`` with the benchmark's wrappers installed.

    python3 perfbench/serve_launcher.py [--trace-dir DIR] serve --store-dir ...

Without ``--trace-dir`` this is exactly ``python -m repro.cli``.  With it,
every layer's entry points are wrapped first (see ``tracer.py``) and the
server writes its totals to ``DIR/<pid>.json`` as requests finish and
when it exits after SIGTERM.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))


def main(argv) -> int:
    if argv[:1] == ["--trace-dir"]:
        import tracer

        tracer.install(argv[1])
        argv = argv[2:]
    from repro.cli import main as cli_main

    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
