"""Run one CLI invocation as `python -m profinite_kit.cli` would, with timers.

Usage: python3 perfbench/cli_child.py OUT.json ARGS...

Prints what the CLI prints and exits with its code.  Spans for the import,
the subcommand handler, the renderer and every wrapped library function
are written to OUT.json for the parent to merge.
"""

import importlib
import json
import sys
from pathlib import Path

from tracer import Tracer

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    cli = tracer.span("cli.import_ms", importlib.import_module, "profinite_kit.cli")
    tracer.install()
    for name in [n for n in vars(cli) if n.startswith("_cmd_")]:
        handler = getattr(cli, name)
        setattr(cli, name, lambda args, h=handler: tracer.span("cli.handler_ms", h, args))
    render = cli.render
    cli.render = lambda result, fmt: tracer.span("cli.render_ms", render, result, fmt)
    code = cli.main(argv)
    tracer.uninstall()
    Path(out_path).write_text(json.dumps(tracer.export()))
    return code


if __name__ == "__main__":
    sys.exit(main())
