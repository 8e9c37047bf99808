"""Run one elastishape CLI command with every package module traced.

Usage: python bench/traced_cli.py SUMMARY.json -- <elastishape arguments>

Installs the tracer around the public functions of every module of the
package, runs the command in this process, and writes the tracer
summary plus the command's exit code to SUMMARY.json.  The exit code of
this process is the command's.
"""

from __future__ import annotations

import importlib
import json
import pkgutil
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from layers import KEEP_DURATIONS, LayerHooks  # noqa: E402
from tracer import Tracer  # noqa: E402


def package_modules() -> list:
    """The elastishape package and each of its submodules, imported."""
    import elastishape

    mods = [elastishape]
    for info in pkgutil.iter_modules(elastishape.__path__):
        mods.append(importlib.import_module(f"elastishape.{info.name}"))
    return mods


def main(argv: list) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: traced_cli.py SUMMARY.json -- ARGS...", file=sys.stderr)
        return 2
    out, cli_args = Path(argv[0]), argv[2:]
    modules = package_modules()
    cli = next(m for m in modules if m.__name__ == "elastishape.cli")
    tracer = Tracer(modules, LayerHooks().hooks(), KEEP_DURATIONS)
    start = time.perf_counter()
    with tracer:
        code = cli.main(cli_args)
    summary = tracer.summary()
    summary["wall_s"] = time.perf_counter() - start
    summary["exit"] = code
    out.write_text(json.dumps(summary))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
