"""Run one citefair command in a fresh interpreter, optionally traced.

    python3 perfbench/stage.py SRC_DIR [--spans FILE] [--skip-layer L]
                               [--exit-zero] -- COMMAND ARGS...

Imports ``citefair.cli`` from SRC_DIR and calls ``main(argv)``; the exit
code is main's return value.  ``cli.py`` has no ``__main__`` guard, so
``python -m citefair.cli`` would exit 0 without doing anything.

With ``--spans`` every public function of the traced layers is wrapped in
every citefair module namespace that binds it (``citefair.ingest.validate``
is bound from ``model``, ``hypergeom_pmf`` is reached through ``stats``
globals).  Spans (name, start, end, parent) are kept in memory and written
to FILE as JSON when the command returns.  ``--skip-layer`` and
``--exit-zero`` plant faults for the benchmark's self-test.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
import time
from pathlib import Path

# `errors` defines only exception types and does no work.
LAYERS = ("model", "ingest", "indicators", "stats", "fairness", "synth", "cli")
# Functions whose first argument is an input file; its size is recorded.
READERS = {"ingest.parse_journals", "ingest.parse_publications",
           "ingest.parse_citations", "indicators.read_table"}


class Tracer:
    """Collects [name, start, end, parent, path, bytes] spans in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        reader = name in READERS

        def traced(*args, **kwargs):
            path = size = None
            if reader and args:
                path = str(args[0])
                try:
                    size = os.path.getsize(path)
                except OSError:
                    size = 0
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, path, size]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return traced

    def install(self, skip: str | None = None) -> None:
        """Wrap the layers' public functions wherever they are bound."""
        wrappers = {}
        for layer in LAYERS:
            if layer == skip:
                continue
            module = sys.modules[f"citefair.{layer}"]
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    wrappers[obj] = self.wrap(f"{layer}.{attr}", obj)
        namespaces = [m for name, m in list(sys.modules.items())
                      if name == "citefair" or name.startswith("citefair.")]
        for namespace in namespaces:
            for attr, obj in list(vars(namespace).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(namespace, attr, wrappers[obj])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src")
    parser.add_argument("--spans", default=None)
    parser.add_argument("--skip-layer", default=None, choices=LAYERS)
    parser.add_argument("--exit-zero", action="store_true")
    own, argv = sys.argv[1:], []
    if "--" in own:
        own, argv = own[:own.index("--")], own[own.index("--") + 1:]
    args = parser.parse_args(own)

    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import citefair.cli
    import_s = time.perf_counter() - start
    if not Path(citefair.cli.__file__).resolve().is_relative_to(src):
        print(f"citefair was imported from {citefair.cli.__file__}, not {src}",
              file=sys.stderr)
        return 3

    tracer = None
    if args.spans:
        tracer = Tracer()
        tracer.install(skip=args.skip_layer)
    rc = citefair.cli.main(argv)
    if tracer is not None:
        Path(args.spans).write_text(json.dumps(
            {"import_s": import_s, "rc": rc, "spans": tracer.spans}), encoding="utf-8")
    return 0 if args.exit_zero else rc


if __name__ == "__main__":
    sys.exit(main())
