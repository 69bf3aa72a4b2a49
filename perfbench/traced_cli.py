"""Run the sgdlab CLI with a span around every sgdlab function it calls.

usage: python3 perfbench/traced_cli.py SPANS_JSON RUN_ID -- <sgdlab args>

Span times are time.monotonic() (CLOCK_MONOTONIC, one clock for every
process on the host), so they line up with the parent's wall time.  Spans
are kept in memory and written to SPANS_JSON when the CLI returns.
Nothing under src/ changes: the wrappers replace the names bound in the
sgdlab.cli namespace, plus a counter on RngStream.generator.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
import time

# sgdlab.cli's own functions that get a span; every function it imports from
# another sgdlab module gets one too (layer = that module).
CLI_SPANS = ("validate_config", "build_objective", "build_oracle", "run_experiment")


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._lock = threading.Lock()
        self.streams_opened = 0

    def call(self, name: str, layer: str, fn, args=(), kwargs=None, attrs=None):
        kwargs = kwargs or {}
        span = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
            "name": name,
            "layer": layer,
            "attrs": attrs or {},
            "error": None,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        span["start"] = time.monotonic()
        try:
            return fn(*args, **kwargs)
        except Exception as err:
            span["error"] = type(err).__name__
            step = getattr(err, "step", None)
            if isinstance(step, int):
                span["attrs"]["error_step"] = step
            raise
        finally:
            span["end"] = time.monotonic()
            self._stack.pop()

    def wrap(self, fn, layer: str):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = _attrs(sig.bind(*args, **kwargs).arguments)
            return self.call(fn.__name__, layer, fn, args, kwargs, attrs)

        return traced

    def count_stream(self) -> None:
        with self._lock:
            self.streams_opened += 1


def _attrs(arguments: dict) -> dict:
    """The numeric arguments a layer metric needs to count its work."""
    out = {}
    for key, value in arguments.items():
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            out[key] = value
        elif isinstance(getattr(value, "count", None), int):
            out[key + ".count"] = value.count
        elif hasattr(value, "alpha") and hasattr(value, "gamma") and value.alpha < 1:
            out[key + ".gamma_alpha"] = value.gamma_alpha
    return out


def instrument(tracer: Tracer, cli, core) -> None:
    for name, obj in list(vars(cli).items()):
        if not inspect.isfunction(obj) or not obj.__module__.startswith("sgdlab."):
            continue
        layer = obj.__module__.split(".", 1)[1]
        if layer != "cli" or name in CLI_SPANS:
            setattr(cli, name, tracer.wrap(obj, layer))
    generator = core.RngStream.generator

    def counted_generator(stream):
        tracer.count_stream()
        return generator(stream)

    core.RngStream.generator = counted_generator


def main(argv: list[str]) -> int:
    spans_path, run_id, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: traced_cli.py SPANS_JSON RUN_ID -- <sgdlab args>")
    tracer = Tracer(run_id)
    rc = 1
    try:
        cli = tracer.call("import sgdlab.cli", "cli", _import_cli)
        import sgdlab.core as core

        instrument(tracer, cli, core)
        rc = tracer.call("main", "cli", cli.main, (cli_args,))
    finally:
        with open(spans_path, "w") as fh:
            json.dump({"streams_opened": tracer.streams_opened, "spans": tracer.spans}, fh)
    return rc


def _import_cli():
    import sgdlab.cli

    return sgdlab.cli


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
