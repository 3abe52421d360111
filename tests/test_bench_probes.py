"""The benchmark's tracer still finds every boundary it probes in the package.

A probed name the package no longer defines is skipped by the tracer and its
per-layer metric reads 0, so a refactor that drops one must fail here.
"""
import importlib
from pathlib import Path

import rbto
import rbto.cli  # noqa: F401  (loads every module the probes name)

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_probed_name_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    with tracing.install(tracing.probes(rbto)) as tracer:
        pass
    assert tracer.missing == []
