"""Host-speed probe: a fixed piece of CPU work, timed between fleets.

On a shared host the CPU speed a process gets can swing by half for
seconds to minutes at a time (other tenants load the same cores), and
a 30-second window can sit wholly in a fast or a slow stretch.  Such a
swing slows the probe as it slows the program, so a CPU-bound figure
divided by the probe time measured right after it, times
:data:`REFERENCE_S`, reads in seconds of a reference host on which the
probe takes :data:`REFERENCE_S`.  On a 2-vCPU shared VM it brought the
spread of ten 30-second ``batch_sampling`` runs (quartile distance over
median of ``runs_per_s``) from about 0.3 down to about 0.06.

The probe does the kinds of work the program spends its time on:
pretty-printed JSON encoding, many NumPy reductions over small arrays
and sorting dataclass instances.  Probes of other kinds (a pure-integer
loop, large-array NumPy work) tracked the program's slow stretches
less well.  The probe runs between fleets, never during one, and the
program takes no part in it.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from time import perf_counter

import numpy as np

#: probe seconds on the reference host the scaled figures refer to
REFERENCE_S = 0.040


@dataclass(frozen=True, order=True)
class _Item:
    key: float
    index: int


def _reference_work() -> float:
    rng = random.Random(7)
    doc = {"cells": [{"name": f"c{i}",
                      "rtt": [rng.random() for _ in range(20)],
                      "load": {"a": rng.random(), "b": i}}
                     for i in range(150)]}
    text = json.dumps(doc, indent=1, sort_keys=True)
    total = float(len(text))
    for row in np.random.default_rng(7).normal(size=(600, 40)):
        total += (float(row.var()) + float(row.mean())
                  + float(np.clip(row, -1.0, 1.0).sum()))
    items = sorted(_Item(rng.random(), i) for i in range(6000))
    return total + items[0].key


def probe_s() -> float:
    """Seconds the reference work takes now."""
    started = perf_counter()
    _reference_work()
    return perf_counter() - started


def scale(probe: float) -> float:
    """Factor that turns seconds measured next to ``probe`` into
    reference-host seconds."""
    return REFERENCE_S / probe
