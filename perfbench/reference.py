"""The benchmark's speed references: fixed work timed around every gated
sample, so that gated times can be given at the reference machine's speed.

The shared machine the benchmark was built on runs at two speeds that
switch every few seconds and can stay at the slow one for minutes (see
NOTES.md). A sample timed between two runs of a reference sees the same
speed, so the ratio of the two barely moves when the speed does.

Probes are timed against ``seconds()``: a greedy colouring of a fixed
random graph on 400 vertices with big-integer bit masks, pure Python like
the searches, about 17 ms. Set-ups are timed against
``interpreter_seconds()``: a fresh interpreter that imports numpy and
exits, the part of a set-up that is not permarray's, about 0.2 s. Neither
calls permarray code, so no change to the package moves them.
"""

from __future__ import annotations

import functools
import random
import statistics
import subprocess
import sys
import time

VERTICES = 400
PASSES = 12

# About the median times of ``seconds()`` and ``interpreter_seconds()`` on
# the reference machine (Python 3.11.7, numpy 2.4.6, 2 cores of a shared
# virtual machine); a calibrated time is its ratio to its reference times
# one of these, so that it reads as seconds there.
REFERENCE_S = 0.0166
INTERPRETER_S = 0.2


@functools.cache
def _graph() -> tuple[int, ...]:
    rng = random.Random(0)
    adjacency = [0] * VERTICES
    for i in range(VERTICES):
        for j in range(i):
            if rng.random() < 0.5:
                adjacency[i] |= 1 << j
                adjacency[j] |= 1 << i
    return tuple(adjacency)


def _colour(cand: int, adjacency: tuple[int, ...]) -> int:
    classes: list[int] = []
    while cand:
        low = cand & -cand
        neighbours = adjacency[low.bit_length() - 1]
        cand ^= low
        for i, cls in enumerate(classes):
            if not neighbours & cls:
                classes[i] = cls | low
                break
        else:
            classes.append(low)
    return len(classes)


def seconds() -> float:
    """Time one run of the reference computation."""
    adjacency = _graph()
    start = time.perf_counter()
    for k in range(PASSES):
        _colour(((1 << VERTICES) - 1) >> k, adjacency)
    return time.perf_counter() - start


def interpreter_seconds() -> float:
    """Time a fresh interpreter that imports numpy and exits."""
    start = time.perf_counter()
    # no timeout: with one, subprocess polls the child in steps of up to 50 ms
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)
    return time.perf_counter() - start


def calibrated(pairs, scale: float) -> float:
    """Median over (sample, reference) time pairs of sample / reference,
    times ``scale``: seconds at the reference machine's speed."""
    return statistics.median(sample / ref for sample, ref in pairs) * scale
