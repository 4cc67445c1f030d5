"""Reference kernel and host-speed rescaling.

The host this benchmark runs on shares its cores with other machines'
work, and its speed drifts by tens of percent between and within
processes.  Process CPU time drifts with wall time, so it cannot
separate the program's speed from the host's.  Instead every timed
stretch is bracketed by two timings of a fixed reference kernel, and
the stretch is rescaled to a nominal host on which the kernel takes
``NOMINAL_REF_S``:

    rescaled = raw * NOMINAL_REF_S / mean(ref_before, ref_after)

The kernel mixes the kinds of work the program does: pure-Python
sorting of tuples and floats, dict building, small-array NumPy
arithmetic, and gathers over more data than a core's 2 MB L2 holds, so
they run from the L3 cache that neighbours share (the enumeration
oracle's index arrays are of that size, and neighbours slow it more
than cache-resident work).  It imports
nothing from ``pubgame``, so no change to the program moves it.
"""

from __future__ import annotations

import gc
import random
import time

import numpy as np

# median raw kernel time on the host the bounds were set on
# (2 vCPUs, Python 3.11.7, NumPy 2.4.6)
NOMINAL_REF_S = 0.030

_N_KEYS = 10000
_N_ARRAY = 400
_ARRAY_REPS = 1250
_N_GATHER = 1 << 19
_GATHERS = 4


def gather_arrays() -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(20240101)
    return rng.random(_N_GATHER), rng.permutation(_N_GATHER)


def reference_kernel(values_big: np.ndarray, order_big: np.ndarray) -> float:
    """Run the fixed kernel once and return a checksum of its work."""
    rng = random.Random(20240101)
    values = [rng.random() for _ in range(_N_KEYS)]
    keyed = sorted(range(_N_KEYS), key=lambda i: (-values[i], i))
    index = {i: values[i] for i in keyed[: _N_KEYS // 2]}
    total = sum(index.values())
    arr = np.asarray(values[:_N_ARRAY])
    taken = np.zeros(_N_ARRAY, dtype=bool)
    acc = 0.0
    for rep in range(_ARRAY_REPS):
        scores = (acc + arr) * (1.0 + arr)
        scores[taken] = -1.0
        j = int(np.argmax(scores))
        taken[j] = rep % 3 != 0
        acc += float(arr[j]) * 1e-3
    for _ in range(_GATHERS):
        acc += float(values_big[order_big].sum()) * 1e-9
    return total + acc


class HostClock:
    """Times the reference kernel and turns raw seconds into nominal
    seconds."""

    def __init__(self) -> None:
        self.ref_samples: list[float] = []
        self._gather = gather_arrays()

    def ref(self) -> float:
        # the collector stays off so the kernel's time does not depend on
        # how many objects the program left alive
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            reference_kernel(*self._gather)
            elapsed = time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()
        self.ref_samples.append(elapsed)
        return elapsed

    @staticmethod
    def rescale(raw_s: float, ref_before: float, ref_after: float) -> float:
        return raw_s * NOMINAL_REF_S / ((ref_before + ref_after) / 2.0)
