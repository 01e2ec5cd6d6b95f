"""Host-speed reference: fixed work timed next to every measured interval.

The benchmark was built on a 2-core VM that shares its physical host.  Load
from outside the VM changes the speed of both wall and CPU time inside it,
with no steal time to show for it: in five 25-second runs of ``ensemble_c6``
the median operation took 0.34 to 0.56 s, and within one run operation
times moved by as much.  No run length averages that away.

So each timed interval is paired with a reference: a fixed computation
that calls no collapsesim code, timed right before and right after the
interval.  ``Reference.scale`` turns the two reference times into the
factor that brings the interval to the host speed at which the reference
took ``NOMINAL_S[kind]``.  A change to the program moves the interval and
never the reference, so it shows in the scaled time in full.

There are three kinds, one for each kind of cost in the workloads:

- ``interp``: Python arithmetic and numpy calls on 2x2 arrays, with a
  random draw per call, like the per-step overhead of a small model;
- ``blas``: products of 256x256 complex matrices, like the dense
  commutator of a large model;
- ``stream``: a sum over a 256 MB array, far beyond the caches, like the
  matvecs and records of a large pure state.  The array lives in a helper
  process (``python3 hostspeed.py stream``), so that it does not count in
  the measuring process's peak memory.

A kind tracks its own workloads best.  With references of these kinds,
over stretches of 150 to 200 seconds cut into 20- or 25-second windows,
the quartile spread of the windows' median operation time was 0.29
unscaled and 0.02 scaled for ``ensemble_c6`` (``interp``), 0.20 and 0.05
for ``dense3d`` (``blas``), and 0.07 and 0.02 for ``pure2p`` (``stream``).
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

# Typical reference times on the VM the bounds were set on: 2 vCPUs of an
# Intel Xeon (Sapphire Rapids) KVM guest, numpy with OpenBLAS on 1 thread.
NOMINAL_S = {"interp": 0.0090, "blas": 0.0095, "stream": 0.0380}

INTERP_CALLS = 1000
BLAS_PRODUCTS = 3
STREAM_VALUES = 16_000_000  # complex128: 256 MB


class Reference:
    def __init__(self, kind: str):
        rng = np.random.default_rng(0)
        small = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        self.small = small / np.linalg.norm(small, 2)  # keeps the iteration bounded
        self.big = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
        self.nominal = NOMINAL_S[kind]
        self._helper = None
        if kind == "stream":
            self._helper = subprocess.Popen([sys.executable, __file__, kind], text=True,
                                            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        else:
            self._work = {"interp": self._interp, "blas": self._blas}[kind]

    def _interp(self):
        a, x = self.small, self.small.copy()
        rng = np.random.default_rng(1)
        for _ in range(INTERP_CALLS):
            x = (x @ a) * 0.5 + a + rng.standard_normal(2).sum()
        return x

    def _blas(self):
        for _ in range(BLAS_PRODUCTS):
            x = self.big @ self.big
        return x

    def time(self) -> float:
        if self._helper is not None:
            self._helper.stdin.write("\n")
            self._helper.stdin.flush()
            return float(self._helper.stdout.readline())
        t0 = time.perf_counter()
        self._work()
        return time.perf_counter() - t0

    def close(self) -> None:
        """Stop the helper process, if any, and wait until it has ended."""
        if self._helper is not None:
            self._helper.stdin.close()
            try:
                self._helper.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self._helper.kill()
                self._helper.wait()
            self._helper.stdout.close()

    def scale(self, before: float, after: float) -> float:
        """Factor from host-speed-dependent seconds to nominal seconds."""
        return self.nominal / (0.5 * (before + after))


def stream_helper() -> None:
    """Time one pass over the array for every line read from stdin."""
    values = np.ones(STREAM_VALUES, dtype=np.complex128)
    for _ in sys.stdin:
        t0 = time.perf_counter()
        values.sum()
        print(time.perf_counter() - t0, flush=True)


if __name__ == "__main__":
    stream_helper()
