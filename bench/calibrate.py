"""A fixed kernel that tells how fast the machine runs at this moment.

On a 2-vCPU KVM guest (Intel Xeon, 2.0 GHz), the same code ran 1.3-2x
slower for tens of seconds at a time, with no steal time to account for it.
The slowdown hit every kernel at once, so the worker times this kernel right
before each repetition. It then rescales the repetition to the speed at
which the kernel takes ``REFERENCE_S`` seconds (about its time on that
guest). The kernel mixes what the workloads do: 2D FFTs, an index gather
plus a ``bincount`` scatter, and plain Python bytecode. It uses numpy only
and none of reconkit, so a change to reconkit cannot move it.
"""

from __future__ import annotations

import numpy as np

REFERENCE_S = 0.2


class Calibrator:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._image = rng.random((128, 128))
        # radon-sized tables (about 8 MB), so memory contention shows too
        self._index = rng.integers(0, 64 * 64, size=(4, 30 * 64 * 92)).astype(np.int32)
        self._weight = rng.random((4, 30 * 64 * 92))
        self._flat = rng.random(64 * 64)

    def run(self) -> None:
        for _ in range(200):
            np.fft.ifft2(np.fft.fft2(self._image))
        for _ in range(8):
            np.einsum("ck,ck->k", self._weight, self._flat[self._index])
            np.bincount(self._index.ravel(), weights=self._weight.ravel(), minlength=64 * 64)
        total = 0
        for i in range(400_000):
            total += i * i
