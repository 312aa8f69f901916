#!/usr/bin/env python
"""Tour of the virtual-GPU substrate: the paper's Section III on one page.

Walks through the optimization sequence exactly as the paper presents it:

1. the kin_prop kernel variants (Algorithms 1-5) with live timings;
2. BLASification of the nonlocal correction (naive loops vs two GEMMs);
3. persistent device residency via the OMPallocator-style DeviceArray
   (enter/exit data semantics), with the transfer ledger;
4. asynchronous (nowait) streams vs synchronous launches;
5. the shadow-dynamics traffic audit.

Run:  python examples/gpu_offload_tour.py
"""

import time

import numpy as np

from repro import VirtualGPU, WaveFunctionSet, kinetic_step
from repro.grids import Grid3D
from repro.lfd import nonlocal_correction_blas, nonlocal_correction_naive
from repro.lfd.costs import LFDWorkload


def main() -> None:
    grid = Grid3D.cubic(24, 0.5)
    rng = np.random.default_rng(0)
    wf = WaveFunctionSet.random(grid, 32, rng)

    # --- 1. Algorithms 1-5 ----------------------------------------------- #
    print("1) kin_prop optimization sequence (24^3 mesh, 32 orbitals):")
    base = None
    for variant in ("baseline", "interchange", "blocked", "collapsed", "gemm"):
        w = wf.copy()
        t0 = time.perf_counter()
        kinetic_step(w, 0.02, variant=variant)
        dt = time.perf_counter() - t0
        base = base or dt
        print(f"   {variant:12s} {dt * 1e3:9.2f} ms   {base / dt:6.2f}x")

    # --- 2. BLASification -------------------------------------------------- #
    print("\n2) nonlocal correction: naive loops vs BLAS-3 (Eq. 9):")
    ref = WaveFunctionSet.random(grid, 16, rng)
    for label, fn in (("naive loops", nonlocal_correction_naive),
                      ("BLAS-3 GEMMs", nonlocal_correction_blas)):
        w = wf.copy()
        t0 = time.perf_counter()
        fn(w, ref, 0.1, 0.02)
        print(f"   {label:12s} {(time.perf_counter() - t0) * 1e3:9.2f} ms")

    # --- 3. persistent device residency ------------------------------------ #
    print("\n3) OMPallocator-style device residency:")
    gpu = VirtualGPU()
    with gpu.array(wf.psi, pinned=True, tag="psi") as psi_dev:
        psi_dev.update_to_device()  # the one-time upload
        print(f"   uploaded {psi_dev.nbytes / 1e6:.1f} MB "
              f"({gpu.transfer.total_time() * 1e3:.2f} ms modeled, pinned)")
        print(f"   device allocation: {gpu.allocator.bytes_allocated / 1e6:.1f}"
              f" MB live, peak {gpu.allocator.peak_bytes / 1e6:.1f} MB")
    print(f"   after scope exit: {gpu.allocator.bytes_allocated} bytes live "
          f"(exit data map(delete))")

    # --- 4. async streams --------------------------------------------------- #
    print("\n4) nowait (async) vs synchronous launches, 9 kinetic passes:")
    w = LFDWorkload(ngrid=grid.npoints, norb=32, nunocc=16, nqd=1)
    cost = w.kin_prop_pass()
    for mode, nowait in (("sync", False), ("async", True)):
        g = VirtualGPU()
        for i in range(9):
            g.launch(f"pass{i}", cost.flops, cost.bytes_moved, itemsize=8,
                     nowait=nowait)
        g.synchronize()
        print(f"   {mode:6s} {g.elapsed * 1e6:9.1f} us modeled")

    # --- 5. shadow traffic --------------------------------------------------- #
    print("\n5) shadow-dynamics handshake at paper scale:")
    paper = LFDWorkload(ngrid=70 * 70 * 72, norb=64, nunocc=32, nqd=1000)
    hs = paper.shadow_handshake_bytes()
    print(f"   resident Psi: {paper.psi_bytes / 1e6:8.1f} MB")
    print(f"   handshake:    {hs / 1e3:8.1f} kB per MD step "
          f"({hs / paper.psi_bytes * 100:.3f}% of Psi)")


if __name__ == "__main__":
    main()
