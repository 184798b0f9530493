#!/usr/bin/env python3
"""Locked states of two coupled TCP limit-cycle oscillators.

Two sets of flows with slightly different intrinsic frequencies interact
through the shared core queue.  Sweeping the coupling strength shows the
three regimes: below the critical coupling no locked state exists; inside
the window a stable lock appears whose phase difference shrinks as the
coupling grows; and for very large coupling the locked frequency forgets
the intrinsic frequencies entirely and approaches pi/tau.
"""

import math

import numpy as np

from tcpsync.loss_models import INTERMEDIATE
from tcpsync.sync_solver import SyncProblem, coupling_range, solve_sync

omega1, omega2 = 50.0, 53.0
tau = 0.1

problem = SyncProblem(omega1, omega2, 0.0, tau, INTERMEDIATE)
k_c, k_u = coupling_range(problem, np.linspace(0.05, 40.0, 80))
print(f"intrinsic frequencies: {omega1} and {omega2} rad/s, tau = {tau} s")
print(f"critical coupling K_c = {k_c:.4f} 1/s"
      + ("" if k_u is None else f", stability lost at K_u = {k_u:.4f}"))
if k_u is None:
    print("no upper stability edge inside the sweep (reported as open)")

print(f"\n{'K':>8} {'Omega':>9} {'phi0':>9} {'r':>7}  stable roots")
for k in sorted((0.5 * k_c, 1.2 * k_c, 3.0, 8.0, 20.0, 40.0)):
    states = solve_sync(
        SyncProblem(omega1, omega2, float(k), tau, INTERMEDIATE)
    )
    stable = [st for st in states if st.stable]
    if not stable:
        print(f"{k:8.3f} {'-':>9} {'-':>9} {'-':>7}  none ({len(states)} unstable)")
        continue
    st = min(stable, key=lambda s: abs(s.phi0))
    print(f"{k:8.3f} {st.Omega:9.4f} {st.phi0:9.5f} {st.order_r:7.4f}  "
          f"{len(stable)} of {len(states)}")

print(f"\nlarge-coupling limit: pi/tau = {math.pi / tau:.4f} rad/s")
