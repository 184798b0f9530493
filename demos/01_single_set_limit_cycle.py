#!/usr/bin/env python3
"""One set of Reno flows behind a small Drop-Tail buffer.

We solve the equilibrium window, compute the intrinsic frequency of the
limit cycle the linearised model predicts, and then integrate the full
nonlinear delayed fluid model on both sides of the stability boundary:
a stable operating point rings down to the equilibrium, an unstable one
settles onto a sustained oscillation whose frequency matches the linear
prediction to within a few percent.
"""

import numpy as np

from tcpsync.dde_sim import DdeConfig, estimate_limit_cycle, simulate_fluid_single
from tcpsync.equilibrium import solve_single
from tcpsync.linear_analysis import critical_delay, delay_coefficients, intrinsic_frequency
from tcpsync.loss_models import SMALL_BUFFER, NetworkParams
from tcpsync.protocols import ProtocolSpec

spec = ProtocolSpec.reno()
tau = 0.1  # 100 ms round-trip
b = 15.0   # edge buffer, packets

print(f"Reno, tau={tau*1e3:.0f} ms, buffer={b:.0f} pkts")
print(f"{'c_prime':>8} {'w*':>8} {'p*':>9} {'omega':>8} {'stable':>7}")

traces = {}
for c_prime in (250.0, 107.0):  # pkts/s per flow: calm vs past the boundary
    net = NetworkParams(c_prime=c_prime, tau=tau, b=b)
    eq = solve_single(spec, SMALL_BUFFER, net)
    omega = intrinsic_frequency(spec, SMALL_BUFFER, net, eq)
    a, c = delay_coefficients(spec, SMALL_BUFFER, net, eq)
    stable = critical_delay(a, c) is None or tau < critical_delay(a, c)
    print(f"{c_prime:8.1f} {eq.w_star:8.3f} {eq.p_edge_star:9.5f} "
          f"{omega:8.3f} {str(stable):>7}")

    tr = simulate_fluid_single(
        spec, SMALL_BUFFER, net, DdeConfig(horizon=60.0, kick=1.05)
    )
    traces[c_prime] = tr
    if stable:
        drift = np.abs(tr.channel("w") - eq.w_star)
        print(f"  perturbation decays: final |w-w*| = {drift[-1]:.2e} pkts")
    else:
        est = estimate_limit_cycle(tr, "w")
        print(f"  sustained cycle: amplitude {est['amplitude']:.3f} pkts, "
              f"frequency {est['frequency']:.3f} rad/s "
              f"(linear prediction {omega:.3f})")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, axes = plt.subplots(2, 1, figsize=(9, 6), sharex=True)
    for ax, (cp, tr) in zip(axes, traces.items()):
        ax.plot(tr.t, tr.channel("w"), lw=0.8)
        ax.set_ylabel("window (pkts)")
        ax.set_title(f"c' = {cp:.0f} pkts/s")
    axes[-1].set_xlabel("time (s)")
    fig.tight_layout()
    fig.savefig("demo01_limit_cycle.png", dpi=120)
    print("wrote demo01_limit_cycle.png")
except ImportError:
    pass
