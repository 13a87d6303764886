"""Solve the covert design problem across a grid of covertness budgets.

For each budget epsilon we find the largest data power that keeps the
adversary's expected total error above 1 - epsilon, jointly with the best
number of data symbols.  Two findings worth noticing in the output:

* over this scenario's n_d range 50..100 both solvers pick the minimum
  allowed number of data symbols (spreading the same energy over more
  symbols only helps the detector); over a wider range the optimum can be
  interior (at epsilon 0.2 over 1..400, n_d 28 exact and 24 closed-form), and
* forcing the maximum blocklength instead costs two orders of magnitude in
  throughput.
"""

import numpy as np

from covertfade.optimizer import solve_p1, solve_p1_1
from covertfade.params import SystemParams


def problem(epsilon):
    return SystemParams(
        sigma_b2=0.01, sigma_w2=0.05, rate=1.0, p_max=1.0, n_t=1, p_t=1.0,
        n_d_min=50, n_d_max=100, epsilon=epsilon,
    )


print(f"{'epsilon':>8}  {'p_d*':>12}  {'n_d*':>5}  {'throughput':>12}  "
      f"{'sub/exact':>9}  {'vs n_d=100':>10}")
for eps in np.linspace(0.01, 0.2, 8):
    prob = problem(float(eps))
    exact = solve_p1(prob)
    sub = solve_p1_1(prob)
    forced = solve_p1(prob, force_nd=100)
    print(f"{eps:8.4f}  {exact.p_d_star:12.4e}  {exact.n_d_star:5d}  "
          f"{exact.throughput:12.4e}  {sub.throughput / exact.throughput:9.3f}  "
          f"{exact.throughput / forced.throughput:9.1f}x")
