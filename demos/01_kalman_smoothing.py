"""Filtering and smoothing on the scalar warm-up problem.

The system: a standard-normal background on x_0, one identity model step
with unit noise, and one direct observation y_1 = 3 with unit noise.
Small enough to solve by hand, which makes it a good first contact with
the API:

* the filter combines forecast N(0, 2) with the observation to get
  N(2, 2/3) at time 1;
* the smoother estimates the whole trajectory (x_0, x_1) jointly and
  also pulls x_0 toward the evidence, giving mean (1, 2);
* the block least-squares oracle solves the same smoothing problem by
  assembling its normal equations directly, a completely separate route
  to the same numbers.
"""

import numpy as np

from ensvar import kf_run, ks_least_squares_oracle, ks_run, make_toy_problem

problem = make_toy_problem("w1-linear")

flt = kf_run(problem)
print("Kalman filter")
for i, est in enumerate(flt.estimates):
    print(f"  time {i}: mean {est.mean[0]:+.6f}, variance {est.covariance[0, 0]:.6f}")

smo = ks_run(problem)
print("\nKalman smoother (composite state x_0:1)")
print(f"  mean:       {np.array2string(smo.estimate.mean, precision=6)}")
print(f"  covariance:\n{np.array2string(smo.estimate.covariance, precision=6, prefix='  ')}")

oracle = ks_least_squares_oracle(problem)
print("\nBlock least-squares oracle (independent route)")
print(f"  mean:       {np.array2string(oracle, precision=6)}")
print(f"  agreement:  {np.linalg.norm(smo.estimate.mean - oracle):.2e}")
