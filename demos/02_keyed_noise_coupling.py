"""Keyed perturbation streams: replayable, order-free, couplable noise.

Every draw is addressed by (phase, iteration, time, member, kind) under a
root seed.  There is no hidden generator state: the same key gives the
same vector no matter when you ask, which is what lets two different
algorithms consume literally identical noise and be compared member by
member.
"""

import numpy as np

from ensvar import DrawKey, NoiseKind, PerturbationStream, Phase, enks_run, make_toy_problem, reference_enks_run

stream = PerturbationStream(seed=2024)

key = DrawKey(Phase.SMOOTHER, 0, 1, 0, NoiseKind.MODEL)
first = stream.draw(key, 3)
print("draw for", tuple(key), "->", np.array2string(first, precision=4))

# Consume a pile of other keys in between; the original is unchanged.
for member in range(1000):
    stream.draw(DrawKey(Phase.SMOOTHER, 0, 1, member, NoiseKind.OBS), 3)
again = stream.draw(key, 3)
print("same key later     ->", np.array2string(again, precision=4))
print("bit-identical:", np.array_equal(first, again))

# Two independent stream objects with the same seed agree too: the draw
# is a pure function of (seed, key).
other = PerturbationStream(seed=2024)
print("fresh stream agrees:", np.array_equal(first, other.draw(key, 3)))

# Batched member draws are just the per-key draws, stacked.
block = stream.draw_members(Phase.SMOOTHER, 0, 1, NoiseKind.MODEL, [0, 1, 2], 3)
print("\nbatched rows equal scalar draws:",
      all(np.array_equal(block[m], stream.draw(DrawKey(Phase.SMOOTHER, 0, 1, m, NoiseKind.MODEL), 3))
          for m in range(3)))

# Coupled runs are audited by comparing their draws.  The EnKS and its
# exact-covariance reference draw the same keys, so both start from the
# identical initial ensemble; what differs at the end is the gain alone.
problem = make_toy_problem("linear-chain", m=2, k=3, seed=11)
enks = enks_run(problem, 50, PerturbationStream(seed=2024))
reference = reference_enks_run(problem, 50, PerturbationStream(seed=2024))
print("\nEnKS and reference start from the same draws:",
      np.array_equal(enks.analysis_ensembles[0], reference.analysis_ensembles[0]))
gap = enks.analysis_ensembles[-1][0] - reference.analysis_ensembles[-1][0]
print("member-1 gap at the end:", np.array2string(gap, precision=4))
