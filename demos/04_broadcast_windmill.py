"""Common messages to three receivers: a single direction cannot serve
everyone, an ensemble can.

Each receiver of the windmill channel projects input perturbations onto
one line in the valid plane, the three lines 120 degrees apart.  Any one
direction leaves some receiver with at most a quarter of the single-user
coupling; a uniform three-direction ensemble (or, equivalently, coding
over two letters) lifts the worst receiver to one half.
"""

import numpy as np

from infocoupling import (
    SearchBudget,
    brute_broadcast,
    build_dtm,
    instances,
    solve_broadcast,
    solve_broadcast_single_direction,
    split_rate_region,
)

DELTA = 0.1
px = instances.windmill_operating_point()
dtms = [build_dtm(w, px) for w in instances.windmill_channels(DELTA)]
sigma_sq = dtms[0].second_singular_value ** 2
print(f"per-receiver coupling coefficient sigma1^2 = {sigma_sq:.6f}")

sol = solve_broadcast(dtms)
print(f"\nbest ensemble value      : {sol.value:.6f}  (= sigma1^2 / 2)")
print(f"dual weights             : {sol.dual_weights.round(6)}")
print(f"duality gap              : {sol.gap:.1e}")
print(f"ensemble cardinality     : {sol.cardinality} (antipodal pairs)")
print(f"per-receiver values      : {sol.system_values.round(8)}")

sd = solve_broadcast_single_direction(dtms)
print(f"\nbest single direction    : {sd.value:.6f}  (= sigma1^2 / 4)")
print(f"optimality gap           : {sd.optimality_gap:.1e}  (exact on a 2-D plane)")
print(f"ensemble advantage       : {sol.value - sd.value:.6f}")

est = brute_broadcast(dtms, SearchBudget(grid_resolution=180))
print(f"\nexact Gram-disk oracle   : {est.lambda_estimate:.6f}")
print("oracle angles (deg)      :", [round(float(np.degrees(a)), 1) for a in est.angles])
print("oracle weights           :", [round(w, 6) for w in est.weights])

print("\nsplitting a small budget eps^2 = 1e-4 between common and private:")
for split in [(1e-4, 0.0, 0.0), (0.5e-4, 0.25e-4, 0.25e-4), (0.0, 0.5e-4, 0.5e-4)]:
    (r0, r1, r2), = split_rate_region(dtms[0], dtms[1], [split])
    print(f"  split {split} -> rates ({r0:.3e}, {r1:.3e}, {r2:.3e}) nats")
