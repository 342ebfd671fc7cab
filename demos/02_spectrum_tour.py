"""The divergence transition matrix of a ternary channel, its singular
system, and what each piece means.

The channel nests two binary symmetric stages: symbol 1 against the
merged pair {2,3} (crossover 1/2 - eta), and 2 against 3 inside the pair
(crossover 1/2 - gamma).  At the operating point [1/2, 1/4, 1/4] the
spectrum comes out in closed form: 1, 2*eta, (1+2*eta)*gamma.
"""

import numpy as np

from infocoupling import (
    ace_correlation,
    build_dtm,
    instances,
    renyi_correlation,
    strong_dpi_coefficient,
    verify_top_singular,
)

ETA, GAMMA = 0.2, 0.1
w = instances.nested_ternary_channel(ETA, GAMMA)
px = instances.nested_ternary_operating_point()
dtm = build_dtm(w, px)

print("singular values:", dtm.singular_values.round(12))
print("closed form:    ", [1.0, 2 * ETA, (1 + 2 * ETA) * GAMMA])
for i in range(3):
    print(f"  v{i} =", dtm.right_vector(i).round(6))

top = verify_top_singular(dtm)
print(
    f"\ntop triple (1, sqrt(P_X), sqrt(P_Y)) is a singular triple of B: "
    f"|w0'B v0 - 1| = {top.sigma0_err:.1e}, ||B'w0 - v0|| = {top.v0_err:.1e}"
)

print(
    f"\ncontraction coefficient sigma1^2 = {strong_dpi_coefficient(dtm):.6f}: "
    "no local coupling pushes more than that fraction of its input "
    "information through the channel."
)

corr = renyi_correlation(dtm)
rho_ace = ace_correlation(instances.joint_from_channel(w, px))
print(
    f"\nmaximal correlation: spectrum says {corr.rho:.10f}, "
    f"alternating conditional expectations say {rho_ace:.10f}"
)
cond = w.entries.T @ corr.g
print(
    "fixed point residual ||E[g(Y)|X] - rho f(X)|| =",
    f"{np.max(np.abs(cond - corr.rho * corr.f)):.2e}",
)
