"""Collapse of the collision-kernel generator onto its quadratic limit.

The full generator integrates momentum-kick jump operators e^{iqx} over the
gas momentum transfer distribution.  When the accessible momentum transfer
is small compared to the width of the state, each kick barely displaces the
system and the generator is indistinguishable from the quadratic one built
from the matched diffusion coefficient.  Shrinking the integration support
makes the two act identically, which is a strong cross-check: the jump
integral and the double-commutator form are compiled independently and
share only the kernel that applies the compiled Lindblad form.
"""

import numpy as np

from qbmlab import (
    BOLTZMANN_COLLISION,
    MINIMAL_QBM,
    BilinearCoefficients,
    CollisionParameters,
    HilbertConfig,
    LiouvillianSpec,
    TMatrixModel,
    build_liouvillian,
    collision_dpp,
    radial_grid,
    thermal_state,
)

cfg = HilbertConfig(dim=12)
rho = thermal_state(cfg, 0.4)
tmat = TMatrixModel(kind="gaussian", t0=0.05, sigma_q=1.0)

print("q_max      matched d_pp      max |L_coll - L_quad| / max |L_quad|")
for q_max in (2.0, 1.0, 0.5, 0.25):
    nodes, weights = radial_grid(q_max, 80)
    params = CollisionParameters(
        gas_mass=1.0, beta=2.0, fugacity_z=0.8, tmatrix=tmat,
        q_nodes=nodes, q_weights=weights, q_max=q_max)
    d_pp = collision_dpp(params, cfg.hbar)

    collision = build_liouvillian(cfg, LiouvillianSpec(
        kind=BOLTZMANN_COLLISION, collision=params))
    quadratic = build_liouvillian(cfg, LiouvillianSpec(
        kind=MINIMAL_QBM, beta=2.0,
        coeffs=BilinearCoefficients(d_pp=d_pp, fugacity_z=0.8)))

    ref = quadratic.apply(rho)
    diff = np.abs(collision.apply(rho) - ref).max() / np.abs(ref).max()
    print("%-8.2f   %.6e      %.3e" % (q_max, d_pp, diff))

print()
print("the discrepancy falls roughly like q_max^2, the size of the first")
print("correction beyond the quadratic expansion of e^{iqx}.")
