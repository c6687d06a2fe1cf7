"""The verification oracles, one by one.

Every closed form in the library is paired with an independent numerical
check: backward RK4 for the Riccati system, nested quadrature for the
conditional-expectation coefficients, finite differences for the HJB
residual, and common-random-number Monte Carlo for strategy quality.
"""

import numpy as np

from crosshedge import (
    BachelierCallExposure,
    ExpansionScale,
    Lambda1,
    ModelParams,
    call_payoff_curve,
    default_probe_grid,
    h2,
    lambda1,
    pde_residual,
    riccati_h_system,
    rk4_backward,
)
from crosshedge.oracles import nested_quadrature

params = ModelParams(mu=0.0, sigma=1.0, beta=0.0, eta=1.0, rho=0.5,
                     b=1e-2, c=1e-3, k=1e-3, gamma=2e-3, alpha=0.05, T=1.0)
exposure = BachelierCallExposure(n_options=100.0, strike=1.0, dt_offset=1e-5)
curve = call_payoff_curve(params, exposure)

print("== Riccati coefficient vs backward RK4 ==")
sol = rk4_backward(riccati_h_system(params, 1.0, step_count=10_000))
ts = np.linspace(0.0, params.T, 201)
err = max(abs(float(h2(params, t)) - sol(t)[2]) for t in ts)
print(f"sup |h2_closed - h2_RK4| = {err:.2e}\n")

print("== martingale-reduced coefficients vs nested quadrature ==")
for (t, u) in [(0.25, 0.8), (0.5, 1.0), (0.75, 1.4)]:
    a = float(lambda1(params, curve, t, u))
    c = float(Lambda1(params, curve, t, u))
    _, b, d = nested_quadrature(params, curve, t, u)
    print(f"  (t={t}, u={u}): |lambda1 diff| = {abs(a - b):.2e}, |Lambda1 diff| = {abs(c - d):.2e}")

print("\n== HJB residual of the first-order value expansion ==")
grid = default_probe_grid(params, exposure.strike)
rep = pde_residual(params, curve, ExpansionScale.from_params(params, 0.2), grid, thetas=[0.2, 0.1, 0.05])
for theta, norm in zip(rep.theta_values, rep.residual_norms):
    print(f"  theta = {theta:4.2f}: sup residual = {norm:.3e}")
print(f"  consecutive ratios: {[f'{r:.2f}' for r in rep.ratios]} (a second-order truncation halves")
print("  theta into a quarter of the residual)")
