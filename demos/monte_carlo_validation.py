"""Cross-check the closed-form error and outage expressions by simulation.

Runs seeded Monte Carlo slots (pilot transmission, channel estimation, data
transmission, radiometer decision) and compares the empirical false alarm,
missed detection, and covert connection probability against the analytic
values, reporting the deviation in standard errors.
"""

from covertfade import link, simulation
from covertfade.link import LinkParams
from covertfade.params import SystemParams

params = SystemParams(p_d=0.02, n_d=50)
mc = simulation.McConfig(trials=300_000, seed=777,
                         threshold_policy="fixed",
                         fixed_threshold=params.sigma_w2)

est = simulation.estimate_detection(params, mc)
fa, md, zeta = simulation.analytic_detection(params, mc)

lp = LinkParams(sigma_b2=params.sigma_b2, rate=params.rate, n_t=params.n_t,
                p_t=params.p_t, p_d=params.p_d, n_d=params.n_d)
pcc = link.covert_connection_prob(lp, link.estimation_model(lp))
pcc_est = simulation.estimate_pcc(params, mc)

rows = [
    ("p_fa", est.p_fa, fa, est.se_fa),
    ("p_md", est.p_md, md, est.se_md),
    ("zeta", est.zeta, zeta, est.se_zeta),
    ("p_cc", pcc_est.p_cc, pcc, pcc_est.se),
]
print(f"# trials = {mc.trials}, seed = {mc.seed}, p_d = {params.p_d}, "
      f"n_d = {params.n_d}")
print(f"{'metric':>6}  {'empirical':>10}  {'analytic':>10}  {'deviation':>10}")
for name, emp, ana, se in rows:
    print(f"{name:>6}  {emp:10.6f}  {ana:10.6f}  {(emp - ana) / se:+9.2f}s")
