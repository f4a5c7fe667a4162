"""Coefficient-knockout counterfactuals: how much flow does a mechanism
suppress?

Zeroing a fitted coefficient "turns off" its mechanism; simulating under the
original and the zeroed coefficient vectors and comparing expected totals
quantifies the mechanism's contribution. Both scenarios run from the same
seed, but their Poisson draws fall out of step once their rates differ, so
the two means are close to independent estimates: compare the difference
with both standard errors.

Run with: python demos/04_knockout_experiment.py   (about half a minute)
"""

import numpy as np

from ergmflow import (ChainConfig, ModelSpec, TermSpec, census_sample,
                      expected_total_flow, fit_mple, knockout_experiment,
                      synthetic_generate)

model = ModelSpec(terms=(
    TermSpec("sum"), TermSpec("nonzero"),
    TermSpec("dyad", "political_dissim"),
    TermSpec("dyad", "rural_dissim"),
    TermSpec("node_out", "log_population"),
    TermSpec("node_in", "log_population")))
theta_true = np.array([-10.4, 0.5, -1.2, -0.8, 0.55, 0.55])

current, _lagged, nodes, dyads = synthetic_generate(
    60, model, theta_true, seed=99)
fit = fit_mple(model, current, nodes, dyads, census_sample(current))
print("fitted dissimilarity coefficients: political %.3f, rural %.3f"
      % (fit.coefficient("dyad:political_dissim"),
         fit.coefficient("dyad:rural_dissim")))

config = ChainConfig(n_networks=25, seed=5)
baseline, se = expected_total_flow(model, fit.theta, nodes, dyads, config,
                                   init=current)
print("baseline expected total flow: %.0f (MC SE %.1f); observed %d"
      % (baseline, se, current.total_flow))

# Knock out one mechanism at a time, then both together. Both chains in each
# comparison share the seed, so an empty knockout changes nothing at all.
for labels in [set(), {"dyad:political_dissim"}, {"dyad:rural_dissim"},
               {"dyad:political_dissim", "dyad:rural_dissim"}]:
    report = knockout_experiment(model, fit.theta, nodes, dyads, labels,
                                 config, init=current)
    name = " + ".join(sorted(labels)) if labels else "(none)"
    print("knockout %-45s -> %+7.1f migrants (%+.1f%%)"
          % (name, report.abs_diff, report.pct_diff))
