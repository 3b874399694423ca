"""
Diagram growth processes and frequency functions
================================================

Central growth processes on Young diagrams, one spec `Thoma(alpha)` for
both kinds shown here: the dimension-proportional one, `Thoma()`
(transition probability proportional to the number of standard fillings
of the grown shape), and the row-insertion family driven by i.i.d.
letters with probabilities alpha. The frequency of an ideal is the
fraction of the first n added cells landing in it; for the
dimension-proportional process every fixed union of rows and columns has
vanishing frequency, while row insertion pins row frequencies to the
letter probabilities.
"""

from posetpaths import (
    HookIdeal,
    Thoma,
    compare_frequency_profiles,
    estimate_frequency,
    plancherel_transition,
    sample_plancherel,
    sample_rsk_thoma,
)

# Exact one-step transitions out of small shapes.
for shape in [(), (1,), (2,), (2, 1)]:
    steps = [(mu, str(p)) for mu, p in plancherel_transition(shape)]
    print(f"transition {shape}: {steps}")

# A sampled growth path; the first row hovers near 2*sqrt(n).
path = sample_plancherel(900, seed=7)
print("n=900 growth: rows", len(path.shape()), "first row", path.shape()[0])

# Row insertion with letter probabilities (0.7, 0.3): at most two rows,
# and the first row takes up about 70 percent of all cells.
rsk = sample_rsk_thoma((0.7, 0.3), 2000, seed=7)
print("rsk shape:", rsk.shape(), "row fraction:", rsk.shape()[0] / 2000)

# Frequency estimates: single row/column ideals get tiny weight under the
# dimension-proportional process...
(row,) = estimate_frequency(Thoma(), [HookIdeal(1, 0)], 1600, 40, seed=11)
print(f"plancherel hook:1,0 estimate {row.estimate:.4f} stderr {row.stderr:.4f}")

# ...while the two-letter insertion process keeps the first row at its
# letter frequency.
(rep,) = estimate_frequency(Thoma((0.7, 0.3)), [HookIdeal(1, 0)], 1600, 40, seed=11)
print(f"rsk(0.7,0.3) hook:1,0 estimate {rep.estimate:.4f} stderr {rep.stderr:.4f}")

# Frequency profiles on single-row ideals separate different parameters.
table = compare_frequency_profiles(
    [Thoma((0.7, 0.3)), Thoma((0.6, 0.4))],
    [HookIdeal(1, 0)],
    n_steps=1600,
    replicas=40,
    seed=11,
)
for pair in table.pairs:
    verdict = "distinguished" if pair.distinguished else "indistinguishable"
    print(f"{pair.sampler_a} vs {pair.sampler_b}: {verdict} {pair.separations}")
