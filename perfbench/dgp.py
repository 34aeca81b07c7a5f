"""The benchmark's own copy of the paper's DGP1 design, written as a CSV.

It is drawn here from numpy's PCG64 generator rather than through
``ssls.simulation``, so a change to the library's data-generating process or
to its random streams cannot change the benchmark's inputs.

DGP1: x1, x2 ~ N(0, 1); x3, x4, x5 ~ Bernoulli(0.5); group
g = 1 + [x5 = 1] + 2 [x1 >= 0]; P(a = 1 | x) = logistic(0.5 + 0.5 x1 +
0.5 x2 - 0.5 x3 - x4 + x5); y = 5 + x1^2 - 2 x1 x2 - 2 x3 - 2 x4 + 4 x5 +
tau_g a + eps with eps ~ N(0, 1) and tau = (1, 2, 3, 4).

The covariates and the treatment (the design) come from the fixed draw
DESIGN_SEED; the workload seed draws the outcome noise. The work the program
does depends on the design: how many Newton steps the logistic propensity
fit takes, and how many Lloyd iterations k-means takes. Drawn afresh per
seed, these made one operation take anywhere from 1x to 4x its fastest
time, so no bound on wall time could hold across seeds (see NOTES.md).
"""

from __future__ import annotations

import numpy as np

DESIGN_SEED = 0
TAU = (1.0, 2.0, 3.0, 4.0)
COVARIATES = ("x1", "x2", "x3", "x4", "x5")


def draw(n: int, seed: int) -> dict[str, np.ndarray]:
    design = np.random.default_rng(DESIGN_SEED)
    x1 = design.standard_normal(n)
    x2 = design.standard_normal(n)
    x3, x4, x5 = (design.random((3, n)) < 0.5).astype(np.float64)
    g = 1 + (x5 == 1.0) + 2 * (x1 >= 0.0)
    index = 0.5 + 0.5 * x1 + 0.5 * x2 - 0.5 * x3 - x4 + x5
    a = (design.random(n) < 1.0 / (1.0 + np.exp(-index))).astype(np.float64)
    # spawn_key keeps the noise stream independent of the design stream,
    # also when seed == DESIGN_SEED.
    noise = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
    tau = np.asarray(TAU)[g - 1]
    y = (5.0 + x1**2 - 2.0 * x1 * x2 - 2.0 * x3 - 2.0 * x4 + 4.0 * x5
         + tau * a + noise.standard_normal(n))
    return {"y": y, "a": a, "x1": x1, "x2": x2, "x3": x3, "x4": x4, "x5": x5,
            "g": g.astype(np.int64)}


def write_csv(path, columns: dict[str, np.ndarray]) -> None:
    """Floats go through repr(float(v)): under numpy 2 the repr of an
    np.float64 is 'np.float64(...)', which load_csv rightly rejects."""
    names = list(columns)
    cols = [c.tolist() for c in columns.values()]
    with open(path, "w") as fh:
        fh.write(",".join(names) + "\n")
        for row in zip(*cols):
            fh.write(",".join(repr(v) for v in row) + "\n")
