"""Two well-separated Gaussian blobs, a design with a known two-group
structure for the clustering and discovery tests."""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ssls.data import Dataset, Grouping
from ssls.rng import Stream


@dataclass(frozen=True)
class BlobConfig:
    """Two well-separated Gaussian blobs in the plane with groupwise effects;
    the spacing is in units of the within-blob standard deviation."""

    n: int = 900
    spacing: float = 7.0
    tau: tuple = (1.0, 3.0)
    treat_prob: float = 0.5
    seed: int = 0


def draw_blobs(cfg: BlobConfig, stream: Optional[Stream] = None):
    s = stream if stream is not None else Stream(cfg.seed).child("blobs")
    n = cfg.n
    blob = s.child("blob").bernoulli(0.5, n)
    x = s.child("x").normal(2 * n).reshape(n, 2) + cfg.spacing * blob[:, None]
    a = s.child("a").bernoulli(cfg.treat_prob, n).astype(np.float64)
    tau = np.asarray(cfg.tau, dtype=np.float64)
    y = 0.5 * x[:, 0] + tau[blob] * a + s.child("eps").normal(n)
    labels = (blob + 1).astype(np.int64)
    grouping = Grouping(labels, 2)
    return Dataset(y, a, x), grouping, tau
