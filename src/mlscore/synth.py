"""Synthetic benchmark generators: a small imbalanced binary problem where
only a known block of features separates the minority class.

Three layouts share the same marginal block (negatives N(0,1), positives
N(3, 0.5^2) in each of 5 columns):

  setup 1: 5 independent N(0,1) noise features + the 5 marginal features
  setup 2: the noise block is equicorrelated (0.9) Gaussian instead
  setup 3: setup 2 plus 90 extra independent N(0,1) features (d = 100)

Columns are ordered noise block, marginal block, extras; the ground-truth
marginal indices ride along so evaluators never guess from column order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import DataError, Dataset

NOISE_BLOCK = 5
MARGINAL_BLOCK = 5
MARGINAL_SHIFT = 3.0  # positives' mean in the marginal block
MARGINAL_SPREAD = 0.5  # and their standard deviation
NOISE_CORR = 0.9  # pairwise correlation of the setup 2 and 3 noise block
EXTRA_BLOCK = 90
AUGMENT_TOTAL = 309  # target width after add_noise_features
AUGMENT_CORR_COLS = 10
AUGMENT_CORR = 0.9
ADDED_PREFIX = "added_"  # reserved for augmentation columns


@dataclass(frozen=True)
class SynthSpec:
    setup: int
    rho: float
    n_samples: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.setup not in (1, 2, 3):
            raise ValueError(f"setup must be 1, 2, or 3, got {self.setup}")
        if not 0.0 < self.rho < 1.0:
            raise ValueError(f"rho must be in (0, 1), got {self.rho}")
        if self.n_samples < 20:
            raise ValueError(f"n_samples must be >= 20, got {self.n_samples}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0 < self.n_positives < self.n_samples:
            raise ValueError(
                f"n_samples={self.n_samples} and rho={self.rho} plant "
                f"{self.n_positives} positive samples of {self.n_samples}; a "
                f"draw needs at least one sample of each class"
            )

    @property
    def n_positives(self) -> int:
        """The positive class size round(n_samples * (1 - rho))."""
        return int(round(self.n_samples * (1.0 - self.rho)))


@dataclass(frozen=True)
class SynthDataset:
    dataset: Dataset
    marginal_feature_indices: list[int]


def gen_correlated_block(
    n: int, d_block: int, corr: float, rng: np.random.Generator
) -> np.ndarray:
    """n x d_block Gaussian block with unit variance and pairwise
    correlation ``corr``, via the Cholesky factor of the equicorrelation
    matrix. That matrix is positive definite only for corr > -1/(d_block-1).
    """
    if d_block < 1:
        raise ValueError("d_block must be >= 1")
    if d_block > 1 and corr <= -1.0 / (d_block - 1):
        raise ValueError(
            f"corr {corr} is not positive definite for block size {d_block}"
        )
    if corr >= 1.0:
        raise ValueError(f"corr must be < 1, got {corr}")
    cov = np.full((d_block, d_block), corr)
    np.fill_diagonal(cov, 1.0)
    chol = np.linalg.cholesky(cov)
    return rng.standard_normal((n, d_block)) @ chol.T


def gen_setup(spec: SynthSpec) -> SynthDataset:
    """Draw one dataset for the given layout; fully determined by spec.seed."""
    rng = np.random.default_rng(spec.seed)
    n = spec.n_samples
    n_pos = spec.n_positives
    labels = np.zeros(n, dtype=int)
    pos_rows = rng.permutation(n)[:n_pos]
    labels[pos_rows] = 1

    if spec.setup == 1:
        noise = rng.standard_normal((n, NOISE_BLOCK))
    else:
        noise = gen_correlated_block(n, NOISE_BLOCK, NOISE_CORR, rng)

    marginal = rng.standard_normal((n, MARGINAL_BLOCK))
    marginal[pos_rows] = MARGINAL_SHIFT + MARGINAL_SPREAD * rng.standard_normal(
        (n_pos, MARGINAL_BLOCK)
    )

    blocks = [noise, marginal]
    if spec.setup == 3:
        blocks.append(rng.standard_normal((n, EXTRA_BLOCK)))
    X = np.hstack(blocks)
    names = [f"f{j:02d}" for j in range(X.shape[1])]
    marginal_idx = list(range(NOISE_BLOCK, NOISE_BLOCK + MARGINAL_BLOCK))
    return SynthDataset(
        dataset=Dataset(values=X, feature_names=names, labels=labels),
        marginal_feature_indices=marginal_idx,
    )


def add_noise_features(ds: Dataset, rng: np.random.Generator) -> Dataset:
    """Pad a dataset with distractor columns: a 10-wide equicorrelated (0.9)
    Gaussian block first, then independent N(0,1) columns until the total
    width reaches 309. Added columns are named with a reserved prefix, which
    a dataset's own names may not use.
    """
    n, d = ds.values.shape
    if d >= AUGMENT_TOTAL:
        raise DataError(f"dataset already has {d} >= {AUGMENT_TOTAL} features")
    for name in ds.feature_names:
        if name.startswith(ADDED_PREFIX):
            raise DataError(f"feature name {name!r} uses the reserved prefix {ADDED_PREFIX!r}")
    corr_block = gen_correlated_block(n, AUGMENT_CORR_COLS, AUGMENT_CORR, rng)
    n_indep = max(0, AUGMENT_TOTAL - d - AUGMENT_CORR_COLS)
    blocks = [ds.values, corr_block]
    if n_indep:
        blocks.append(rng.standard_normal((n, n_indep)))
    names = list(ds.feature_names)
    names += [f"{ADDED_PREFIX}corr_{j:02d}" for j in range(AUGMENT_CORR_COLS)]
    names += [f"{ADDED_PREFIX}iid_{j:03d}" for j in range(n_indep)]
    return Dataset(values=np.hstack(blocks), feature_names=names, labels=ds.labels)
