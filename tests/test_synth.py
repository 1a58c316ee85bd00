import numpy as np
import pytest

from mlscore.data import DataError, Dataset
from mlscore.synth import (
    ADDED_PREFIX,
    SynthDataset,
    SynthSpec,
    add_noise_features,
    gen_correlated_block,
    gen_setup,
)


def _pairwise_corrs(X):
    C = np.corrcoef(X, rowvar=False)
    return C[np.triu_indices(X.shape[1], k=1)]


# ---------------------------------------------------------------- SynthSpec


def test_spec_validation():
    with pytest.raises(ValueError, match="setup"):
        SynthSpec(setup=4, rho=0.9)
    with pytest.raises(ValueError, match="rho"):
        SynthSpec(setup=1, rho=1.0)
    with pytest.raises(ValueError, match="rho"):
        SynthSpec(setup=1, rho=0.0)
    with pytest.raises(ValueError, match="n_samples"):
        SynthSpec(setup=1, rho=0.9, n_samples=19)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        SynthSpec(setup=1, rho=0.9, seed=-1)


@pytest.mark.parametrize("rho, count", [(0.99, 0), (0.01, 20)])
def test_spec_needs_both_classes(rho, count):
    # rho 0.99 at n = 20 planted no positive and rho 0.01 no negative, and
    # bench reported recoveries for blocks that carried no signal
    with pytest.raises(ValueError, match=f"n_samples=20 and rho={rho} plant {count} "):
        SynthSpec(setup=1, rho=rho, n_samples=20)
    # one sample of each class is enough
    assert SynthSpec(setup=1, rho=0.97, n_samples=20).n_positives == 1
    assert SynthSpec(setup=1, rho=0.03, n_samples=20).n_positives == 19


# ---------------------------------------------------------------- gen_setup


def test_setup1_shape_and_counts():
    drawn = gen_setup(SynthSpec(setup=1, rho=0.9, n_samples=1000, seed=0))
    ds = drawn.dataset
    assert isinstance(drawn, SynthDataset)
    assert ds.n_samples == 1000
    assert ds.n_features == 10
    assert int(ds.labels.sum()) == 100
    assert drawn.marginal_feature_indices == [5, 6, 7, 8, 9]
    assert ds.feature_names == [f"f{j:02d}" for j in range(10)]


def test_positive_count_rounds():
    drawn = gen_setup(SynthSpec(setup=1, rho=0.97, n_samples=1000, seed=1))
    assert int(drawn.dataset.labels.sum()) == 30
    for rho, n in [(0.9, 55), (0.95, 50), (0.93, 77)]:
        drawn = gen_setup(SynthSpec(setup=1, rho=rho, n_samples=n, seed=1))
        assert int(drawn.dataset.labels.sum()) == int(round(n * (1.0 - rho)))


def test_setup3_dimensions():
    drawn = gen_setup(SynthSpec(setup=3, rho=0.95, n_samples=100, seed=2))
    assert drawn.dataset.n_features == 100
    assert drawn.marginal_feature_indices == [5, 6, 7, 8, 9]


def test_same_seed_same_data():
    spec = SynthSpec(setup=2, rho=0.9, n_samples=200, seed=7)
    a = gen_setup(spec)
    b = gen_setup(spec)
    assert np.array_equal(a.dataset.values, b.dataset.values)
    assert np.array_equal(a.dataset.labels, b.dataset.labels)
    c = gen_setup(SynthSpec(setup=2, rho=0.9, n_samples=200, seed=8))
    assert not np.array_equal(a.dataset.values, c.dataset.values)


def test_marginal_features_sit_in_the_right_tail():
    drawn = gen_setup(SynthSpec(setup=1, rho=0.9, n_samples=1000, seed=3))
    X, y = drawn.dataset.values, drawn.dataset.labels
    for r in drawn.marginal_feature_indices:
        neg_q95 = np.quantile(X[y == 0, r], 0.95)
        frac_above = (X[y == 1, r] > neg_q95).mean()
        assert frac_above >= 0.9  # theoretical rate about 0.997


def test_setup2_noise_block_is_correlated():
    drawn = gen_setup(SynthSpec(setup=2, rho=0.9, n_samples=5000, seed=4))
    corrs = _pairwise_corrs(drawn.dataset.values[:, :5])
    assert np.all(np.abs(corrs - 0.9) < 0.03)


def test_setup1_noise_block_is_independent():
    drawn = gen_setup(SynthSpec(setup=1, rho=0.9, n_samples=5000, seed=5))
    corrs = _pairwise_corrs(drawn.dataset.values[:, :5])
    assert np.all(np.abs(corrs) < 0.05)


# ------------------------------------------------------- gen_correlated_block


def test_correlated_block_zero_corr():
    rng = np.random.default_rng(0)
    X = gen_correlated_block(10000, 4, 0.0, rng)
    assert np.all(np.abs(_pairwise_corrs(X)) < 0.05)
    assert np.all(np.abs(X.std(axis=0) - 1.0) < 0.05)


def test_correlated_block_hits_target():
    rng = np.random.default_rng(1)
    X = gen_correlated_block(10000, 10, 0.9, rng)
    assert np.all(np.abs(_pairwise_corrs(X) - 0.9) < 0.02)


def test_correlated_block_rejects_non_positive_definite():
    rng = np.random.default_rng(2)
    with pytest.raises(ValueError, match="positive definite"):
        gen_correlated_block(100, 10, -0.5, rng)  # -0.5 < -1/9


def test_correlated_block_single_column():
    rng = np.random.default_rng(3)
    X = gen_correlated_block(500, 1, 0.9, rng)
    assert X.shape == (500, 1)


def test_correlated_block_rejects_corr_one():
    rng = np.random.default_rng(4)
    with pytest.raises(ValueError, match="corr"):
        gen_correlated_block(100, 3, 1.0, rng)


# ---------------------------------------------------------- add_noise_features


def test_add_noise_features_pads_to_target(rng):
    ds = Dataset(
        values=rng.standard_normal((40, 8)),
        feature_names=[f"f{j}" for j in range(8)],
        labels=rng.integers(0, 2, 40),
    )
    out = add_noise_features(ds, np.random.default_rng(0))
    assert out.n_features == 309
    assert np.array_equal(out.values[:, :8], ds.values)
    assert np.array_equal(out.labels, ds.labels)
    added = [n for n in out.feature_names if n.startswith(ADDED_PREFIX)]
    assert len(added) == 301
    assert sum(1 for n in added if n.startswith(f"{ADDED_PREFIX}corr_")) == 10
    assert sum(1 for n in added if n.startswith(f"{ADDED_PREFIX}iid_")) == 291


def test_add_noise_features_correlated_block_statistics(rng):
    ds = Dataset(
        values=rng.standard_normal((5000, 3)),
        feature_names=["a", "b", "c"],
    )
    out = add_noise_features(ds, np.random.default_rng(1))
    corrs = _pairwise_corrs(out.values[:, 3:13])
    assert np.all(np.abs(corrs - 0.9) < 0.03)


def test_add_noise_features_boundary_width(rng):
    ds = Dataset(
        values=rng.standard_normal((25, 299)),
        feature_names=[f"f{j}" for j in range(299)],
    )
    out = add_noise_features(ds, np.random.default_rng(2))
    assert out.n_features == 309
    assert not any(n.startswith(f"{ADDED_PREFIX}iid_") for n in out.feature_names)


def test_add_noise_features_rejects_wide_input(rng):
    ds = Dataset(
        values=rng.standard_normal((10, 309)),
        feature_names=[f"f{j}" for j in range(309)],
    )
    with pytest.raises(DataError, match="309"):
        add_noise_features(ds, np.random.default_rng(3))


def test_add_noise_features_rejects_reserved_prefix(rng):
    ds = Dataset(
        values=rng.standard_normal((10, 2)),
        feature_names=["ok", f"{ADDED_PREFIX}bad"],
    )
    with pytest.raises(DataError, match="reserved prefix"):
        add_noise_features(ds, np.random.default_rng(4))


def test_add_noise_features_deterministic(rng):
    ds = Dataset(
        values=rng.standard_normal((15, 4)),
        feature_names=["a", "b", "c", "d"],
    )
    a = add_noise_features(ds, np.random.default_rng(9))
    b = add_noise_features(ds, np.random.default_rng(9))
    assert np.array_equal(a.values, b.values)
