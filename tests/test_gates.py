import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import ndtr

from mlscore import gates
from mlscore.data import DataError, Dataset, standardize
from mlscore.evaluation import score_dataset
from mlscore.gates import (
    GateState,
    TrainConfig,
    TrainTrace,
    dufs_bandwidth,
    dufs_loss,
    dufs_mls_loss,
    loss_gradient,
    open_prob,
    sample_gates,
    train,
)
from mlscore.margins import MarginConfig, build_margin_model
from mlscore.scores import mls, select_top
from mlscore.synth import SynthSpec, gen_setup
from oracles import (
    blocking,
    dufs_core_dense,
    kernel_blocks,
    margin_kernel_dense,
    traced_peak,
)


def _instance(rng, n=20, d=5):
    ds = Dataset(
        values=rng.standard_normal((n, d)),
        feature_names=[f"f{j}" for j in range(d)],
    )
    scaled, _ = standardize(ds)
    return scaled


def _fd_gradient(loss_of_mu, mu, h=1e-4):
    g = np.zeros_like(mu)
    for r in range(mu.size):
        up, dn = mu.copy(), mu.copy()
        up[r] += h
        dn[r] -= h
        g[r] = (loss_of_mu(up) - loss_of_mu(dn)) / (2.0 * h)
    return g


def _checkable(mu, eps):
    # keep coordinates whose pre-clamp gate sits inside (0, 1), well away
    # from the clamp so the finite difference stays on one branch
    v = 0.5 + mu + eps
    return (v > 1e-2) & (v < 1.0 - 1e-2)


# ---------------------------------------------------------------- GateState


def test_gate_state_validation():
    with pytest.raises(ValueError, match="non-empty"):
        GateState(mu=np.zeros((2, 2)))
    with pytest.raises(ValueError, match="finite"):
        GateState(mu=np.array([np.nan]))
    for sigma in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="sigma"):
            GateState(mu=np.zeros(3), sigma=sigma)
    # the gate count follows mu and delta is a constant: neither is set
    with pytest.raises(TypeError, match="delta"):
        GateState(mu=np.zeros(3), delta=1e-3)
    with pytest.raises(TypeError, match="m_gates"):
        GateState(mu=np.zeros(3), m_gates=2)


def test_gate_state_fresh_defaults():
    state = GateState.fresh(4)
    assert np.array_equal(state.mu, np.zeros(4))
    assert state.sigma == 0.5
    assert state.m_gates == 4
    assert state.delta == 1e-4


def test_train_config_validation():
    with pytest.raises(ValueError, match="epochs"):
        TrainConfig(epochs=0)
    for rate in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(learning_rate=rate)
    with pytest.raises(ValueError, match="loss_variant"):
        TrainConfig(loss_variant="nope")
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        TrainConfig(seed=-1)


# -------------------------------------------------------------------- gates


def test_sample_gates_bounded_and_deterministic():
    state = GateState.fresh(50)
    a = sample_gates(state, np.random.default_rng(3))
    b = sample_gates(state, np.random.default_rng(3))
    assert np.array_equal(a, b)
    assert (a >= 0).all() and (a <= 1).all()


def test_sample_gates_saturate():
    rng = np.random.default_rng(0)
    assert (sample_gates(GateState(mu=np.full(20, 10.0)), rng) == 1.0).all()
    assert (sample_gates(GateState(mu=np.full(20, -10.0)), rng) == 0.0).all()


def test_open_prob_reference_points():
    assert abs(open_prob(GateState(mu=np.array([-0.5])))[0] - 0.5) < 1e-15
    # mu = 0, sigma = 0.5 -> Phi(1)
    assert abs(open_prob(GateState.fresh(1))[0] - 0.8413447460685429) < 1e-12


def test_open_prob_matches_scipy_ndtr():
    # over the arguments x = (mu + 0.5) / sigma in [-30, 30], down to
    # Phi(-30) = 4.9e-198, at three noise scales
    for sigma in (0.25, 0.5, 1.0):
        state = GateState(mu=np.linspace(-30.0, 30.0, 6001) * sigma - 0.5, sigma=sigma)
        x = (state.mu + 0.5) / state.sigma
        want = ndtr(x)
        assert x.min() == -30.0 and x.max() == 30.0
        assert np.all(np.abs(open_prob(state) - want) <= 1e-13 * want)


def test_open_prob_monotone():
    mu = np.linspace(-3, 3, 61)
    p = open_prob(GateState(mu=mu))
    assert (np.diff(p) > 0).all()
    assert (p > 0).all() and (p < 1).all()


# ------------------------------------------------------------------- losses


def test_dufs_loss_zero_gates_zero_loss(rng):
    ds = _instance(rng)
    state = GateState.fresh(ds.n_features)
    assert dufs_loss(ds, np.zeros(ds.n_features), state) == 0.0


def test_dufs_loss_matches_loop_oracle(rng):
    ds = _instance(rng, n=12, d=3)
    state = GateState.fresh(3)
    z = np.array([0.9, 0.4, 0.7])
    bw = dufs_bandwidth(ds.values * z)
    loss = dufs_loss(ds, z, state, bandwidth=bw)

    G = ds.values * z
    n = G.shape[0]
    W = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            W[i, j] = math.exp(-((G[i] - G[j]) ** 2).sum() / bw)
    dvec = W.sum(axis=1)
    trace = 0.0
    for r in range(G.shape[1]):
        f = G[:, r]
        trace += f @ f - f @ (W @ f / dvec)
    denom = state.m_gates * open_prob(state).sum() + state.delta
    assert abs(loss - (-trace / denom)) <= 1e-10 * max(1.0, abs(loss))


def test_dufs_bandwidth_floor():
    tight = np.zeros((5, 2))
    assert dufs_bandwidth(tight) == 1.0
    spread = np.array([[0.0, 0.0], [10.0, 0.0]])
    assert dufs_bandwidth(spread) == 100.0


def test_dufs_mls_loss_matches_loop_oracle(rng):
    ds = _instance(rng, n=30, d=6)
    model = build_margin_model(ds, MarginConfig(quantile=0.1))
    state = GateState.fresh(6)
    z = rng.uniform(0.1, 1.0, 6)
    loss = dufs_mls_loss(ds, z, state, model)
    W = margin_kernel_dense(model, ds.values)
    total = 0.0
    for r in range(6):
        g = ds.values[:, r] * z[r]
        var = g.var(ddof=1)
        if var <= 1e-12:
            continue
        num = 0.0
        for i in range(30):
            for j in range(30):
                num += (g[i] - g[j]) ** 2 * W[i, j] * model.u[i]
        total += num / var
    denom = state.m_gates * open_prob(state).sum() + state.delta
    assert abs(loss - (-total / denom)) <= 1e-10 * max(1.0, abs(loss))


def test_dufs_mls_gate_identity(rng):
    # fully open gates recover the plain per-feature scores
    ds = _instance(rng, n=25, d=5)
    model = build_margin_model(ds, MarginConfig(quantile=0.1))
    state = GateState.fresh(5)
    loss = dufs_mls_loss(ds, np.ones(5), state, model)
    denom = state.m_gates * open_prob(state).sum() + state.delta
    target = mls(ds, model).scores.sum()
    assert abs(-loss * denom - target) <= 1e-9 * max(1.0, abs(target))


def test_dufs_mls_dead_feature_contributes_zero(rng):
    ds = _instance(rng, n=15, d=4)
    model = build_margin_model(ds, MarginConfig(quantile=0.15))
    state = GateState.fresh(4)
    z = np.array([1.0, 0.0, 1.0, 1.0])
    with_dead = dufs_mls_loss(ds, z, state, model)
    # closing gate 1 takes exactly feature 1's term, its mls score, out of
    # the sum that all open gates give
    full = dufs_mls_loss(ds, np.ones(4), state, model)
    denom = state.m_gates * open_prob(state).sum() + state.delta
    assert abs(with_dead - (full + mls(ds, model).scores[1] / denom)) <= 1e-12


def test_dufs_mls_skips_the_columns_mls_scores_inf():
    # the mean of 300 copies of 1e11 + 0.1 rounds, so the plain variance of
    # that column is rounding noise, not 0; scored, that noise (1.5e17) would
    # swamp the loss (-5.05e15 at z = 0.5 against -598.3) and drive every
    # gate mean to -4.8e11 in 50 epochs instead of -3.19
    def draw(level):
        X = np.random.default_rng(0).standard_normal((300, 6))
        X[:, 2] = level
        ds = Dataset(values=X, feature_names=[f"f{j}" for j in range(6)])
        return ds, build_margin_model(ds, MarginConfig())

    state = GateState.fresh(6)
    config = TrainConfig(epochs=50, loss_variant="dufs-mls")
    runs = []
    for level in (1e11 + 0.1, 0.0):
        ds, model = draw(level)
        scores = mls(ds, model).scores
        assert np.flatnonzero(np.isinf(scores)).tolist() == [2]
        # at open gates dufs-mls sums exactly the scores mls does not set to +inf
        denom = state.m_gates * open_prob(state).sum() + state.delta
        assert dufs_mls_loss(ds, np.ones(6), state, model) == (
            -scores[np.isfinite(scores)].sum() / denom)
        trace = train(ds, config, state, model)
        runs.append((dufs_mls_loss(ds, np.full(6, 0.5), state, model), trace))
    (loss, trace), (want_loss, want) = runs
    assert loss == want_loss
    assert np.array_equal(trace.loss_history, want.loss_history)
    assert np.array_equal(trace.mu, want.mu)


def test_losses_row_permutation_invariant(rng):
    ds = _instance(rng, n=14, d=4)
    perm = rng.permutation(14)
    permuted = Dataset(values=ds.values[perm], feature_names=ds.feature_names)
    z = rng.uniform(0.2, 1.0, 4)
    state = GateState.fresh(4)

    bw = dufs_bandwidth(ds.values * z)
    a = dufs_loss(ds, z, state, bandwidth=bw)
    b = dufs_loss(permuted, z, state, bandwidth=bw)
    assert abs(a - b) <= 1e-9 * max(1.0, abs(a))

    config = MarginConfig(quantile=0.15)
    a = dufs_mls_loss(ds, z, state, build_margin_model(ds, config))
    b = dufs_mls_loss(permuted, z, state, build_margin_model(permuted, config))
    assert abs(a - b) <= 1e-9 * max(1.0, abs(a))


# ---------------------------------------------------------------- gradients


def test_dufs_gradient_matches_finite_differences(rng):
    ds = _instance(rng)
    mu = rng.normal(0.0, 0.3, 5)
    eps = rng.normal(0.0, 0.5, 5)
    state = GateState(mu=mu)
    z = np.clip(0.5 + mu + eps, 0.0, 1.0)
    bw = dufs_bandwidth(ds.values * z)
    grad = loss_gradient(ds, z, state, "dufs", bandwidth=bw)

    def loss_of_mu(m):
        return dufs_loss(
            ds, np.clip(0.5 + m + eps, 0.0, 1.0), replace(state, mu=m), bandwidth=bw
        )

    fd = _fd_gradient(loss_of_mu, mu)
    keep = _checkable(mu, eps)
    assert keep.any()
    rel = np.abs(grad - fd)[keep] / np.maximum(np.abs(fd)[keep], 1e-8)
    assert rel.max() <= 1e-4


def _assert_steps_match_dense_oracle(F, draws, state, bandwidth):
    # the step streams the kernel and W o G in row blocks and never forms
    # P; the oracle forms every n x n matrix. Every block size cuts the rows
    # at every kind of edge. One step evaluates the draws in turn, in the
    # buffers it reuses.
    #
    # The trace is a difference of terms of the size of |gated|^2, and its
    # rounding reaches the gradient through the open-probability term, whose
    # factor m phi / denom is below m / (sigma denom). A narrow kernel can
    # cancel the trace to near 0; both cores then keep only its rounding.
    n, d = F.shape
    ds = Dataset(values=F, feature_names=[f"f{j}" for j in range(d)])
    denom = state.m_gates * open_prob(state).sum() + state.delta
    wants = []
    for gate in draws:
        want_loss, want_grad = dufs_core_dense(F, gate, state, bandwidth)
        loss_scale = float(((F * gate) ** 2).sum()) / denom
        grad_scale = (np.abs(want_grad).max()
                      + loss_scale * state.m_gates / (state.sigma * denom))
        wants.append((want_loss, want_grad, loss_scale, grad_scale))
    for block in kernel_blocks(n):
        with blocking(block):
            step = gates._epoch_step(ds, "dufs", None)
            for gate, (want_loss, want_grad, loss_scale, grad_scale) in zip(draws, wants):
                loss, grad = step(gate, state, bandwidth)
                assert abs(loss - want_loss) <= 1e-12 * loss_scale
                assert np.abs(grad - want_grad).max() <= 1e-12 * grad_scale


@given(st.data())
def test_dufs_core_matches_dense_oracle(data):
    # equal rows on both sides of a block cut, and a column that is
    # constant over the rows
    n = data.draw(st.integers(3, 40), label="n")
    d = data.draw(st.integers(1, 8), label="d")
    gen = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    F = gen.standard_normal((n, d))
    if data.draw(st.booleans(), label="duplicate rows"):
        F = F[gen.integers(0, max(1, n // 3), n)]
    if data.draw(st.booleans(), label="constant column"):
        F[:, gen.integers(d)] = gen.standard_normal()
    # saturated (0 or 1) and open gates, in any mix
    z = np.array(data.draw(st.lists(
        st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.01, 0.99)),
        min_size=d, max_size=d), label="z"))
    # a second draw in which every gate changes between clamped and open
    draws = (z, np.where((z == 0.0) | (z == 1.0), 0.5, np.round(z)))
    state = GateState(mu=gen.normal(0.0, 0.5, d))
    bandwidth = data.draw(st.one_of(st.none(), st.floats(0.1, 50.0)), label="bandwidth")
    _assert_steps_match_dense_oracle(F, draws, state, bandwidth)


@pytest.mark.parametrize("z", [
    [0.0, 0.0, 0.0, 0.0, 0.0],
    [1.0, 1.0, 1.0, 1.0, 1.0],
    # column 2 is constant: the one column the epoch's products run over
    # is column 3
    [0.0, 0.0, 0.7, 0.4, 0.0],
], ids=["all-closed", "all-at-open-clamp", "one-open-beside-constant"])
@pytest.mark.parametrize("bandwidth", [None, 3.0])
def test_dufs_step_with_clamped_gates_matches_dense_oracle(z, bandwidth):
    # draws that leave no gate, or one, inside the clamp, which random gates
    # rarely give; each comes after a draw with every gate open, whose
    # products are wider
    gen = np.random.default_rng(7)
    F = gen.standard_normal((20, 5))
    F[:, 2] = 1.5
    state = GateState(mu=gen.normal(0.0, 0.5, 5))
    _assert_steps_match_dense_oracle(F, (np.full(5, 0.5), np.array(z)), state, bandwidth)


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="long double is no wider than double here")
@pytest.mark.parametrize("seed", range(3))
def test_dufs_far_from_origin_matches_long_double_dense_oracle(seed):
    # columns with means of 1e4: the entries of G = gated gated' are about
    # 1e8 d, and forming P from them lost about 1e-3 of the gradient; the
    # oracle takes every step in long double
    gen = np.random.default_rng(seed)
    n, d = 100, 10
    F = 1e4 + gen.standard_normal((n, d))
    z = gen.uniform(0.05, 0.95, d)
    state = GateState(mu=gen.normal(0.0, 0.5, d))
    ds = Dataset(values=F, feature_names=[f"f{j}" for j in range(d)])
    want_loss, want_grad = dufs_core_dense(
        F.astype(np.longdouble), z.astype(np.longdouble), state, None)
    loss, grad = gates._epoch_step(ds, "dufs", None)(z, state)
    assert abs(loss - float(want_loss)) <= 1e-8 * abs(float(want_loss))
    want_grad = want_grad.astype(float)
    assert np.abs(grad - want_grad).max() <= 1e-8 * np.abs(want_grad).max()


def test_dufs_mls_gradient_matches_finite_differences(rng):
    ds = _instance(rng, n=25, d=6)
    model = build_margin_model(ds, MarginConfig(quantile=0.1))
    mu = rng.normal(0.0, 0.3, 6)
    eps = rng.normal(0.0, 0.5, 6)
    state = GateState(mu=mu)
    z = np.clip(0.5 + mu + eps, 0.0, 1.0)
    grad = loss_gradient(ds, z, state, "dufs-mls", model=model)

    def loss_of_mu(m):
        return dufs_mls_loss(ds, np.clip(0.5 + m + eps, 0.0, 1.0), replace(state, mu=m), model)

    fd = _fd_gradient(loss_of_mu, mu)
    keep = _checkable(mu, eps)
    assert keep.any()
    rel = np.abs(grad - fd)[keep] / np.maximum(np.abs(fd)[keep], 1e-8)
    assert rel.max() <= 1e-4


def test_gradient_requires_model_for_margin_variant(rng):
    ds = _instance(rng, n=10, d=3)
    state = GateState.fresh(3)
    with pytest.raises(ValueError, match="margin model"):
        loss_gradient(ds, np.ones(3), state, "dufs-mls")
    with pytest.raises(ValueError, match="variant"):
        loss_gradient(ds, np.ones(3), state, "nope")


@pytest.mark.parametrize("bandwidth", [0.0, -1.0, 1e-320, math.nan, math.inf])
def test_dufs_bandwidth_without_a_finite_reciprocal_is_a_value_error(rng, bandwidth):
    # 0 raised ZeroDivisionError, -1 gave a loss built from exp(+D), and inf
    # a kernel of ones
    ds = _instance(rng, n=10, d=3)
    state = GateState.fresh(3)
    z = np.full(3, 0.5)
    with pytest.raises(ValueError, match="bandwidth must be positive with a finite"):
        dufs_loss(ds, z, state, bandwidth=bandwidth)
    with pytest.raises(ValueError, match="bandwidth must be positive with a finite"):
        loss_gradient(ds, z, state, "dufs", bandwidth=bandwidth)


def test_duplicated_columns_get_equal_gradients(rng):
    f = rng.standard_normal(18)
    other = rng.standard_normal(18)
    ds = Dataset(values=np.column_stack([f, f, other]), feature_names=["a", "b", "c"])
    state = GateState.fresh(3)
    z = np.array([0.6, 0.6, 0.4])
    bw = dufs_bandwidth(ds.values * z)
    grad = loss_gradient(ds, z, state, "dufs", bandwidth=bw)
    assert abs(grad[0] - grad[1]) <= 1e-12 * max(1.0, abs(grad[0]))

    model = build_margin_model(ds, MarginConfig(quantile=0.15))
    grad = loss_gradient(ds, z, state, "dufs-mls", model=model)
    assert abs(grad[0] - grad[1]) <= 1e-12 * max(1.0, abs(grad[0]))


def _constant_column_instance():
    # three N(0,1) columns and d, held at 1e30: d's smoothness is 0 in exact
    # arithmetic, where its uncentred form leaves rounding of size eps n 1e60
    values = np.column_stack([np.random.default_rng(0).standard_normal((50, 3)),
                              np.full(50, 1e30)])
    return Dataset(values=values, feature_names=["a", "b", "c", "d"])


def test_dufs_loss_ignores_the_gate_of_a_constant_column():
    ds = _constant_column_instance()
    state = GateState(mu=np.array([0.1, -0.2, 0.3, 0.0]))
    # at these gates the uncentred form gave d a smoothness of 5.7e45
    z = np.array([0.6, 0.6, 0.4, 0.0])
    want = dufs_loss(ds, z, state)
    assert want < 0.0
    for z_d in (0.3, 0.8, 1.0):
        z[3] = z_d
        assert dufs_loss(ds, z, state) == want


def test_dufs_gradient_of_a_constant_column_is_the_open_probability_term():
    ds = _constant_column_instance()
    state = GateState(mu=np.array([0.1, -0.2, 0.3, 0.0]))
    z = np.array([0.6, 0.6, 0.4, 0.6])
    bw = dufs_bandwidth(ds.values * z)
    grad = loss_gradient(ds, z, state, "dufs", bandwidth=bw)
    denom = state.m_gates * open_prob(state).sum() + state.delta
    trace = -dufs_loss(ds, z, state, bandwidth=bw) * denom
    x = (state.mu[3] + 0.5) / state.sigma
    phi_over_sigma = math.exp(-0.5 * x * x) / (math.sqrt(2.0 * math.pi) * state.sigma)
    want = trace * state.m_gates * phi_over_sigma / denom**2
    assert abs(grad[3] - want) <= 1e-12 * abs(want)
    assert np.isfinite(grad).all() and np.abs(grad).max() < 10.0


def test_dufs_epoch_runs_its_products_over_the_open_varying_columns(monkeypatch):
    # a closed gate or a constant column adds exactly 0 to the distances and
    # to both products by the gated rows, so the rows the kernel is built
    # from, [X | 1 | sq], hold only the columns with an open gate that vary
    values = np.random.default_rng(3).standard_normal((30, 6))
    values[:, 4] = 2.5
    ds = Dataset(values=values, feature_names=[f"f{j}" for j in range(6)])
    state = GateState(mu=np.random.default_rng(4).normal(0.0, 0.3, 6))
    widths = []
    original = gates._sq_blocks

    def recorded(centred, *args, **kwargs):
        widths.append(centred.aug.shape[1])
        return original(centred, *args, **kwargs)

    monkeypatch.setattr(gates, "_sq_blocks", recorded)
    step = gates._epoch_step(ds, "dufs", None)

    # columns 0 and 3 closed, 4 constant: 1, 2 and 5 are open and vary
    loss, grad = step(np.array([0.0, 1.0, 0.3, 0.0, 0.8, 0.6]), state)
    assert widths == [2 + 3]
    # dT/dmu is 0 for them, so only the open-probability term moves them
    denom = state.m_gates * open_prob(state).sum() + state.delta
    open_term = gates._ratio(state, -loss * denom, None)[1]
    assert np.abs(grad - open_term)[[0, 3, 4]].max() <= 1e-12 * np.abs(open_term).max()

    # every gate closed: no kernel, a loss of 0 and, with a trace of 0, an
    # open-probability term of 0
    loss, grad = step(np.zeros(6), state)
    assert widths == [2 + 3]
    assert loss == 0.0
    assert np.array_equal(grad, np.zeros(6))


@pytest.mark.parametrize("gate_mean", [-10.0, 10.0], ids=["closed", "open"])
def test_dufs_loss_overflow_is_named_whatever_the_gate(gate_mean):
    # the squares of column x overflow. Closed, it adds 0 x inf to the loss;
    # open, it overflows the distances too. The check on its squares runs
    # before the first epoch, so it names x whichever way x's gate falls
    values = np.random.default_rng(0).standard_normal((50, 4))
    values[:, 3] *= 1e200
    ds = Dataset(values=values, feature_names=["a", "b", "c", "x"])
    state = GateState(mu=np.array([0.0, 0.0, 0.0, gate_mean]))
    z = sample_gates(state, np.random.default_rng(1))
    assert z[3] == (0.0 if gate_mean < 0 else 1.0)
    want = "values too large: the dufs loss of feature 'x' overflows"
    with pytest.raises(DataError, match=want):
        dufs_loss(ds, z, state)
    with pytest.raises(DataError, match=want):
        train(ds, TrainConfig(epochs=2), state)


def _bench_seed_1_draw():
    # the draw of setup 2, rho 0.95, n = 1000, rep 0 of ``bench --seed 1``
    seed = int(np.random.SeedSequence([1, 2, 950, 0]).generate_state(1)[0])
    return gen_setup(SynthSpec(setup=2, rho=0.95, n_samples=1000, seed=seed)).dataset


def test_fresh_dufs_gradient_ranks_the_planted_columns_first():
    # with every gate at 0.5 the gradient puts the five planted columns 5-9
    # first, each at most -8.85 against at least -5.37 for the noise block
    ds = _bench_seed_1_draw()
    grad = loss_gradient(ds, np.full(10, 0.5), GateState.fresh(10), "dufs")
    assert sorted(np.argsort(grad)[:5].tolist()) == [5, 6, 7, 8, 9]
    assert grad[5:].max() < -8.8 and grad[:5].min() > -5.4


def test_trained_dufs_ranks_the_planted_columns_first():
    # descent keeps the gradient's ranking: after 100 epochs at the default
    # lr the planted columns have the five largest gate means. A step that
    # moved every gate by about lr, whatever its gradient, would lose it
    report, _ = score_dataset(_bench_seed_1_draw(), "dufs",
                              train_config=TrainConfig(epochs=100))
    assert sorted(select_top(report, 5)) == [5, 6, 7, 8, 9]


def test_margin_variant_gradient_is_flat_across_features(rng):
    # gating a feature rescales its numerator and variance alike, so the
    # score part of the gradient cancels and only the open-probability
    # term survives; with equal mu that term is identical per coordinate
    ds = _instance(rng, n=30, d=6)
    model = build_margin_model(ds, MarginConfig(quantile=0.1))
    state = GateState.fresh(6)
    z = rng.uniform(0.2, 0.8, 6)
    grad = loss_gradient(ds, z, state, "dufs-mls", model=model)
    assert np.ptp(grad) == 0.0
    assert grad[0] != 0.0


def test_margin_variant_loss_ignores_gate_scaling(rng):
    # the same cancellation at the loss level: shrinking every open gate
    # leaves the loss unchanged
    ds = _instance(rng, n=20, d=5)
    model = build_margin_model(ds, MarginConfig(quantile=0.1))
    state = GateState.fresh(5)
    z = rng.uniform(0.3, 1.0, 5)
    a = dufs_mls_loss(ds, z, state, model)
    b = dufs_mls_loss(ds, 0.25 * z, state, model)
    assert abs(a - b) <= 1e-9 * max(1.0, abs(a))


# -------------------------------------------------------------------- train


def test_train_deterministic(rng):
    ds = _instance(rng, n=15, d=4)
    config = TrainConfig(epochs=12, seed=5)
    a = train(ds, config, GateState.fresh(4))
    b = train(ds, config, GateState.fresh(4))
    assert np.array_equal(a.mu, b.mu)
    assert np.array_equal(a.loss_history, b.loss_history)
    assert np.array_equal(a.open_probabilities, b.open_probabilities)


def test_train_trace_shape(rng):
    ds = _instance(rng, n=15, d=4)
    trace = train(ds, TrainConfig(epochs=7), GateState.fresh(4))
    assert isinstance(trace, TrainTrace)
    assert trace.loss_history.shape == (7,)
    assert trace.mu.shape == (4,)
    assert (trace.open_probabilities >= 0).all()
    assert (trace.open_probabilities <= 1).all()
    assert np.allclose(trace.open_probabilities, ndtr((trace.mu + 0.5) / 0.5))
    assert trace.warnings == []


def test_train_does_not_mutate_input_state(rng):
    ds = _instance(rng, n=15, d=4)
    state = GateState.fresh(4)
    train(ds, TrainConfig(epochs=5), state)
    assert np.array_equal(state.mu, np.zeros(4))


def test_train_margin_variant_needs_model(rng):
    ds = _instance(rng, n=15, d=4)
    with pytest.raises(ValueError, match="margin model"):
        train(ds, TrainConfig(loss_variant="dufs-mls"), GateState.fresh(4))


def test_train_flags_missing_margin_signal(rng):
    ds = _instance(rng, n=15, d=4)
    model = build_margin_model(ds, MarginConfig(quantile=0.1, k=40))
    assert not model.u.any()
    trace = train(
        ds, TrainConfig(epochs=3, loss_variant="dufs-mls"), GateState.fresh(4), model
    )
    assert trace.warnings == ["no sample carries margin weight; scores are all zero"]


def test_train_dufs_mls_moves_fresh_gate_means_in_lockstep(rng):
    # only the open-probability term moves mu, and it is the same for
    # equal means, so gates that start equal stay exactly equal
    ds = _instance(rng, n=25, d=6)
    model = build_margin_model(ds, MarginConfig(quantile=0.1))
    config = TrainConfig(epochs=20, seed=3, loss_variant="dufs-mls")
    trace = train(ds, config, GateState.fresh(6), model)
    assert np.ptp(trace.mu) == 0.0
    assert trace.mu[0] != 0.0


def _descent_loop(ds, config, loss_and_grad):
    # the epoch loop of train, written out against the public functions
    state = GateState.fresh(ds.n_features)
    gen = np.random.default_rng(config.seed)
    losses = []
    for _ in range(config.epochs):
        z = sample_gates(state, gen)
        loss, grad = loss_and_grad(z, state)
        losses.append(loss)
        state.mu = state.mu - config.learning_rate * grad
    return losses, state.mu


@pytest.mark.parametrize("offset", [None, 1e4], ids=["standardized", "raw"])
def test_train_dufs_matches_separate_bandwidth_loop(rng, offset):
    # train takes the bandwidth from its own distances of (F - c_F) z, and
    # dufs_bandwidth centres the gated rows F z, so the two agree only to
    # rounding. On the standardized table they differ in the last bit at
    # epochs 9 and 10 (0-based), and the gradients by 3.9e-16 relative; with
    # column means of 1e4 they differ at most epochs, by up to 6e-14
    # relative, and the runs part by 2.5e-14 relative in the loss and
    # 1.5e-14 in mu, well inside the 1e-12 allowed here
    if offset is None:
        ds = _instance(rng, n=25, d=6)
    else:
        ds = Dataset(values=rng.standard_normal((25, 6)) + offset,
                     feature_names=[f"f{j}" for j in range(6)])
    config = TrainConfig(epochs=15, seed=11)
    trace = train(ds, config, GateState.fresh(6))

    def loss_and_grad(z, state):
        bandwidth = dufs_bandwidth(ds.values * z)
        return (
            dufs_loss(ds, z, state, bandwidth=bandwidth),
            loss_gradient(ds, z, state, "dufs", bandwidth=bandwidth),
        )

    losses, mu = _descent_loop(ds, config, loss_and_grad)
    assert np.allclose(trace.loss_history, losses, rtol=1e-12, atol=0.0)
    assert np.allclose(trace.mu, mu, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("n", [25, 65])
def test_train_dufs_buffers_match_public_loss_loop(rng, n):
    # train reuses its block and n x d buffers across epochs and the public
    # functions allocate their own per call; with 32-row kernel blocks
    # n = 65 takes three blocks, the last of one row, so the reused buffers
    # also hold blocks of a shape they were not sized for
    ds = _instance(rng, n=n, d=6)
    config = TrainConfig(epochs=15, seed=11)

    def loss_and_grad(z, state):
        return dufs_loss(ds, z, state), loss_gradient(ds, z, state, "dufs")

    with blocking(32):
        trace = train(ds, config, GateState.fresh(6))
        losses, mu = _descent_loop(ds, config, loss_and_grad)
    assert np.array_equal(trace.loss_history, losses)
    assert trace.mu.tobytes() == mu.tobytes()


@pytest.mark.parametrize("epochs", [1, 7])
@pytest.mark.parametrize("variant, per_run", [("dufs", "_centre"),
                                              ("dufs-mls", "_mls_terms")])
def test_train_does_its_per_run_work_once(rng, monkeypatch, epochs, variant, per_run):
    # dufs centres the rows and dufs-mls scores the features before the
    # first epoch, not in every epoch
    ds = _instance(rng, n=20, d=4)
    model = build_margin_model(ds, MarginConfig(quantile=0.1))
    calls = []
    original = getattr(gates, per_run)

    def counted(*args, **kwargs):
        calls.append(per_run)
        return original(*args, **kwargs)

    monkeypatch.setattr(gates, per_run, counted)
    config = TrainConfig(epochs=epochs, loss_variant=variant)
    trace = train(ds, config, GateState.fresh(4), model)
    assert trace.loss_history.size == epochs
    assert calls == [per_run]


def test_dufs_gradient_holds_no_n_by_n_matrix():
    # two 3000 x 3000 matrices, the kernel and W o G, would take 144 MB;
    # two 128-row blocks of them take 6.1 MB, and the four arrays of about
    # n x d (Fc and the buffers for the gated rows [X | 1 | sq], W [X | 1]
    # and (W o G) [X_mid | 1]) 0.5 MB each: 8.3 MB in all. One more n x d
    # array, held or made per epoch, takes it to 8.7-8.8 MB, so the bound
    # leaves less than that. The open probabilities come from math.erfc,
    # which imports nothing that tracemalloc would count.
    ds = Dataset(values=np.random.default_rng(0).standard_normal((3000, 20)),
                 feature_names=[f"f{j}" for j in range(20)])
    state = GateState.fresh(20)
    grad, peak = traced_peak(lambda: loss_gradient(ds, np.full(20, 0.5), state, "dufs"))
    assert np.isfinite(grad).all()
    assert peak < 8.7e6, f"dufs peaked at {peak / 1e6:.1f} MB"


def test_train_dufs_mls_matches_public_loss_loop(rng):
    # train scores the features once before its loop; a loop that calls the
    # public loss and gradient, which score them per call, must agree bitwise
    ds = _instance(rng, n=25, d=6)
    model = build_margin_model(ds, MarginConfig(quantile=0.1))
    config = TrainConfig(epochs=15, seed=11, loss_variant="dufs-mls")
    trace = train(ds, config, GateState.fresh(6), model)

    def loss_and_grad(z, state):
        return (
            dufs_mls_loss(ds, z, state, model),
            loss_gradient(ds, z, state, "dufs-mls", model=model),
        )

    losses, mu = _descent_loop(ds, config, loss_and_grad)
    assert np.array_equal(trace.loss_history, losses)
    assert trace.mu.tobytes() == mu.tobytes()
