import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import ndtr

from mlscore.data import Dataset, standardize
from mlscore.gates import (
    GateState,
    _dufs_core,
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
from mlscore.scores import mls
from oracles import dufs_core_dense


def _instance(rng, n=20, d=5):
    ds = Dataset(
        values=rng.standard_normal((n, d)),
        feature_names=[f"f{j}" for j in range(d)],
    )
    scaled, _ = standardize(ds)
    return scaled


def _state_like(state, mu):
    return GateState(
        mu=mu,
        sigma=state.sigma,
        delta=state.delta,
        m_gates=state.m_gates,
        sign_flip=state.sign_flip,
    )


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
    with pytest.raises(ValueError, match="sigma"):
        GateState(mu=np.zeros(3), sigma=0.0)
    with pytest.raises(ValueError, match="delta"):
        GateState(mu=np.zeros(3), delta=-1.0)
    with pytest.raises(ValueError, match="m_gates"):
        GateState(mu=np.zeros(3), m_gates=0)


def test_gate_state_fresh_defaults():
    state = GateState.fresh(4)
    assert np.array_equal(state.mu, np.zeros(4))
    assert state.sigma == 0.5
    assert state.m_gates == 4


def test_train_config_validation():
    with pytest.raises(ValueError, match="epochs"):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError, match="learning_rate"):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError, match="loss_variant"):
        TrainConfig(loss_variant="nope")


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

    from mlscore.margins import interaction_weights

    W = interaction_weights(model).weights
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
    # zeroing the same column in the data changes nothing: that feature is off
    X = ds.values.copy()
    X[:, 1] = 0.0
    other = dufs_mls_loss(
        Dataset(values=X, feature_names=ds.feature_names), np.ones(4), state, model
    )
    assert abs(with_dead - other) <= 1e-12


def test_sign_flip_negates_losses(rng):
    ds = _instance(rng, n=15, d=4)
    model = build_margin_model(ds, MarginConfig(quantile=0.15))
    z = rng.uniform(0.2, 0.9, 4)
    plain = GateState.fresh(4)
    flipped = GateState.fresh(4, sign_flip=True)
    bw = dufs_bandwidth(ds.values * z)
    assert dufs_loss(ds, z, flipped, bandwidth=bw) == -dufs_loss(ds, z, plain, bandwidth=bw)
    assert dufs_mls_loss(ds, z, flipped, model) == -dufs_mls_loss(ds, z, plain, model)


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
            ds, np.clip(0.5 + m + eps, 0.0, 1.0), _state_like(state, m), bandwidth=bw
        )

    fd = _fd_gradient(loss_of_mu, mu)
    keep = _checkable(mu, eps)
    assert keep.any()
    rel = np.abs(grad - fd)[keep] / np.maximum(np.abs(fd)[keep], 1e-8)
    assert rel.max() <= 1e-4


@given(st.data())
def test_dufs_core_matches_dense_oracle(data):
    # the core never forms P or a fresh Gram matrix; the oracle forms both
    n = data.draw(st.integers(3, 40), label="n")
    d = data.draw(st.integers(1, 8), label="d")
    gen = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    F = gen.standard_normal((n, d))
    # saturated (0 or 1) and open gates, in any mix
    z = np.array(data.draw(st.lists(
        st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.01, 0.99)),
        min_size=d, max_size=d), label="z"))
    state = GateState(
        mu=gen.normal(0.0, 0.5, d), sign_flip=data.draw(st.booleans(), label="sign_flip")
    )
    bandwidth = data.draw(st.one_of(st.none(), st.floats(0.1, 50.0)), label="bandwidth")
    ds = Dataset(values=F, feature_names=[f"f{j}" for j in range(d)])

    loss, grad = _dufs_core(ds, z, state, bandwidth, want_grad=True)
    want_loss, want_grad = dufs_core_dense(F, z, state, bandwidth, want_grad=True)
    # the trace is a difference of terms of the size of |gated|^2, and its
    # rounding reaches the gradient through the open-probability term, whose
    # factor m phi / denom is below m / (sigma denom). A narrow kernel can
    # cancel the trace to near 0; both cores then keep only its rounding.
    denom = state.m_gates * open_prob(state).sum() + state.delta
    loss_scale = float(((F * z) ** 2).sum()) / denom
    assert abs(loss - want_loss) <= 1e-12 * loss_scale
    grad_scale = np.abs(want_grad).max() + loss_scale * state.m_gates / (state.sigma * denom)
    assert np.abs(grad - want_grad).max() <= 1e-12 * grad_scale
    assert _dufs_core(ds, z, state, bandwidth, want_grad=False) == (loss, None)


def test_dufs_mls_gradient_matches_finite_differences(rng):
    ds = _instance(rng, n=25, d=6)
    model = build_margin_model(ds, MarginConfig(quantile=0.1))
    mu = rng.normal(0.0, 0.3, 6)
    eps = rng.normal(0.0, 0.5, 6)
    state = GateState(mu=mu)
    z = np.clip(0.5 + mu + eps, 0.0, 1.0)
    grad = loss_gradient(ds, z, state, "dufs-mls", model=model)

    def loss_of_mu(m):
        return dufs_mls_loss(ds, np.clip(0.5 + m + eps, 0.0, 1.0), _state_like(state, m), model)

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
    assert not trace.no_margin_signal


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
    assert trace.no_margin_signal


def test_train_dufs_mls_moves_fresh_gate_means_in_lockstep(rng):
    # only the open-probability term moves mu, and it is the same for
    # equal means, so gates that start equal stay exactly equal
    ds = _instance(rng, n=25, d=6)
    model = build_margin_model(ds, MarginConfig(quantile=0.1))
    config = TrainConfig(epochs=20, seed=3, loss_variant="dufs-mls")
    trace = train(ds, config, GateState.fresh(6), model)
    assert np.ptp(trace.mu) == 0.0
    assert trace.mu[0] != 0.0


def _adam_loop(ds, config, loss_and_grad):
    # the epoch loop of train, written out against the public functions
    state = GateState.fresh(ds.n_features)
    gen = np.random.default_rng(config.seed)
    m_acc = np.zeros(ds.n_features)
    v_acc = np.zeros(ds.n_features)
    losses = []
    for epoch in range(config.epochs):
        z = sample_gates(state, gen)
        loss, grad = loss_and_grad(z, state)
        losses.append(loss)
        m_acc = 0.9 * m_acc + (1.0 - 0.9) * grad
        v_acc = 0.999 * v_acc + (1.0 - 0.999) * grad * grad
        m_hat = m_acc / (1.0 - 0.9 ** (epoch + 1))
        v_hat = v_acc / (1.0 - 0.999 ** (epoch + 1))
        state.mu = state.mu - config.learning_rate * m_hat / (np.sqrt(v_hat) + 1e-8)
    return losses, state.mu


def test_train_dufs_matches_separate_bandwidth_loop(rng):
    # train takes the bandwidth from the kernel's own distances; an epoch
    # loop that computes it apart through dufs_bandwidth must agree bitwise
    ds = _instance(rng, n=25, d=6)
    config = TrainConfig(epochs=15, seed=11)
    trace = train(ds, config, GateState.fresh(6))

    def loss_and_grad(z, state):
        bandwidth = dufs_bandwidth(ds.values * z)
        return (
            dufs_loss(ds, z, state, bandwidth=bandwidth),
            loss_gradient(ds, z, state, "dufs", bandwidth=bandwidth),
        )

    losses, mu = _adam_loop(ds, config, loss_and_grad)
    assert np.array_equal(trace.loss_history, losses)
    assert trace.mu.tobytes() == mu.tobytes()


@pytest.mark.parametrize("n", [25, 65])
def test_train_dufs_buffers_match_public_loss_loop(rng, n):
    # train reuses its n x n buffers across epochs and the public functions
    # allocate their own per call; n = 65 spans two row blocks of the
    # distance helper
    ds = _instance(rng, n=n, d=6)
    config = TrainConfig(epochs=15, seed=11)
    trace = train(ds, config, GateState.fresh(6))

    def loss_and_grad(z, state):
        return dufs_loss(ds, z, state), loss_gradient(ds, z, state, "dufs")

    losses, mu = _adam_loop(ds, config, loss_and_grad)
    assert np.array_equal(trace.loss_history, losses)
    assert trace.mu.tobytes() == mu.tobytes()


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

    losses, mu = _adam_loop(ds, config, loss_and_grad)
    assert np.array_equal(trace.loss_history, losses)
    assert trace.mu.tobytes() == mu.tobytes()
