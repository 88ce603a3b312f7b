"""Unit tests for the uncertainty decompositions."""
import math
from dataclasses import asdict

import numpy as np
import pytest
from helpers import per_draw_estimate, state_at

from apil_lab import agent as agent_module
from apil_lab import nncore
from apil_lab.agent import PersonaAgent
from apil_lab.envs import make_env
from apil_lab.teachers import TeacherResponse, make_committee
from apil_lab.training import RunConfig, run_training
from apil_lab.uncertainty import (UncertaintyConfig, aggregate, entropy,
                                  estimate, mean_report)


class _StubAgent:
    """Fixed identity mixture and per-identity logits ``(K, A)``, no network,
    so no posterior spread."""

    def __init__(self, rho, logits):
        self._rho = np.asarray(rho, dtype=np.float64)
        self._cdf = nncore.categorical_cdf(self._rho)
        self._logits = np.asarray(logits, dtype=np.float64)
        self.n_teachers, self.n_actions = self._logits.shape

    def identity_probs(self, features):
        # one mixture at one state, the same one at each state of a stack
        return np.broadcast_to(self._rho, (*features.shape[:-1], self.n_teachers))

    def identity_cdf(self, features):
        return np.broadcast_to(self._cdf, (*features.shape[:-1], self.n_teachers))

    def logit_posterior(self, features):
        return _posterior(np.broadcast_to(
            self._logits, (*features.shape[:-1], *self._logits.shape)))


def _posterior(mean):
    """Mean logits ``(..., K, A)`` with a zero factor ``(..., A, K, K)``."""
    *lead, k, a = mean.shape
    return mean, np.zeros((*lead, a, k, k))


DELTA, UNIFORM = [0.0, -np.inf], [0.0, 0.0]  # logits of [1, 0] and [.5, .5]


class _FeatureSwitchAgent(_StubAgent):
    """Single identity; uniform policy at features[0] == 0, delta otherwise."""

    def __init__(self):
        super().__init__([1.0], [UNIFORM])

    def logit_posterior(self, features):
        uniform = features[..., 0, None, None] == 0.0
        return _posterior(np.where(uniform, [UNIFORM], [DELTA]))


def test_entropy_examples():
    assert entropy(np.array([0.5, 0.5])) == pytest.approx(math.log(2), abs=1e-15)
    assert entropy(np.array([1.0, 0.0])) == 0.0
    assert entropy(np.full(4, 0.25)) == pytest.approx(math.log(4), abs=1e-15)


def test_entropy_rejects_malformed_input():
    with pytest.raises(ValueError):
        entropy(np.array([0.5, 0.4]))
    with pytest.raises(ValueError):
        entropy(np.array([[0.5, 0.5], [0.5, 0.4]]))  # one bad row in a stack
    with pytest.raises(ValueError):
        entropy(np.array(1.0))
    with pytest.raises(ValueError):
        entropy(np.array([]))
    with pytest.raises(ValueError):
        entropy(np.array([1.5, -0.5]))
    with pytest.raises(ValueError):
        entropy(np.array([[1.5, -0.5]]))


def test_entropy_rejects_nan():
    """NaN fails every comparison, so it must fail the acceptance test."""
    with pytest.raises(ValueError, match="normalized"):
        entropy(np.array([np.nan, np.nan]))
    with pytest.raises(ValueError, match="normalized"):
        entropy(np.array([[0.5, 0.5], [np.nan, 1.0], [1.0, 0.0]]))


def test_entropy_of_a_stack_equals_its_rows():
    rng = np.random.default_rng(0)
    stack = rng.random((9, 4))
    stack[rng.random(stack.shape) < 0.3] = 0.0
    stack[:, 1] += 1e-3
    stack /= stack.sum(axis=1, keepdims=True)
    rows = entropy(stack)
    assert isinstance(entropy(stack[0]), float)
    assert rows.shape == (9,)
    for probs, h in zip(stack, rows):
        assert entropy(probs) == h


def test_config_validation():
    assert UncertaintyConfig().n1 == 5
    assert UncertaintyConfig().n2 == 10
    with pytest.raises(ValueError):
        UncertaintyConfig(n1=0)
    with pytest.raises(ValueError):
        UncertaintyConfig(n2=0)


def test_estimate_deterministic_single_teacher_is_all_zero():
    rng = np.random.default_rng(0)
    agent = PersonaAgent(4, 2, 1, rng, hidden=8, persona_dim=3,
                         prior_precision=math.inf)
    for p in agent.exe_net.params:
        p.value[...] = 0.0
    agent.exe_net.out.b.value[...] = [1000.0, 0.0]  # softmax underflows to a delta
    rep = estimate(agent, np.zeros(4), UncertaintyConfig(5, 4), rng)
    assert (rep.intrinsic, rep.extrinsic, rep.behavioral, rep.total,
            rep.model) == (0.0, 0.0, 0.0, 0.0, 0.0)


@pytest.mark.parametrize("k", [1, 2])
def test_a_one_teacher_pick_draws_nothing(k):
    """With one identity every pick is 0: the mean policy is bitwise the
    policy row and takes no number, and the estimate takes its normals
    alone. With two, the mean takes its N1 uniforms and the estimate its
    N2 x N1 after the normals."""
    env = make_env("maze", None)
    agent = PersonaAgent(env.state_dim, env.n_actions, k,
                         np.random.default_rng(0))
    features = env.encode(env.reset())
    cfg = UncertaintyConfig(5, 3)
    ours, twin = np.random.default_rng(1), np.random.default_rng(1)
    mean = agent.mean_exe_policy(features, cfg.n1, ours)
    if k == 1:
        assert mean.tobytes() == agent.policy_probs(features, 0).tobytes()
    else:
        twin.random(cfg.n1)
    assert ours.bit_generator.state == twin.bit_generator.state
    estimate(agent, features, cfg, ours)
    twin.standard_normal((cfg.n2, env.n_actions, k))
    if k > 1:
        twin.random((cfg.n2, cfg.n1))
    assert ours.bit_generator.state == twin.bit_generator.state


def test_estimate_two_delta_committee_limits():
    agent = _StubAgent([0.5, 0.5], [DELTA, DELTA[::-1]])
    rep = estimate(agent, np.zeros(4), UncertaintyConfig(10_000, 10),
                   np.random.default_rng(0))
    assert rep.intrinsic == 0.0
    assert rep.extrinsic == pytest.approx(math.log(2), abs=0.01)
    assert abs(rep.model) <= 0.01


def test_estimate_uniform_policy_is_pure_intrinsic():
    agent = _StubAgent([1.0], [UNIFORM])
    for n1 in (1, 3, 10):
        rep = estimate(agent, np.zeros(4), UncertaintyConfig(n1, 4),
                       np.random.default_rng(0))
        assert rep.intrinsic == pytest.approx(math.log(2), abs=1e-15)
        assert rep.extrinsic == 0.0
        assert rep.model == 0.0


def test_report_identities_are_exact():
    rng = np.random.default_rng(0)
    agent = PersonaAgent(25, 2, 2, rng)
    for trial in range(20):
        features = np.zeros(25)
        features[trial % 25] = 0.5
        rep = estimate(agent, features, UncertaintyConfig(), rng)
        assert abs(rep.behavioral - (rep.intrinsic + rep.extrinsic)) <= 1e-12
        assert abs(rep.total - (rep.model + rep.behavioral)) <= 1e-12
        assert rep.intrinsic >= 0.0
        assert rep.total >= 0.0
        assert rep.extrinsic >= -1e-12


def test_estimate_with_dropout_off_has_no_model_term():
    """An infinite prior precision switches the posterior off."""
    rng = np.random.default_rng(0)
    single = PersonaAgent(4, 2, 1, rng, hidden=8, persona_dim=3,
                          prior_precision=math.inf)
    rep = estimate(single, np.zeros(4), UncertaintyConfig(5, 6), rng)
    assert abs(rep.model) <= 1e-12

    pair = PersonaAgent(4, 2, 2, rng, hidden=8, persona_dim=3,
                        prior_precision=math.inf)
    rep = estimate(pair, np.zeros(4), UncertaintyConfig(5, 6), rng)
    assert 0.0 <= rep.model < 0.05  # only identity-sampling noise remains


def test_model_term_shrinks_with_queried_data():
    """README contract, free of identity-sampling inflation: one teacher, one
    state, many posterior draws."""
    env = make_env("grid", None)
    features = env.encode(state_at(env, 0, 0))
    rng = np.random.default_rng(0)
    agent = PersonaAgent(env.state_dim, env.n_actions, 1, rng)
    cfg = UncertaintyConfig(1, 2000)
    before = estimate(agent, features, cfg, rng).model
    precision = agent.head_precision.copy()
    for _ in range(1000):
        agent.exe_losses(features[None], [TeacherResponse(env.RIGHT, 0, 8.0)])
        agent.end_episode_update()
        assert np.all(agent.head_precision >= precision)
        precision = agent.head_precision.copy()
    after = estimate(agent, features, cfg, rng).model
    assert 0.0 <= after < before


def test_mean_report_weighted_average():
    agent = _FeatureSwitchAgent()
    uniform_state = np.zeros(4)
    delta_state = np.ones(4)
    cfg = UncertaintyConfig(3, 4)
    rng = np.random.default_rng(0)
    reports = [estimate(agent, s, cfg, rng)
               for s in (uniform_state, delta_state)]
    rep = aggregate(reports, [3.0, 1.0], cfg)
    assert rep.state_id == "mean"
    assert rep.intrinsic == pytest.approx(0.75 * math.log(2), abs=1e-12)
    assert rep.extrinsic == 0.0
    assert rep.model == 0.0
    even = mean_report(agent, [uniform_state, delta_state], cfg, rng)
    assert even.intrinsic == pytest.approx(0.5 * math.log(2), abs=1e-12)
    with pytest.raises(ValueError):
        mean_report(agent, [], cfg, rng)


@pytest.fixture(scope="module")
def oracle_agents():
    """(label, agent, states): grid and maze, one and two teachers, each
    trained briefly and untrained, plus an untrained three-identity agent."""
    out = []
    for env_name, teacher in (("grid", "detm"), ("grid", "twodifdetm"),
                              ("maze", "detm"), ("maze", "tworand")):
        result = run_training(RunConfig(method="dagger", env=env_name,
                                        teacher=teacher, episodes=40, seed=1,
                                        probe_every=0))
        env, states = result.env, result.probe_features[::7]
        fresh = PersonaAgent(env.state_dim, env.n_actions,
                             make_committee(teacher).size,
                             np.random.default_rng(2))
        out.append((f"{env_name}/{teacher}/trained", result.agent, states))
        out.append((f"{env_name}/{teacher}/untrained", fresh, states))
    # three identities, so the order in which they accumulate matters
    out.append(("maze/three/untrained",
                PersonaAgent(env.state_dim, env.n_actions, 3,
                             np.random.default_rng(3)), states))
    return out


def test_batched_estimate_equals_the_per_draw_oracle(oracle_agents):
    """Every term within 1e-12 of the loop oracle, and the rng left at the
    same position. A stack of the states gives one report per state, each
    bitwise equal to its one-state call, and leaves its rng there too."""
    for label, agent, states in oracle_agents:
        for n1 in (1, 5, 50):
            for n2 in (1, 10):
                cfg = UncertaintyConfig(n1, n2)
                ours, theirs, stacked = (np.random.default_rng(n1 + 100 * n2)
                                         for _ in range(3))
                reports = estimate(agent, np.stack(states), cfg, stacked,
                                   state_id="s")
                assert len(reports) == len(states), label
                for features, from_stack in zip(states, reports):
                    got = asdict(estimate(agent, features, cfg, ours,
                                          state_id="s"))
                    want = asdict(per_draw_estimate(agent, features, cfg,
                                                    theirs, state_id="s"))
                    assert asdict(from_stack) == got, (label, n1, n2)
                    assert got.keys() == want.keys()
                    for key, value in want.items():
                        if isinstance(value, float):
                            assert abs(got[key] - value) <= 1e-12, (
                                label, n1, n2, key)
                        else:
                            assert got[key] == value, (label, n1, n2, key)
                assert ours.random() == theirs.random() == stacked.random(), (
                    label, n1, n2)


def test_stacked_logit_posterior_equals_one_state_calls(oracle_agents):
    """A stack of states gives each state's mean logits and factor bitwise
    as its one-state call, and the mean logits are the mean-weight forward
    of all K identities."""
    for label, agent, states in oracle_agents:
        k, a = agent.n_teachers, agent.n_actions
        means, factors = agent.logit_posterior(np.stack(states))
        assert means.shape == (len(states), k, a), label
        assert factors.shape == (len(states), a, k, k), label
        for features, stacked_mean, stacked_factor in zip(states, means,
                                                          factors):
            mean, factor = agent.logit_posterior(features)
            forward, _ = agent.exe_net.forward(features, np.arange(k))
            assert mean.tobytes() == forward.tobytes(), label
            assert stacked_mean.tobytes() == mean.tobytes(), label
            assert stacked_factor.tobytes() == factor.tobytes(), label


@pytest.fixture
def cdf_calls(monkeypatch):
    """The ``stack`` flag of every ``categorical_cdf`` call the agent and
    the estimate make while the test runs."""
    calls = []
    build = nncore.categorical_cdf

    def counted(p, stack=False):
        calls.append(stack)
        return build(p, stack)
    for module in (nncore, agent_module):
        monkeypatch.setattr(module, "categorical_cdf", counted)
    return calls


def _assert_matches_the_oracle(agent, states, cfg, reports, ours, seed):
    """Each report within 1e-12 of ``per_draw_estimate`` on a fresh stream
    of ``seed``, which it leaves where ``ours`` is."""
    theirs = np.random.default_rng(seed)
    for features, report in zip(states, reports):
        want = asdict(per_draw_estimate(agent, features, cfg, theirs))
        for key, value in asdict(report).items():
            if isinstance(value, float):
                assert abs(value - want[key]) <= 1e-12, key
            else:
                assert value == want[key], key
    assert ours.random() == theirs.random()


def test_estimate_builds_no_cdf(cdf_calls):
    """The picks come from rho's cdf as the agent holds it: a one-state
    estimate at a table hit builds no cdf, a stack's only cdf is the agent's
    stacked rho pass, and a stub's reader leaves a stack with none."""
    env = make_env("grid", None)
    states = [env.encode(state_at(env, r, c))
              for r, c in ((0, 0), (2, 1), (3, 4))]
    agent = PersonaAgent(env.state_dim, env.n_actions, 2,
                         np.random.default_rng(0))
    cfg = UncertaintyConfig(5, 10)
    agent.identity_cdf(states[0])  # the rho fill, a stack of one known state
    agent.identity_cdf(states[1])  # a later state, a one-row stack
    agent.identity_cdf(states[2])
    assert cdf_calls == [True] * 3
    del cdf_calls[:]

    ours = np.random.default_rng(7)
    reports = [estimate(agent, features, cfg, ours) for features in states]
    assert cdf_calls == []
    _assert_matches_the_oracle(agent, states, cfg, reports, ours, 7)

    ours = np.random.default_rng(8)
    reports = estimate(agent, np.stack(states), cfg, ours)
    assert cdf_calls == [True]
    _assert_matches_the_oracle(agent, states, cfg, reports, ours, 8)

    stub = _StubAgent([0.3, 0.7], [DELTA, UNIFORM])
    del cdf_calls[:]
    ours = np.random.default_rng(9)
    reports = estimate(stub, np.zeros((4, 3)), cfg, ours)
    assert cdf_calls == []
    _assert_matches_the_oracle(stub, np.zeros((4, 3)), cfg, reports, ours, 9)
