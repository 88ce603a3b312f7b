"""Unit tests for the uncertainty decompositions."""
import math

import numpy as np
import pytest

from apil_lab.agent import PersonaAgent
from apil_lab.envs import EnvState, GridPos, make_env
from apil_lab.teachers import TeacherResponse
from apil_lab.uncertainty import (UncertaintyConfig, aggregate, entropy,
                                  estimate, mean_report)


class _StubAgent:
    """Fixed identity mixture and per-identity policies, no network."""

    def __init__(self, rho, policies):
        self._rho = np.asarray(rho, dtype=np.float64)
        self._policies = [np.asarray(p, dtype=np.float64) for p in policies]
        self.n_teachers = len(self._policies)
        self.n_actions = self._policies[0].size

    def identity_probs(self, features):
        return self._rho

    def posterior_draw(self, rng):
        return None  # no network, so nothing for the posterior to perturb

    def policy_probs(self, features, identity, draw=None):
        return self._policies[identity]


class _FeatureSwitchAgent(_StubAgent):
    """Single identity; uniform policy at features[0] == 0, delta otherwise."""

    def __init__(self):
        super().__init__([1.0], [np.array([0.5, 0.5])])

    def policy_probs(self, features, identity, draw=None):
        if features[0] == 0.0:
            return np.array([0.5, 0.5])
        return np.array([1.0, 0.0])


def test_entropy_examples():
    assert entropy(np.array([0.5, 0.5])) == pytest.approx(math.log(2), abs=1e-15)
    assert entropy(np.array([1.0, 0.0])) == 0.0
    assert entropy(np.full(4, 0.25)) == pytest.approx(math.log(4), abs=1e-15)


def test_entropy_rejects_malformed_input():
    with pytest.raises(ValueError):
        entropy(np.array([0.5, 0.4]))
    with pytest.raises(ValueError):
        entropy(np.array([[0.5, 0.5]]))
    with pytest.raises(ValueError):
        entropy(np.array([]))
    with pytest.raises(ValueError):
        entropy(np.array([1.5, -0.5]))


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


def test_estimate_two_delta_committee_limits():
    agent = _StubAgent([0.5, 0.5], [np.array([1.0, 0.0]), np.array([0.0, 1.0])])
    rep = estimate(agent, np.zeros(4), UncertaintyConfig(10_000, 10),
                   np.random.default_rng(0))
    assert rep.intrinsic == 0.0
    assert rep.extrinsic == pytest.approx(math.log(2), abs=0.01)
    assert abs(rep.model) <= 0.01


def test_estimate_uniform_policy_is_pure_intrinsic():
    agent = _StubAgent([1.0], [np.array([0.5, 0.5])])
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
    features = env.encode(EnvState(GridPos(0, 0), GridPos(4, 4), 0, False))
    rng = np.random.default_rng(0)
    agent = PersonaAgent(env.state_dim, env.n_actions, 1, rng)
    cfg = UncertaintyConfig(1, 2000)
    before = estimate(agent, features, cfg, rng).model
    precision = agent.head_precision.copy()
    for _ in range(1000):
        agent.exe_losses(features, TeacherResponse(env.RIGHT, 0, 8.0))
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
