"""Unit tests for hindsight labeling, the ask net, and query policies."""
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from gradcheck import _small_query_net
from helpers import (ReferenceHindsightPolicy, brute_force_labels,
                     lemma2_gradient_check, make_trajectory)

from apil_lab import uncertainty
from apil_lab.envs import EnvState, GridPos
from apil_lab.nncore import categorical_cdf, softmax
from apil_lab.query import (ASK_CONTINUE, ASK_IGNORE, ASK_QUERY,
                            AlwaysQueryPolicy, ApilConfig, DaggerPolicy,
                            DecisionContext, ErrPredNet, ErrPredQueryPolicy,
                            HindsightQueryPolicy, NeverQueryPolicy, QueryNet,
                            StepRecord, ThresholdQueryPolicy, Trajectory,
                            apil_labels, ignore_labels, progress_flags,
                            query_imitation_loss)
from apil_lab.teachers import TeacherResponse
from apil_lab.uncertainty import UncertaintyConfig

CFG = ApilConfig()  # sigma 2, epsilon 0


def _ctx(rng=None, mean=(0.5, 0.5), train=True):
    return DecisionContext(features=np.zeros(2), remaining=1,
                           rng=rng or np.random.default_rng(0), agent=None,
                           mean_policy=lambda: np.array(mean), train=train)


def test_records_are_immutable_and_build_as_before():
    """The four per-step records refuse a write to any field, build
    positionally and by keyword, and keep their defaults and repr."""
    state = EnvState(GridPos(0, 0), GridPos(4, 4), 0, False)
    response = TeacherResponse(1, 0, 2.0)
    _, steps = _small_query_net(np.random.default_rng(0), None)
    step = StepRecord(features=np.zeros(2), exe_action=0, ask_action=1)
    for record in (state, response, steps[0], step, _ctx()):
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
    assert (response.exe_action, response.identity, response.dist) == (
        1, 0, 2.0)
    assert (step.mean_policy, step.remaining, step.state,
            step.response) == (None, 0, None, None)
    assert repr(response) == ("TeacherResponse(exe_action=1, identity=0, "
                              "dist=2.0)")
    assert repr(state) == ("EnvState(agent=GridPos(row=0, col=0), "
                           "goal=GridPos(row=4, col=4), step_count=0, "
                           "terminal=False)")


def test_labels_trivial_cases():
    # querying everywhere and finishing at the goal: nothing to fix
    always = make_trajectory(8, range(8), {t: float(8 - t) for t in range(9)})
    assert apil_labels(always, CFG) == [ASK_CONTINUE] * 8
    # no queries but a successful episode
    lucky = make_trajectory(8, [], {8: 0.0})
    assert apil_labels(lucky, CFG) == [ASK_CONTINUE] * 8
    # no queries and a failed episode: every step should have asked
    stuck = make_trajectory(8, [], {8: 3.0})
    assert apil_labels(stuck, CFG) == [ASK_QUERY] * 8


def test_labels_hand_traced_split():
    # the query at step 3 halves the gap (8 -> 2 vs final 1), so steps up to 3
    # count as progress; steps 4..7 never demonstrate any and must query
    traj = make_trajectory(8, [0, 3], {0: 8.0, 3: 2.0, 8: 1.0})
    want = [ASK_CONTINUE] * 4 + [ASK_QUERY] * 4
    assert apil_labels(traj, CFG) == want


def test_progress_flags_are_monotone_and_match_brute_force():
    rng = np.random.default_rng(42)
    for _ in range(200):
        T = int(rng.integers(1, 9))
        queried = {t for t in range(T) if rng.random() < 0.5}
        distances = {t: float(rng.integers(0, 17)) / 2.0
                     for t in sorted(queried | {T})}
        cfg = ApilConfig(sigma=float(rng.choice((1.5, 2.0, 3.0))),
                         epsilon=float(rng.choice((0.0, 0.5, 1.0))))
        traj = make_trajectory(T, queried, distances)
        flags = [int(f) for f in progress_flags(traj, cfg)]
        assert flags == sorted(flags, reverse=True)  # progress extends backward
        assert apil_labels(traj, cfg) == brute_force_labels(
            T, queried, distances, cfg)


def test_ignore_labels_truth_table():
    reached = {1: 0.0}
    assert ignore_labels(make_trajectory(1, [], reached), CFG) == [ASK_CONTINUE]
    assert ignore_labels(make_trajectory(1, [0], {0: 4.0, 1: 0.0}),
                         CFG) == [ASK_IGNORE]
    assert ignore_labels(make_trajectory(1, [], {1: 1.0}), CFG) == [ASK_QUERY]
    assert ignore_labels(make_trajectory(1, [0], {0: 1.0, 1: 1.0}),
                         CFG) == [ASK_CONTINUE]


def test_config_validation():
    with pytest.raises(ValueError):
        ApilConfig(sigma=1.0)
    with pytest.raises(ValueError):
        ApilConfig(sigma=0.5)
    with pytest.raises(ValueError):
        ApilConfig(epsilon=-0.1)
    assert ApilConfig(sigma=1.5).sigma == 1.5


def test_trajectory_validation():
    """The final distance is a required field, and a queried step without
    a response fails the labeller."""
    with pytest.raises(TypeError, match="final_dist"):
        Trajectory(make_trajectory(2, [], {2: 0.0}).steps)
    traj = make_trajectory(3, [1], {1: 1.0, 3: 0.0})
    traj.steps[1] = traj.steps[1]._replace(response=None)
    with pytest.raises(ValueError, match="queried step 1 has no observed"):
        progress_flags(traj, CFG)


def test_querynet_untrained_is_near_uniform():
    rng = np.random.default_rng(0)
    net = QueryNet(4, 2, horizon=8, rng=rng, hidden=50)
    for _ in range(10):
        mean = rng.dirichlet(np.ones(2))
        probs = net.forward(rng.normal(size=4), mean, int(rng.integers(0, 9)))
        assert abs(probs[1] - 0.5) < 0.15


def test_querynet_zeroed_loss_is_log2_per_step():
    rng = np.random.default_rng(0)
    net = QueryNet(2, 2, horizon=8, rng=rng)
    for p in net.mlp.params:
        p.value[...] = 0.0
    traj = make_trajectory(8, [], {8: 0.0})
    loss = query_imitation_loss(net, traj.steps, [ASK_CONTINUE] * 8)
    assert loss == pytest.approx(8 * math.log(2), abs=1e-12)


def test_querynet_all_ignore_is_a_noop():
    rng = np.random.default_rng(1)
    net = QueryNet(2, 2, horizon=4, rng=rng)
    before = {k: v.copy() for k, v in net.mlp.params.as_arrays().items()}
    traj = make_trajectory(4, [], {4: 0.0})
    assert query_imitation_loss(net, traj.steps, [ASK_IGNORE] * 4) == 0.0
    assert net.mlp.pending == 0
    net.mlp.update()
    after = net.mlp.params.as_arrays()
    assert all(np.array_equal(before[k], after[k]) for k in before)


def test_querynet_input_contract():
    rng = np.random.default_rng(0)
    net = QueryNet(2, 2, horizon=4, rng=rng)
    traj = make_trajectory(3, [], {3: 0.0})
    with pytest.raises(ValueError, match="one label per step"):
        query_imitation_loss(net, traj.steps, [ASK_CONTINUE] * 2)
    with pytest.raises(ValueError, match="mean execution policy"):
        net.forward(np.zeros(2), None, 0)


def test_lemma2_routes_agree_on_random_nets():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(50):
        net = QueryNet(3, 2, horizon=5, rng=rng, hidden=8)
        step = StepRecord(features=rng.normal(size=3),
                          exe_action=0,
                          ask_action=int(rng.integers(0, 2)),
                          mean_policy=rng.dirichlet(np.ones(2)),
                          remaining=int(rng.integers(0, 6)))
        worst = max(worst, lemma2_gradient_check(net, step))
    assert worst < 1e-10


def test_errprednet_cold_start_and_training():
    rng = np.random.default_rng(0)
    net = ErrPredNet(4, 2, rng, hidden=16, lr=1e-2)
    features, mean = np.zeros(4), np.array([0.5, 0.5])
    assert net.predict(features, mean) == 1.0
    for _ in range(300):
        net.accumulate_sq_loss(features, mean, 0.0)
        net.mlp.update()
    assert net.predict(features, mean) < 0.5


def test_errpred_policy_trains_on_the_queried_steps():
    rng = np.random.default_rng(0)
    policy = ErrPredQueryPolicy(ErrPredNet(2, 2, rng))
    opt = policy.net.mlp.opt
    # an untrained head predicts 1.0; mean [0.5, 0.5] makes every margin 0.5
    traj = make_trajectory(4, [1, 3], {1: 3.0, 3: 1.0, 4: 0.0})
    assert policy.end_episode(traj) == pytest.approx(0.25, abs=1e-12)
    assert opt.t == 1

    before = {k: v.copy() for k, v in policy.param_arrays().items()}
    assert policy.end_episode(make_trajectory(4, [], {4: 0.0})) is None
    assert opt.t == 1  # no queried step: no Adam step
    after = policy.param_arrays()
    assert all(np.array_equal(before[k], after[k]) for k in before)

    # the margin is read at the step's own action, the teacher's answer
    policy = ErrPredQueryPolicy(ErrPredNet(2, 2, rng))
    step = StepRecord(features=np.zeros(2), exe_action=1,
                      ask_action=ASK_QUERY, mean_policy=np.array([0.2, 0.8]))
    loss = policy.end_episode(Trajectory([step], 0.0))
    assert loss == pytest.approx(0.8 ** 2, abs=1e-12)


def test_threshold_decision_rules(monkeypatch):
    """Each kind reads its report field, and a step queries iff it strictly
    exceeds tau; an unknown kind fails at construction."""
    report = SimpleNamespace(intrinsic=0.8, extrinsic=0.0, behavioral=0.3)
    monkeypatch.setattr(uncertainty, "estimate", lambda *args: report)

    def decide(kind, tau):
        return ThresholdQueryPolicy(kind, tau, UncertaintyConfig()).decide(
            _ctx())
    assert decide("intrun", 0.5) == ASK_QUERY
    assert decide("extrun", 0.5) == ASK_CONTINUE
    assert decide("intrun", 0.8) == ASK_CONTINUE  # strict
    assert decide("behvun", 0.2) == ASK_QUERY
    assert decide("behvun", 0.3) == ASK_CONTINUE  # strict
    assert decide("extrun", -0.1) == ASK_QUERY
    for bogus in ("bogus", "intrinsic"):
        with pytest.raises(ValueError, match="unknown threshold kind"):
            ThresholdQueryPolicy(bogus, 0.5, UncertaintyConfig())


def test_policy_flags_and_fixed_decisions():
    assert AlwaysQueryPolicy.act_with_reference is True
    assert DaggerPolicy.act_with_reference is False
    assert AlwaysQueryPolicy().decide(_ctx()) == ASK_QUERY
    assert NeverQueryPolicy().decide(_ctx()) == ASK_CONTINUE


def test_hindsight_policy_greedy_and_learning():
    rng = np.random.default_rng(0)
    net = QueryNet(2, 2, horizon=4, rng=rng)
    for p in net.mlp.params:
        p.value[...] = 0.0
    net.mlp.out.b.value[...] = [0.0, 5.0]  # bias the ask head toward query
    policy = HindsightQueryPolicy(net, CFG)
    assert policy.decide(_ctx(train=False)) == ASK_QUERY

    net = QueryNet(2, 2, horizon=4, rng=rng)
    policy = HindsightQueryPolicy(net, CFG)
    before = {k: v.copy() for k, v in policy.param_arrays().items()}
    traj = make_trajectory(4, [1], {1: 3.0, 4: 1.0})
    loss = policy.end_episode(traj)
    assert isinstance(loss, float) and loss > 0.0
    after = policy.param_arrays()
    assert any(not np.array_equal(before[k], after[k]) for k in before)


_INF, _NAN = np.inf, np.nan
# equal pairs, adjacent floats, a softmax that underflows to exact 0 or 1,
# a subtraction that overflows, and the logits whose softmax is NaN
_EDGE_LOGITS = [(0.0, 0.0), (3.5, 3.5), (-700.0, -700.0), (1e6, 1e6),
                (1.0, np.nextafter(1.0, 2.0)), (np.nextafter(1.0, 0.0), 1.0),
                (1e6, np.nextafter(1e6, 0.0)), (0.1, -0.1), (5e-324, 0.0),
                (0.0, -745.0), (-746.0, 0.0), (0.0, -1e6), (-_INF, 0.0),
                (0.0, -_INF), (1e308, -1e308), (-1e308, 1e308),
                (_NAN, 0.0), (0.0, _NAN), (_INF, 0.0), (0.0, _INF),
                (_INF, _INF), (-_INF, -_INF), (-0.0, 0.0), (0.0, -0.0)]


def _decision(policy_cls, logits, rng, train):
    """(decision or ValueError text, warnings) of ``policy_cls.decide`` on
    an ask net whose logits are ``logits``."""
    logits = np.array(logits, dtype=np.float64)
    net = SimpleNamespace(logits=lambda *_: (logits.copy(), None),
                          forward=lambda *_: softmax(logits))
    ctx = DecisionContext(features=None, remaining=0, rng=rng, agent=None,
                          mean_policy=lambda: None, train=train)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = policy_cls(net, CFG).decide(ctx)
        except ValueError as err:
            result = str(err)
    return result, [(w.category, str(w.message)) for w in caught]


def test_hindsight_decision_is_the_vector_path_bitwise():
    """Over seeded random logit pairs (scales 0.1 to 1e6) and edge pairs,
    the ask decision, its warnings and the random stream after it are those
    of ``draw(categorical_cdf(softmax(l)), rng)`` while training and of
    ``argmax(softmax(l))`` when frozen."""
    gen = np.random.default_rng(17)
    pairs = _EDGE_LOGITS + [tuple(row) for scale in (0.1, 1.0, 10.0, 1e3, 1e6)
                            for row in scale * gen.standard_normal((400, 2))]
    decisions = set()
    for i, logits in enumerate(pairs):
        for train in (True, False):
            got_rng = np.random.default_rng(i)
            want_rng = np.random.default_rng(i)
            got = _decision(HindsightQueryPolicy, logits, got_rng, train)
            want = _decision(ReferenceHindsightPolicy, logits, want_rng, train)
            assert got == want, (logits, train)
            assert got_rng.bit_generator.state == want_rng.bit_generator.state
            decisions.add((train, got[0]))
    assert decisions == {(True, ASK_CONTINUE), (True, ASK_QUERY),
                         (True, "probabilities must be finite"),
                         (False, ASK_CONTINUE), (False, ASK_QUERY)}
    # a NaN or +inf logit fails as the vector path does, with its warning
    result, caught = _decision(HindsightQueryPolicy, (_INF, 0.0),
                               np.random.default_rng(0), True)
    assert result == "probabilities must be finite"
    assert caught == [(RuntimeWarning,
                       "invalid value encountered in subtract")]


def test_hindsight_decision_queries_at_a_uniform_equal_to_the_cdf():
    """A uniform equal to the cdf's first entry c0 queries, as ``draw``'s
    right-side ``searchsorted`` does; its neighbouring floats fall on either
    side. Each c0 is exact to the last bit: one ulp off in ``exp`` moves
    some of these 300 pairs' decisions."""
    gen = np.random.default_rng(4)
    for logits in [(0.0, 0.0), (0.3, -0.2), (2.0, 2.5),
                   *map(tuple, 3.0 * gen.standard_normal((300, 2)))]:
        c0 = float(categorical_cdf(softmax(np.array(logits)))[0])
        for u, want in ((np.nextafter(c0, 0.0), ASK_CONTINUE),
                        (c0, ASK_QUERY), (np.nextafter(c0, 1.0), ASK_QUERY)):
            rng = SimpleNamespace(random=lambda size=None, u=u: u)
            assert (_decision(HindsightQueryPolicy, logits, rng, True)
                    == _decision(ReferenceHindsightPolicy, logits, rng, True)
                    == (want, []))
