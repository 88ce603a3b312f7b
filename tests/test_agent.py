"""Unit tests for the persona-aware agent."""
import math

import numpy as np
import pytest
from helpers import (OPEN_ROOM, one_state_forward,
                     per_identity_mean_exe_policy, per_row_exe_losses,
                     sample_policy, state_at)

from apil_lab.agent import (HEAD_PRECISION_NAME, HIDDEN_WIDTH, PERSONA_DIM,
                            PRIOR_PRECISION, PersonaAgent)
from apil_lab.envs import make_env
from apil_lab.nncore import categorical_cdf, draw, softmax
from apil_lab.query import NeverQueryPolicy
from apil_lab.teachers import TeacherResponse, make_committee
from apil_lab.training import RunConfig, run_episode, run_training

EXPECTED_PARAMS = {"exe.hidden.W", "exe.hidden.b", "exe.out.W", "exe.out.b",
                   "exe.persona", "id.hidden.W", "id.hidden.b", "id.out.W",
                   "id.out.b", "exe.out.precision"}


@pytest.fixture(scope="module")
def bc_detm_run():
    return run_training(RunConfig(method="bc", teacher="detm", episodes=1000,
                                  seed=0))


def _fresh(n_teachers=2, state_dim=25, seed=0, **kwargs):
    return PersonaAgent(state_dim, 2, n_teachers, np.random.default_rng(seed),
                        **kwargs)


def test_construction_defaults_and_validation():
    agent = _fresh()
    assert (HIDDEN_WIDTH, PERSONA_DIM, PRIOR_PRECISION) == (100, 50, 10.0)
    assert agent.exe_net.hidden.w.value.shape[1] == 25 + PERSONA_DIM
    assert agent.prior_precision == PRIOR_PRECISION
    assert set(agent.param_arrays()) == EXPECTED_PARAMS
    with pytest.raises(ValueError):
        _fresh(n_teachers=0)


def test_probability_outputs_are_distributions():
    agent = _fresh()
    features = np.zeros(25)
    features[3] = 0.5
    rho = agent.identity_probs(features)
    assert abs(rho.sum() - 1.0) <= 1e-9 and np.all(rho >= 0.0)
    for k in range(2):
        probs = agent.policy_probs(features, k)
        assert abs(probs.sum() - 1.0) <= 1e-9 and np.all(probs >= 0.0)


def test_sample_policy_single_teacher_and_shared_weights():
    agent = _fresh(n_teachers=1)
    features = np.zeros(25)
    for _ in range(10):
        k, probs = sample_policy(agent, features, np.random.default_rng(0))
        assert k == 0
        assert np.array_equal(probs, agent.policy_probs(features, 0))

    pair = _fresh(n_teachers=2)
    personas = pair.exe_net.embed.table.value
    personas[1] = personas[0]
    assert np.array_equal(pair.policy_probs(features, 0),
                          pair.policy_probs(features, 1))


def test_sample_policy_is_seeded():
    agent = _fresh()
    features = np.zeros(25)
    a = sample_policy(agent, features, np.random.default_rng(5),
                      posterior_sampling=True)
    b = sample_policy(agent, features, np.random.default_rng(5),
                      posterior_sampling=True)
    assert a[0] == b[0]
    assert np.array_equal(a[1], b[1])


def test_mean_policy_of_two_deltas_approaches_half():
    """The mean mixes the policy rows the agent's fill gives by the draw
    counts from rho's cdf. Identities 0 and 1 put all mass on action 0 and
    identity 2 on action 1, and rho is (1/4, 1/4, 1/2), so the mean nears
    (1/2, 1/2); equal weights on the K rows would give (2/3, 1/3)."""
    agent = _fresh(n_teachers=3)
    rho, rows = np.array([0.25, 0.25, 0.5]), np.eye(2)[[0, 0, 1]]

    def steered(kind, features):
        assert kind in ("rho", "policy")  # the mean reads nothing else
        if kind == "rho":
            stack = np.tile(rho, (len(features), 1))
            return stack, categorical_cdf(stack, stack=True)
        return (np.tile(rows, (len(features), 1, 1)),)
    agent._stack = steered
    features = np.zeros(25)
    mean = agent.mean_exe_policy(features, 10_000, np.random.default_rng(0))
    assert np.array_equal(agent.identity_probs(features), rho)
    assert np.array_equal(agent.policy_probs(features, 2), rows[2])
    assert 0.48 <= mean[0] <= 0.52
    assert abs(mean.sum() - 1.0) <= 1e-9


def test_mean_policy_single_teacher_is_exact():
    agent = _fresh(n_teachers=1)
    features = np.zeros(25)
    mean = agent.mean_exe_policy(features, 7, np.random.default_rng(0))
    assert np.array_equal(mean, agent.policy_probs(features, 0))
    with pytest.raises(ValueError):
        agent.mean_exe_policy(features, 0, np.random.default_rng(0))


def test_mean_policy_equals_the_per_identity_loop():
    agent = _fresh(n_teachers=3)
    rng = np.random.default_rng(4)
    for _ in range(20):
        features = rng.normal(size=25)
        seed = int(rng.integers(1000))
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        got = agent.mean_exe_policy(features, 5, ours)
        want = per_identity_mean_exe_policy(agent, features, 5, theirs)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        assert ours.random() == theirs.random()


def test_mean_policy_is_one_entry_per_state_and_draw_counts():
    agent = _fresh(n_teachers=3)
    features = np.random.default_rng(2).normal(size=25)
    ours, theirs = np.random.default_rng(7), np.random.default_rng(7)
    first = agent.mean_exe_policy(features, 5, ours)
    want = per_identity_mean_exe_policy(agent, features, 5, theirs)
    assert np.abs(first - want).max() <= 1e-12 * np.abs(want).max()
    assert not first.flags.writeable
    ours, theirs = np.random.default_rng(7), np.random.default_rng(7)
    assert agent.mean_exe_policy(features, 5, ours) is first  # same counts
    per_identity_mean_exe_policy(agent, features, 5, theirs)
    assert ours.random() == theirs.random()
    means = {id(agent.mean_exe_policy(features, 5, np.random.default_rng(s)))
             for s in range(20)}
    assert len(means) > 1  # other counts are other entries


def _factor_cases():
    """(label, agent, features): random agents of K = 1, 2, 3 with a random
    head precision, K=1 with a zero hidden row, and K=3 whose hidden rows
    are h, -h and h."""
    rng = np.random.default_rng(6)
    cases = []
    for k in (1, 2, 3):
        agent = _fresh(n_teachers=k, seed=k)
        agent.head_precision[...] = rng.uniform(1.0, 1e3,
                                                agent.head_precision.shape)
        cases.append((f"random K={k}", agent, rng.normal(size=25)))
    zero = _fresh(n_teachers=1)
    zero.exe_net.hidden.w.value[...] = 0.0  # the hidden bias starts at 0
    cases.append(("K=1, h=0", zero, rng.normal(size=25)))
    mirrored = _fresh(n_teachers=3)
    personas = mirrored.exe_net.embed.table.value
    personas[1], personas[2] = -personas[0], personas[0]  # tanh is odd
    cases.append(("proportional rows", mirrored, np.zeros(25)))
    return cases


def test_logit_factor_reproduces_the_weight_space_covariance():
    """L L^T is H diag(1/precision_a) H^T within 1e-12 relative for every
    action, L is lower-triangular, and a singular block does not raise."""
    for label, agent, features in _factor_cases():
        k = agent.n_teachers
        h, _ = agent.exe_net.hidden_forward(features, np.arange(k))
        _, factor = agent.logit_posterior(features)
        for a, (precision, lower) in enumerate(zip(agent.head_precision,
                                                   factor)):
            want = h @ np.diag(1.0 / precision) @ h.T
            assert np.array_equal(np.tril(lower), lower), (label, a)
            assert (np.abs(lower @ lower.T - want).max()
                    <= 1e-12 * np.abs(want).max()), (label, a)
        if label == "K=1, h=0":
            assert not factor.any()


def _table_entries(agent, features):
    """rho, rho's cdf, the all-K policy rows, a mean policy and its cdf: the
    agent's forward-table entries at one state."""
    mean = agent.mean_exe_policy(features, 5, np.random.default_rng(0))
    state = features.tobytes()
    return (agent.identity_probs(features), agent._table[("rho", state)][1],
            agent._table[("policy", state)][0], mean,
            agent.mean_policy_cdf(mean))


def _assert_direct_forwards(agent, states, identities):
    """At each state every entry, and the rows of ``identities``, equal the
    one-state forwards bitwise; the policy rows are rows of the all-K
    forward, which a forward of a subset of the identities may round apart
    from at some states."""
    for features in states:
        rho, cdf, rows, mean, mean_cdf = _table_entries(agent, features)
        direct_rho = softmax(agent.id_net.forward(features)[0])
        direct_rows = softmax(agent.exe_net.forward(
            features, np.arange(agent.n_teachers))[0])
        assert np.array_equal(rho, direct_rho)
        assert np.array_equal(cdf, categorical_cdf(direct_rho))
        assert rows.tobytes() == direct_rows.tobytes()
        assert (agent.policy_probs(features, identities).tobytes()
                == direct_rows[identities].tobytes())
        assert np.array_equal(mean_cdf, categorical_cdf(mean))
        # a mean of one draw is a single identity's row
        one = agent.mean_exe_policy(features, 1, np.random.default_rng(0))
        for n, got in ((5, mean), (1, one)):
            counts = np.bincount(draw(cdf, np.random.default_rng(0), n),
                                 minlength=agent.n_teachers)
            assert got.tobytes() == ((counts / n) @ direct_rows).tobytes()


def _outputs(agent, states, identities):
    return [(*_table_entries(agent, features),
             agent.policy_probs(features, identities)) for features in states]


def _assert_all_moved(before, after):
    for b, a in zip(before, after):
        assert not any(np.array_equal(x, y) for x, y in zip(b, a))


@pytest.mark.parametrize("identities", [0, np.array([1]), np.array([0, 1])])
def test_forward_table_follows_an_adam_step(identities):
    agent = _fresh()
    states = np.random.default_rng(1).normal(size=(8, 25))
    before = [[x.copy() for x in out]
              for out in _outputs(agent, states, identities)]
    agent.exe_losses(states[:1], [TeacherResponse(1, 1, 2.0)])
    agent.end_episode_update()
    _assert_direct_forwards(agent, states, identities)
    _assert_all_moved(before, _outputs(agent, states, identities))


@pytest.mark.parametrize("identities", [0, np.array([1]), np.array([0, 1])])
def test_forward_table_follows_load_arrays(identities):
    agent = _fresh()
    states = np.random.default_rng(1).normal(size=(8, 25))
    before = [[x.copy() for x in out]
              for out in _outputs(agent, states, identities)]
    agent.load_arrays(_fresh(seed=1).param_arrays())
    _assert_direct_forwards(agent, states, identities)
    _assert_all_moved(before, _outputs(agent, states, identities))


def test_forward_table_is_kept_across_an_episode_without_a_query():
    env, committee = make_env("grid", None), make_committee("twodifdetm")
    agent = _fresh(state_dim=env.state_dim)
    features = env.encode(env.reset())
    before = _table_entries(agent, features)
    traj, metrics = run_episode(agent, committee, env, NeverQueryPolicy(),
                                np.random.default_rng(0))
    assert metrics.query_rate == 0.0
    assert traj.steps[0].features.tobytes() == features.tobytes()
    after = _table_entries(agent, features)
    assert all(b is a for b, a in zip(before, after))
    # one identity and a vector of it are rows of the one all-K entry
    rows = after[2]
    for identity in (0, np.array([0]), np.array([1, 0])):
        got = agent.policy_probs(features, identity)
        assert got.shape == rows[identity].shape
        assert got.tobytes() == rows[identity].tobytes()
    assert np.shares_memory(agent.policy_probs(features, 1), rows)


def test_forward_table_outputs_are_read_only():
    agent = _fresh()
    features = np.zeros(25)
    for out in (*_table_entries(agent, features),
                agent.policy_probs(features, 0),
                agent.policy_probs(features, np.array([0, 1]))):
        with pytest.raises(ValueError):
            out[0] = 1.0


def _counting_stacks(agent):
    """Record the (kind, rows) of each of the agent's stacked forwards."""
    calls, stack = [], agent._stack

    def counted(kind, features):
        calls.append((kind, len(features)))
        return stack(kind, features)
    agent._stack = counted
    return calls


def _assert_one_state_entries(agent, states,
                              kinds=("rho", "policy", "posterior")):
    """Each state's rho and cdf, all-K policy rows and posterior entry, read
    in the order of ``kinds``, is its one-state forward bitwise, is
    read-only and is what a second read returns, and the public reads
    return it."""
    for features in states:
        for kind in kinds:
            got = agent._per_state(kind, features)
            want = one_state_forward(agent, kind, features)
            assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
            for array in got:
                with pytest.raises(ValueError):
                    array[...] = 0.0
            assert agent._per_state(kind, features) is got
        assert (agent.identity_probs(features)
                is agent._per_state("rho", features)[0])
        assert (agent.policy_probs(features, np.arange(agent.n_teachers))
                .tobytes() == agent._per_state("policy", features)[0]
                .tobytes())
        assert (agent.logit_posterior(features)
                is agent._per_state("posterior", features))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_stacked_fill_rows_equal_one_state_forwards(k):
    """Every miss of rho (with its cdf), of the policy rows or of the
    posterior evaluates its kind at every known state in one stack, the
    missed state included, whose rows are the states' one-state forwards.
    A state first seen after a fill gets a stack of all known states, and
    the entries already read stay the same arrays. A posterior fill that
    comes first writes the policy rows too."""
    rng = np.random.default_rng(20 + k)
    agent = _fresh(n_teachers=k, seed=k)
    states = list(rng.normal(size=(5, 25)))
    calls = _counting_stacks(agent)
    kinds = ("rho", "policy", "posterior")
    for features in states:
        agent.identity_probs(features)
        agent.policy_probs(features, 0)
        agent.logit_posterior(features)
    assert calls == [(kind, n) for n in range(1, 6) for kind in kinds]
    agent.exe_losses(np.stack(states[:2]),
                     [TeacherResponse(1, j % k, 2.0) for j in range(2)])
    agent.end_episode_update()
    calls.clear()
    _assert_one_state_entries(agent, states)
    assert calls == [(kind, 5) for kind in kinds]
    new = rng.normal(size=25)
    kept = [agent._per_state(kind, states[0]) for kind in kinds]
    _assert_one_state_entries(agent, [new])
    assert calls[3:] == [(kind, 6) for kind in kinds]
    assert all(agent._per_state(kind, states[0]) is entry
               for kind, entry in zip(kinds, kept))
    agent.exe_losses(new[None], [TeacherResponse(0, k - 1, 1.0)])
    agent.end_episode_update()
    calls.clear()
    _assert_one_state_entries(agent, [new, *states])
    assert calls == [(kind, 6) for kind in kinds]
    agent.exe_losses(new[None], [TeacherResponse(1, 0, 1.0)])
    agent.end_episode_update()
    calls.clear()
    _assert_one_state_entries(agent, [new, *states], kinds[::-1])
    assert calls == [("posterior", 6), ("rho", 6)]


def test_posterior_entries_follow_the_head_precision():
    """The head precision's two writers drop the table: a read after
    ``exe_losses`` and before the Adam step, and a read after a load that
    changes only the precision, are fresh stacked computations bitwise."""
    agent = _fresh(n_teachers=3)
    states = np.random.default_rng(8).normal(size=(4, 25))

    def assert_fresh():
        means, factors = agent.logit_posterior(states)  # a stack: afresh
        for features, mean, factor in zip(states, means, factors):
            got = agent.logit_posterior(features)
            assert got[0].tobytes() == mean.tobytes()
            assert got[1].tobytes() == factor.tobytes()

    assert_fresh()
    precision = agent.head_precision.copy()
    agent.exe_losses(states[:2], [TeacherResponse(0, 1, 2.0),
                                  TeacherResponse(1, 2, 1.0)])
    assert not np.array_equal(agent.head_precision, precision)
    assert_fresh()
    agent.end_episode_update()
    assert_fresh()
    arrays = agent.param_arrays()
    arrays[HEAD_PRECISION_NAME] = 3.0 * arrays[HEAD_PRECISION_NAME]
    agent.load_arrays(arrays)
    assert_fresh()


def test_episode_backward_equals_the_per_row_loop():
    """One stacked pass gives the gradients, precision and losses of a loop
    of one-row passes, repeated identities included."""
    rng = np.random.default_rng(5)
    features = rng.normal(size=(7, 25))
    responses = [TeacherResponse(int(rng.integers(2)), int(k), 1.0)
                 for k in (0, 1, 1, 0, 1, 1, 0)]
    batched, looped = _fresh(seed=3), _fresh(seed=3)
    got = batched.exe_losses(features, responses)
    want = per_row_exe_losses(looped, features, responses)
    for g, w in zip(got, want):
        assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max()
    for net_b, net_l in ((batched.exe_net, looped.exe_net),
                         (batched.id_net, looped.id_net)):
        for p_b, p_l in zip(net_b.params, net_l.params):
            scale = np.abs(p_l.grad).max()
            assert np.abs(p_b.grad - p_l.grad).max() <= 1e-12 * scale, p_b.name
    assert (np.abs(batched.head_precision - looped.head_precision).max()
            <= 1e-12 * np.abs(looped.head_precision).max())


def test_exe_losses_uniform_start_is_log2():
    agent = _fresh()
    for net in (agent.exe_net, agent.id_net):
        for p in net.params:
            p.value[...] = 0.0
    features = np.zeros(25)
    pol_loss, id_loss = agent.exe_losses(features[None],
                                         [TeacherResponse(0, 1, 3.0)])
    assert pol_loss == pytest.approx([math.log(2)], abs=1e-15)
    assert id_loss == pytest.approx([math.log(2)], abs=1e-15)
    assert agent.exe_net.pending == agent.id_net.pending == 1


def test_one_teacher_rho_is_exactly_one_without_the_identity_net():
    """With one teacher the softmax of the id net's one logit is exactly 1
    and its loss and gradient exactly 0, so rho and its cdf are ones at one
    state and for a stack, even under large id weights, and ``exe_losses``
    gives id losses of exactly 0 without running the id net."""
    agent = _fresh(n_teachers=1)
    rng = np.random.default_rng(5)
    states = rng.normal(size=(6, 25))
    arrays = agent.param_arrays()
    big = {name: 1e3 * rng.normal(size=value.shape)
           for name, value in arrays.items() if name.startswith("id.")}

    def refuse(*args, **kwargs):
        raise AssertionError("a one-teacher agent ran its identity net")

    for name in ("forward", "hidden_forward", "backward"):
        setattr(agent.id_net, name, refuse)
    for net_arrays in ({}, big):
        agent.load_arrays({**arrays, **net_arrays})
        for read in (agent.identity_probs, agent.identity_cdf):
            for features in states:
                assert read(features).tobytes() == np.ones(1).tobytes()
            assert read(states).tobytes() == np.ones((6, 1)).tobytes()
        pol_losses, id_losses = agent.exe_losses(
            states[:4], [TeacherResponse(a % 2, 0, 1.0) for a in range(4)])
        assert id_losses.tobytes() == np.zeros(4).tobytes()
        assert pol_losses.shape == (4,) and (pol_losses > 0.0).all()
        assert (agent.exe_net.pending, agent.id_net.pending) == (1, 0)
        version = agent.id_net.params.version
        agent.end_episode_update()
        assert agent.id_net.params.version == version


def test_exe_losses_touch_only_observed_persona_row():
    agent = _fresh()
    agent.exe_losses(np.zeros((1, 25)), [TeacherResponse(1, 0, 3.0)])
    grad = agent.exe_net.params["exe.persona"].grad
    assert np.any(grad[0] != 0.0)
    assert np.array_equal(grad[1], np.zeros(PERSONA_DIM))


def test_exe_losses_rejects_out_of_range_identity():
    agent = _fresh()
    with pytest.raises(IndexError):
        agent.exe_losses(np.zeros((1, 25)), [TeacherResponse(0, 5, 3.0)])


def test_end_episode_update_without_losses_is_a_noop():
    agent = _fresh()
    before = {k: v.copy() for k, v in agent.param_arrays().items()}
    agent.end_episode_update()
    for name, value in agent.param_arrays().items():
        assert np.array_equal(value, before[name])


def test_end_episode_update_applies_accumulated_losses():
    agent = _fresh()
    before = {k: v.copy() for k, v in agent.param_arrays().items()}
    features = np.zeros(25)
    features[7] = 0.5  # nonzero input so weight matrices receive gradient
    agent.exe_losses(features[None], [TeacherResponse(0, 0, 3.0)])
    agent.end_episode_update()
    assert agent.exe_net.pending == agent.id_net.pending == 0
    changed = [name for name, value in agent.param_arrays().items()
               if not np.array_equal(value, before[name])]
    assert "exe.out.W" in changed and "id.out.W" in changed


def test_checkpoint_arrays_round_trip():
    agent = _fresh(seed=1)
    features = np.zeros(25)
    features[7] = 0.5
    agent.exe_losses(features[None], [TeacherResponse(0, 0, 3.0)])
    agent.end_episode_update()  # the head precision leaves the prior too
    other = _fresh(seed=2)
    assert not np.array_equal(other.head_precision, agent.head_precision)
    other.load_arrays(agent.param_arrays())
    for name, value in agent.param_arrays().items():
        assert np.array_equal(other.param_arrays()[name], value)


@pytest.mark.parametrize("precision,message", [
    (None, "has no posterior precision"), (np.ones((2, 3)), "shape mismatch"),
    (np.zeros((2, HIDDEN_WIDTH)), "must be positive"),
    (np.full((2, HIDDEN_WIDTH), np.inf), "must be positive and finite"),
])
def test_load_arrays_checks_the_head_precision(precision, message):
    arrays = _fresh(seed=1).param_arrays()
    if precision is None:
        del arrays[HEAD_PRECISION_NAME]
    else:
        arrays[HEAD_PRECISION_NAME] = precision
    with pytest.raises(ValueError, match=message) as err:
        _fresh(seed=2).load_arrays(arrays)
    assert HEAD_PRECISION_NAME in str(err.value)


def test_trained_bc_detm_masters_the_teacher_path(bc_detm_run):
    """Behavior cloning on Detm drives its visited states to the teacher action."""
    agent, env = bc_detm_run.agent, bc_detm_run.env
    path = [(0, col) for col in range(4)] + [(row, 4) for row in range(4)]
    for row, col in path:
        state = state_at(env, row, col)
        ref0 = env.ref_action_set(state)[0]
        assert agent.policy_probs(env.encode(state), 0)[ref0] >= 0.95


def test_open_room_personas_capture_every_two_reference_cell():
    """Criterion 9's persona check on a map where the teachers disagree.
    After 1000 dagger/twodifdetm episodes on the open room, read as a
    ``--map``, persona 0's argmax is the first reference action and persona
    1's the last at each of the 17 cells with two. Seeds 0-2 each capture
    17 of 17, and none gives a captured action less than 0.91."""
    result = run_training(RunConfig(method="dagger", teacher="twodifdetm",
                                    env="maze", map_path=str(OPEN_ROOM),
                                    episodes=1000, seed=0))
    agent, env = result.agent, result.env
    states = [state_at(env, *pos) for pos in env.cells]
    two = [(env.encode(s), env.ref_action_set(s)) for s in states
           if not s.terminal and len(env.ref_action_set(s)) == 2]
    captured = sum((int(np.argmax(agent.policy_probs(features, 0))),
                    int(np.argmax(agent.policy_probs(features, 1))))
                   == (refs[0], refs[-1]) for features, refs in two)
    print(f"open room: twodifdetm personas capture {captured}/{len(two)} "
          f"two-reference cells")
    assert len(env.cells) == 32 and len(two) == 17
    assert captured == 17


def test_trained_twodifdetm_identity_net_is_near_uniform(dagger_runs):
    result, _ = dagger_runs[("twodifdetm", 0)]
    agent, env = result.agent, result.env
    for row in range(5):
        for col in range(5):
            if (row, col) == (4, 4):
                continue
            state = state_at(env, row, col)
            rho = agent.identity_probs(env.encode(state))
            assert abs(rho[0] - 0.5) < 0.1
