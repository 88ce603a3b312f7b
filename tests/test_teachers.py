"""Unit tests for teacher committees."""
import math

import numpy as np
import pytest
from helpers import action_distribution

from apil_lab.envs import EnvState, GridPos, GridWorld, MazeGrid
from apil_lab.query import AlwaysQueryPolicy
from apil_lab.teachers import (TEACHER_MODELS, Committee, TeacherKind,
                               estimate_teacher_final_distance, make_committee)
from apil_lab.training import rollout
from apil_lab.uncertainty import entropy

# start 12 steps from the goal, the default maze horizon, by either of two
# shortest paths
TIGHT_MAP = """\
S......
.#####.
.#####.
.#####.
.#####.
.......
######G
"""


def _grid_state(row, col):
    return EnvState(GridPos(row, col), GridPos(4, 4), 0, False)


def test_committee_composition():
    assert make_committee("detm").members == (TeacherKind.DETM_FIRST,)
    assert make_committee("rand").members == (TeacherKind.RAND,)
    assert make_committee("tworand").members == (TeacherKind.RAND,) * 2
    assert make_committee("twodifdetm").members == (TeacherKind.DETM_FIRST,
                                                    TeacherKind.DETM_LAST)
    with pytest.raises(ValueError, match="unknown teacher model"):
        make_committee("oracle")
    with pytest.raises(ValueError):
        Committee(())


def test_respond_deterministic_members():
    env = GridWorld()
    rng = np.random.default_rng(0)
    detm = make_committee("detm")
    detm.select_member(rng)
    resp = detm.respond(env, _grid_state(2, 2), rng)
    assert resp.exe_action == env.RIGHT
    assert resp.identity == 0
    assert resp.dist == 4.0

    two = make_committee("twodifdetm")
    two.active_member = 1
    assert two.respond(env, _grid_state(2, 2), rng).exe_action == env.DOWN


def test_respond_rand_on_singleton_set():
    env = GridWorld()
    rng = np.random.default_rng(0)
    rand = make_committee("rand")
    rand.select_member(rng)
    for _ in range(10):
        assert rand.respond(env, _grid_state(4, 1), rng).exe_action == env.RIGHT


def test_respond_contract_errors():
    env = GridWorld()
    rng = np.random.default_rng(0)
    committee = make_committee("detm")
    with pytest.raises(ValueError, match="select_member"):
        committee.respond(env, _grid_state(0, 0), rng)
    committee.select_member(rng)
    terminal = EnvState(GridPos(4, 4), GridPos(4, 4), 8, True)
    with pytest.raises(ValueError, match="terminal"):
        committee.respond(env, terminal, rng)


def test_select_member_is_uniform():
    rng = np.random.default_rng(0)
    single = make_committee("detm")
    assert all(single.select_member(rng) == 0 for _ in range(20))
    pair = make_committee("twodifdetm")
    draws = [pair.select_member(rng) for _ in range(10_000)]
    frac = draws.count(0) / len(draws)
    assert 0.48 <= frac <= 0.52


def test_a_choice_among_one_draws_nothing():
    """``rng.integers(1)`` is 0 and draws nothing, so a rand teacher with one
    reference action and a committee of one skip it: the stream is where it
    was. With two choices the same calls draw."""
    env = GridWorld()
    rng = np.random.default_rng(3)
    rand, single, pair = (make_committee(m)
                          for m in ("rand", "detm", "tworand"))
    rand.active_member = 0

    def draws(call):
        before = rng.bit_generator.state
        call()
        return rng.bit_generator.state != before

    assert not any(draws(call) for call in (
        lambda: rng.integers(1), lambda: single.select_member(rng),
        lambda: rand.respond(env, _grid_state(4, 1), rng),
        lambda: rand.respond(env, _grid_state(1, 4), rng)))
    assert all(draws(call) for call in (
        lambda: pair.select_member(rng),
        lambda: rand.respond(env, _grid_state(1, 1), rng)))


def test_teacher_actions_stay_in_reference_set():
    env = GridWorld()
    rng = np.random.default_rng(1)
    for model in TEACHER_MODELS:
        committee = make_committee(model)
        for _ in range(20):
            committee.select_member(rng)
            state = env.reset()
            while not state.terminal:
                resp = committee.respond(env, state, rng)
                assert resp.exe_action in env.ref_action_set(state)
                state = env.step(state, resp.exe_action)


def test_ground_truth_uncertainty_of_rand():
    env = GridWorld()
    committee = make_committee("rand")
    for row in range(5):
        for col in range(5):
            if (row, col) == (4, 4):
                continue
            dist = action_distribution(committee, env, _grid_state(row, col), 0)
            expected = math.log(2) if row < 4 and col < 4 else 0.0
            assert entropy(dist) == pytest.approx(expected, abs=1e-12)


def test_ground_truth_extrinsic_of_tworand_is_zero():
    env = GridWorld()
    committee = make_committee("tworand")
    for row in range(5):
        for col in range(5):
            if (row, col) == (4, 4):
                continue
            state = _grid_state(row, col)
            members = [action_distribution(committee, env, state, m)
                       for m in range(2)]
            mixture = action_distribution(committee, env, state)
            assert np.array_equal(members[0], members[1])
            extrinsic = entropy(mixture) - np.mean([entropy(m) for m in members])
            assert extrinsic == pytest.approx(0.0, abs=1e-12)


def test_ground_truth_uncertainty_of_twodifdetm():
    env = GridWorld()
    committee = make_committee("twodifdetm")
    for row in range(4):
        for col in range(4):
            state = _grid_state(row, col)
            members = [action_distribution(committee, env, state, m)
                       for m in range(2)]
            mixture = action_distribution(committee, env, state)
            intrinsic = np.mean([entropy(m) for m in members])
            assert intrinsic == 0.0
            assert entropy(mixture) == pytest.approx(math.log(2), abs=1e-12)


def test_estimate_teacher_final_distance():
    env = GridWorld()
    rng = np.random.default_rng(0)
    for model in TEACHER_MODELS:
        assert estimate_teacher_final_distance(make_committee(model), env, 5,
                                               rng) == 0.0
    maze = MazeGrid()
    assert estimate_teacher_final_distance(make_committee("detm"), maze, 100,
                                           np.random.default_rng(0)) == 0.0
    one = estimate_teacher_final_distance(make_committee("rand"), maze, 1,
                                          np.random.default_rng(7))
    two = estimate_teacher_final_distance(make_committee("rand"), maze, 1,
                                          np.random.default_rng(7))
    assert one == two
    with pytest.raises(ValueError):
        estimate_teacher_final_distance(make_committee("detm"), env, 0, rng)


@pytest.mark.parametrize("env", [GridWorld(), MazeGrid(), MazeGrid(TIGHT_MAP)],
                         ids=["grid", "maze", "tight-map"])
@pytest.mark.parametrize("model", sorted(TEACHER_MODELS))
def test_an_always_query_rollout_of_every_teacher_ends_at_the_goal(env,
                                                                    model):
    """Every reference action lowers the goal distance by one, and no env
    has a horizon shorter than its start's distance, so d* is 0: each
    teacher's always-query rollout ends at distance 0, even on a map whose
    start is exactly ``horizon`` steps from the goal."""
    committee = make_committee(model)
    rng = np.random.default_rng(11)
    for _ in range(20):
        traj = rollout(None, committee, env, AlwaysQueryPolicy(), rng)
        assert traj.final_dist == 0.0


def test_the_tight_map_leaves_no_step_to_spare():
    env = MazeGrid(TIGHT_MAP)
    start = env.reset()
    assert env.distance(start) == env.horizon == 12
    assert env.ref_action_set(start) == (1, 2)  # right or down: two paths
