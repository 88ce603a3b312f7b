"""Unit tests for the grid environments."""
import itertools
from collections import deque

import numpy as np
import pytest
from helpers import free_cells

from apil_lab.envs import (DEFAULT_MAZE_MAP, ENCODE_AGENT, ENCODE_GOAL,
                           ENCODE_WALL, EnvState, GridPos, GridWorld, MazeGrid,
                           make_env)


def _grid_state(row, col):
    return EnvState(GridPos(row, col), GridPos(4, 4), 0, False)


def _grid_shortest_steps(env, start):
    """Forward breadth-first search over the real step dynamics."""
    goal = (env.side - 1, env.side - 1)
    seen = {start: 0}
    frontier = deque([start])
    while frontier:
        pos = frontier.popleft()
        if pos == goal:
            return seen[pos]
        for action in (env.RIGHT, env.DOWN):
            nxt = env.step(EnvState(GridPos(*pos), GridPos(*goal), 0, False),
                           action).agent
            key = (nxt.row, nxt.col)
            if key not in seen:
                seen[key] = seen[pos] + 1
                frontier.append(key)
    raise AssertionError("goal unreachable")


def test_grid_reset():
    env = GridWorld()
    state = env.reset()
    assert state.agent == GridPos(0, 0)
    assert state.goal == GridPos(4, 4)
    assert state.step_count == 0
    assert not state.terminal
    assert env.reset() == env.reset()


def test_grid_basic_moves():
    env = GridWorld()
    assert env.step(_grid_state(0, 0), env.RIGHT).agent == GridPos(0, 1)
    assert env.step(_grid_state(0, 0), env.DOWN).agent == GridPos(1, 0)


def test_grid_edge_moves_deflect_inward():
    env = GridWorld()
    # a move that would leave the grid converts to the other direction,
    # so the distance to the goal still shrinks by one
    assert env.step(_grid_state(0, 4), env.RIGHT).agent == GridPos(1, 4)
    assert env.step(_grid_state(4, 2), env.DOWN).agent == GridPos(4, 3)


def test_grid_every_action_sequence_reaches_goal():
    env = GridWorld()
    for actions in itertools.product((env.RIGHT, env.DOWN), repeat=env.horizon):
        state = env.reset()
        for action in actions:
            before = env.distance(state)
            state = env.step(state, action)
            assert env.distance(state) == before - 1.0
        assert state.agent == GridPos(4, 4)
        assert state.terminal


def test_grid_step_contract_errors():
    env = GridWorld()
    terminal = EnvState(GridPos(4, 4), GridPos(4, 4), 8, True)
    with pytest.raises(ValueError):
        env.step(terminal, env.RIGHT)
    with pytest.raises(ValueError):
        env.step(env.reset(), 2)


def test_grid_distance_matches_search_oracle():
    env = GridWorld()
    assert env.distance(env.reset()) == 8.0
    assert env.distance(_grid_state(4, 4)) == 0.0
    for row in range(5):
        for col in range(5):
            assert env.distance(_grid_state(row, col)) == float(
                _grid_shortest_steps(env, (row, col)))


def test_grid_reference_action_sets():
    env = GridWorld()
    assert env.ref_action_set(_grid_state(2, 2)) == (env.RIGHT, env.DOWN)
    assert env.ref_action_set(_grid_state(4, 1)) == (env.RIGHT,)
    assert env.ref_action_set(_grid_state(1, 4)) == (env.DOWN,)
    both = sum(len(env.ref_action_set(_grid_state(r, c))) == 2
               for r in range(5) for c in range(5) if (r, c) != (4, 4))
    assert both == 16
    with pytest.raises(ValueError):
        env.ref_action_set(EnvState(GridPos(4, 4), GridPos(4, 4), 8, True))


def test_grid_reference_actions_decrease_distance():
    env = GridWorld()
    for row in range(5):
        for col in range(5):
            if (row, col) == (4, 4):
                continue
            state = _grid_state(row, col)
            for action in env.ref_action_set(state):
                assert env.distance(env.step(state, action)) == env.distance(state) - 1.0


def test_grid_encoding():
    env = GridWorld()
    vec = env.encode(env.reset())
    assert vec.shape == (25,)
    assert vec[0] == ENCODE_AGENT
    assert vec[24] == ENCODE_GOAL
    assert np.count_nonzero(vec) == 2
    at_goal = env.encode(_grid_state(4, 4))
    assert at_goal[24] == ENCODE_AGENT  # agent marker overrides the goal marker
    assert np.count_nonzero(at_goal) == 1
    codes = {tuple(env.encode(_grid_state(r, c)))
             for r in range(5) for c in range(5)}
    assert len(codes) == 25  # injective over agent positions
    assert set(np.unique(vec)) <= {0.0, 0.25, 0.5, 1.0}


def _maze_oracle_distances(map_text):
    rows = [line for line in map_text.splitlines() if line]
    cells = {(r, c): ch for r, line in enumerate(rows) for c, ch in enumerate(line)}
    goal = next(pos for pos, ch in cells.items() if ch == "G")
    dist = {goal: 0}
    frontier = deque([goal])
    while frontier:
        r, c = frontier.popleft()
        for dr, dc in ((-1, 0), (0, 1), (1, 0), (0, -1)):
            npos = (r + dr, c + dc)
            if cells.get(npos, "#") != "#" and npos not in dist:
                dist[npos] = dist[(r, c)] + 1
                frontier.append(npos)
    return dist


def test_maze_reset_and_distances_match_oracle():
    env = MazeGrid()
    state = env.reset()
    assert state.agent == GridPos(0, 0)
    assert state.goal == GridPos(5, 5)
    assert env.horizon == 12
    assert env.distance(state) == 10.0
    oracle = _maze_oracle_distances(DEFAULT_MAZE_MAP)
    for pos in free_cells(env):
        probe = EnvState(pos, state.goal, 0, False)
        assert env.distance(probe) == float(oracle[(pos.row, pos.col)])


def test_maze_wall_and_border_bumps_are_noops():
    env = MazeGrid()
    start = env.reset()
    up, right, down, left = range(4)
    assert env.step(start, up).agent == GridPos(0, 0)
    assert env.step(start, left).agent == GridPos(0, 0)
    assert env.step(start, right).agent == GridPos(0, 1)
    below = env.step(start, down)
    assert below.agent == GridPos(1, 0)
    assert env.step(below, right).agent == GridPos(1, 0)  # wall at (1, 1)


def test_maze_reference_actions_decrease_distance():
    env = MazeGrid()
    goal = env.reset().goal
    for pos in free_cells(env):
        if pos == goal:
            continue
        state = EnvState(pos, goal, 0, False)
        refs = env.ref_action_set(state)
        assert refs
        for action in refs:
            assert env.distance(env.step(state, action)) == env.distance(state) - 1.0


def test_maze_encoding_marks_walls():
    env = MazeGrid()
    vec = env.encode(env.reset())
    assert vec.shape == (36,)
    assert vec[0] == ENCODE_AGENT
    assert vec[35] == ENCODE_GOAL
    assert vec[6 + 1] == ENCODE_WALL  # (1, 1) in the default map
    assert set(np.unique(vec)) <= {0.0, 0.25, 0.5, 1.0}


@pytest.mark.parametrize("map_text", [DEFAULT_MAZE_MAP, "S#...\n..#.#\n#...G\n"])
def test_maze_tables_equal_a_brute_force_recomputation(map_text):
    """The per-cell tables built once give, at every free cell, the wall
    encoding and the reference actions recomputed from scratch."""
    env = MazeGrid(map_text, horizon=20)
    oracle = _maze_oracle_distances(map_text)
    goal = env.reset().goal
    for pos in free_cells(env):
        state = EnvState(pos, goal, 0, False)
        refs = tuple(a for a, (dr, dc) in enumerate(((-1, 0), (0, 1), (1, 0), (0, -1)))
                     if oracle.get((pos.row + dr, pos.col + dc))
                     == oracle[(pos.row, pos.col)] - 1)
        assert env.ref_action_set(state) == refs, pos
        want = np.zeros(env.state_dim)
        want[env._walls.reshape(-1)] = ENCODE_WALL
        want[goal.row * env.n_cols + goal.col] = ENCODE_GOAL
        want[pos.row * env.n_cols + pos.col] = ENCODE_AGENT
        assert np.array_equal(env.encode(state), want), pos
    # a marked copy: encoding a state leaves the table as it was
    assert np.array_equal(env.encode(env.reset()), env.encode(env.reset()))


def test_maze_map_validation():
    with pytest.raises(ValueError, match="rectangular"):
        MazeGrid("S.\n.G.")
    with pytest.raises(ValueError, match="unknown map character"):
        MazeGrid("S.X\n..G")
    with pytest.raises(ValueError, match="S and one G"):
        MazeGrid("S..\n...")
    with pytest.raises(ValueError, match="S and one G"):
        MazeGrid("S....S\n......\n.....G")  # two starts
    with pytest.raises(ValueError, match="S and one G"):
        MazeGrid("S....G\n......\nG.....")  # two goals
    with pytest.raises(ValueError, match="unreachable"):
        MazeGrid("S#G")
    with pytest.raises(ValueError, match="horizon"):
        MazeGrid(DEFAULT_MAZE_MAP, horizon=9)


def test_make_env_dispatch(tmp_path):
    assert isinstance(make_env("grid"), GridWorld)
    assert isinstance(make_env("maze"), MazeGrid)
    custom = tmp_path / "map.txt"
    custom.write_text("S.G\n")
    env = make_env("maze", str(custom))
    assert env.distance(env.reset()) == 2.0
    with pytest.raises(ValueError, match="unknown environment"):
        make_env("mountain")
