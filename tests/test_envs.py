"""Unit tests for the grid environments."""
import itertools
from collections import deque

import numpy as np
import pytest
from helpers import BumpWalk, grid_deflect, maze_oracle_distances, state_at
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from apil_lab.envs import (DEFAULT_MAZE_MAP, ENCODE_AGENT, ENCODE_GOAL,
                           ENCODE_WALL, EnvState, GridPos, GridWorld, MazeGrid,
                           make_env)


def _grid_shortest_steps(env, start):
    """Forward breadth-first search over the real step dynamics."""
    goal = (4, 4)
    seen = {start: 0}
    frontier = deque([start])
    while frontier:
        pos = frontier.popleft()
        if pos == goal:
            return seen[pos]
        for action in (env.RIGHT, env.DOWN):
            nxt = env.cells[env.step(state_at(env, *pos), action).cell]
            key = (nxt.row, nxt.col)
            if key not in seen:
                seen[key] = seen[pos] + 1
                frontier.append(key)
    raise AssertionError("goal unreachable")


def test_grid_reset():
    env = GridWorld()
    state = env.reset()
    assert env.cells[state.cell] == GridPos(0, 0)
    assert env.distance(state_at(env, 4, 4)) == 0.0  # the goal
    assert state.step_count == 0
    assert not state.terminal
    assert env.reset() == env.reset()


def test_grid_basic_moves():
    env = GridWorld()
    assert env.cells[env.step(state_at(env, 0, 0), env.RIGHT).cell] \
        == GridPos(0, 1)
    assert env.cells[env.step(state_at(env, 0, 0), env.DOWN).cell] \
        == GridPos(1, 0)


def test_grid_edge_moves_deflect_inward():
    env = GridWorld()
    # a move that would leave the grid converts to the other direction,
    # so the distance to the goal still shrinks by one
    assert env.cells[env.step(state_at(env, 0, 4), env.RIGHT).cell] \
        == GridPos(1, 4)
    assert env.cells[env.step(state_at(env, 4, 2), env.DOWN).cell] \
        == GridPos(4, 3)


def test_grid_every_action_sequence_reaches_goal():
    env = GridWorld()
    for actions in itertools.product((env.RIGHT, env.DOWN), repeat=env.horizon):
        state = env.reset()
        for action in actions:
            before = env.distance(state)
            state = env.step(state, action)
            assert env.distance(state) == before - 1.0
        assert env.cells[state.cell] == GridPos(4, 4)
        assert state.terminal


def test_grid_step_contract_errors():
    env = GridWorld()
    terminal = state_at(env, 4, 4, 8)
    with pytest.raises(ValueError):
        env.step(terminal, env.RIGHT)
    with pytest.raises(ValueError):
        env.step(env.reset(), 2)


def test_grid_distance_matches_search_oracle():
    env = GridWorld()
    assert env.distance(env.reset()) == 8.0
    assert env.distance(state_at(env, 4, 4)) == 0.0
    for row in range(5):
        for col in range(5):
            assert env.distance(state_at(env, row, col)) == float(
                _grid_shortest_steps(env, (row, col)))


def test_grid_reference_action_sets():
    env = GridWorld()
    assert env.ref_action_set(state_at(env, 2, 2)) == (env.RIGHT, env.DOWN)
    assert env.ref_action_set(state_at(env, 4, 1)) == (env.RIGHT,)
    assert env.ref_action_set(state_at(env, 1, 4)) == (env.DOWN,)
    both = sum(len(env.ref_action_set(state_at(env, r, c))) == 2
               for r in range(5) for c in range(5) if (r, c) != (4, 4))
    assert both == 16
    with pytest.raises(ValueError):
        env.ref_action_set(state_at(env, 4, 4, 8))


def test_grid_reference_actions_decrease_distance():
    env = GridWorld()
    for row in range(5):
        for col in range(5):
            if (row, col) == (4, 4):
                continue
            state = state_at(env, row, col)
            for action in env.ref_action_set(state):
                assert env.distance(env.step(state, action)) == env.distance(state) - 1.0


def test_grid_encoding():
    env = GridWorld()
    vec = env.encode(env.reset())
    assert vec.shape == (25,)
    assert vec[0] == ENCODE_AGENT
    assert vec[24] == ENCODE_GOAL
    assert np.count_nonzero(vec) == 2
    at_goal = env.encode(state_at(env, 4, 4))
    assert at_goal[24] == ENCODE_AGENT  # agent marker overrides the goal marker
    assert np.count_nonzero(at_goal) == 1
    codes = {tuple(env.encode(state_at(env, r, c)))
             for r in range(5) for c in range(5)}
    assert len(codes) == 25  # injective over agent positions
    assert set(np.unique(vec)) <= {0.0, 0.25, 0.5, 1.0}


def test_maze_reset_and_distances_match_oracle():
    env = MazeGrid()
    state = env.reset()
    assert env.cells[state.cell] == GridPos(0, 0)
    assert env.distance(state_at(env, 5, 5)) == 0.0  # the goal
    assert env.horizon == 12
    assert env.distance(state) == 10.0
    oracle = maze_oracle_distances(DEFAULT_MAZE_MAP)
    for pos in env.cells:
        probe = state_at(env, *pos)
        assert env.distance(probe) == float(oracle[(pos.row, pos.col)])


def test_maze_wall_and_border_bumps_are_noops():
    env = MazeGrid()
    start = env.reset()
    up, right, down, left = range(4)
    assert env.cells[env.step(start, up).cell] == GridPos(0, 0)
    assert env.cells[env.step(start, left).cell] == GridPos(0, 0)
    assert env.cells[env.step(start, right).cell] == GridPos(0, 1)
    below = env.step(start, down)
    assert env.cells[below.cell] == GridPos(1, 0)
    assert env.cells[env.step(below, right).cell] == GridPos(1, 0)  # wall at (1, 1)


def test_maze_reference_actions_decrease_distance():
    env = MazeGrid()
    for pos in env.cells:
        if pos == GridPos(5, 5):  # the goal
            continue
        state = state_at(env, *pos)
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
    walk = BumpWalk(map_text, 20)
    assert list(env.cells) == sorted(walk.dist)
    for cell, pos in enumerate(env.cells):
        state = EnvState(cell, 0, False)
        assert env.ref_action_set(state) == walk.refs(pos), pos
        assert np.array_equal(env.encode(state), walk.encode(pos)), pos
    # encoding a state leaves the table as it was
    assert np.array_equal(env.encode(env.reset()), env.encode(env.reset()))


def test_an_encoded_row_is_read_only():
    """``encode`` hands out the env's own feature row, so a write into it
    raises instead of changing every later step's features."""
    for env in (GridWorld(), MazeGrid()):
        features = env.encode(env.reset())
        with pytest.raises(ValueError, match="read-only"):
            features[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            features += 1.0
        assert np.array_equal(env.encode(env.reset()), env.features[0])


@st.composite
def _reachable_maps(draw):
    """(map text, horizon): a rectangular map of up to 6x6 cells whose start
    reaches its goal, and a horizon no shorter than that path."""
    n_rows, n_cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    cells = draw(st.lists(st.sampled_from("..#"), min_size=n_rows * n_cols,
                          max_size=n_rows * n_cols))
    goal = draw(st.integers(0, n_rows * n_cols - 1))
    cells[goal] = "G"
    lines = ["".join(cells[r * n_cols:(r + 1) * n_cols]) for r in range(n_rows)]
    dist = maze_oracle_distances("\n".join(lines))
    reach = sorted(pos for pos in dist if dist[pos] > 0)
    assume(reach)
    row, col = draw(st.sampled_from(reach))
    lines[row] = lines[row][:col] + "S" + lines[row][col + 1:]
    horizon = dist[(row, col)] + draw(st.integers(0, 3))
    return "\n".join(lines) + "\n", horizon


@settings(max_examples=200, deadline=None)
@given(_reachable_maps())
def test_the_table_env_equals_a_walk_of_the_bump_rule(spec):
    """At every cell, step count and action of a random map, the table env's
    step, distance, reference actions and encoding equal a step-by-step
    walk of the bump rule, and its cells are the ones that reach the goal,
    in row-major order."""
    map_text, horizon = spec
    env = MazeGrid(map_text, horizon)
    walk = BumpWalk(map_text, horizon)
    assert list(env.cells) == sorted(walk.dist)
    assert env.cells[env.reset().cell] == divmod(
        map_text.replace("\n", "").index("S"), walk.n_cols)
    for cell, pos in enumerate(env.cells):
        state = EnvState(cell, 0, False)
        assert env.distance(state) == walk.dist[pos]
        assert env.ref_action_set(state) == walk.refs(pos)
        assert np.array_equal(env.encode(state), walk.encode(pos))
        for count, action in itertools.product(range(horizon), range(4)):
            nxt = env.step(EnvState(cell, count, False), action)
            assert (env.cells[nxt.cell], nxt.step_count, nxt.terminal) \
                == walk.step(pos, count, action), (pos, count, action)


def test_the_grid_table_equals_the_deflect_arithmetic():
    """The grid's goal distances, reference actions and encodings are the
    bump rule's over its open map; its 24 non-goal cells x 2 actions step
    by the deflect arithmetic. A step from the goal is never taken, since
    the goal is terminal, and the table keeps the agent there."""
    env = GridWorld()
    walk = BumpWalk("S....\n" + ".....\n" * 3 + "....G\n", 8, env.deltas)
    assert list(env.cells) == [(r, c) for r in range(5) for c in range(5)]
    for cell, pos in enumerate(env.cells):
        state = EnvState(cell, 0, False)
        assert env.distance(state) == walk.dist[pos]
        assert env.ref_action_set(state) == walk.refs(pos)
        assert np.array_equal(env.encode(state), walk.encode(pos))
        for action in (env.RIGHT, env.DOWN):
            if pos == (4, 4):
                assert env.next_cell[cell][action] == cell
                continue
            nxt = env.step(state, action)
            want = grid_deflect(*pos, action)
            assert env.cells[nxt.cell] == want, (pos, action)
            assert nxt.terminal == (want == (4, 4))


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
