"""Grid environments with shortest-path distances and reference action sets."""
from __future__ import annotations

from collections import deque
from typing import NamedTuple

import numpy as np

ENVS = ("grid", "maze")  # the kinds make_env builds
ENCODE_EMPTY = 0.0
ENCODE_WALL = 0.25
ENCODE_AGENT = 0.5
ENCODE_GOAL = 1.0


class GridPos(NamedTuple):
    row: int
    col: int


class EnvState(NamedTuple):
    agent: GridPos
    goal: GridPos
    step_count: int
    terminal: bool


DEFAULT_MAZE_MAP = """\
S.....
.####.
......
.####.
......
#####G
"""


class MazeGrid:
    """Walled grid parsed from a text map; bumping a wall or border is a no-op."""

    kind = "maze"
    n_actions = 4
    deltas = ((-1, 0), (0, 1), (1, 0), (0, -1))  # [up, right, down, left]
    always_succeeds = True  # see the horizon check in __init__

    def __init__(self, map_text: str = DEFAULT_MAZE_MAP, horizon: int = 12):
        rows = [line for line in map_text.splitlines() if line]
        if not rows or any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("maze map must be rectangular and non-empty")
        self.n_rows = len(rows)
        self.n_cols = len(rows[0])
        self.state_dim = self.n_rows * self.n_cols
        self.horizon = horizon
        self._walls = np.zeros((self.n_rows, self.n_cols), dtype=bool)
        start = goal = None
        for r, line in enumerate(rows):
            for c, ch in enumerate(line):
                if ch == "#":
                    self._walls[r, c] = True
                elif ch == "S":
                    start = GridPos(r, c)
                elif ch == "G":
                    goal = GridPos(r, c)
                elif ch != ".":
                    raise ValueError(f"unknown map character {ch!r}")
        cells = "".join(rows)
        if cells.count("S") != 1 or cells.count("G") != 1:
            raise ValueError("maze map needs exactly one S and one G")
        self._start = start
        self._goal = goal
        self._dists = self._bfs_from_goal()
        if start not in self._dists:
            raise ValueError("goal is unreachable from the start cell")
        # each reference action lowers the distance by one, so a teacher
        # that is always asked reaches the goal within the horizon: d* is 0
        if horizon < self._dists[start]:
            raise ValueError(
                f"horizon {horizon} is shorter than the "
                f"{int(self._dists[start])}-step optimal path")
        # per-cell tables, so a step neither re-encodes the walls nor
        # re-derives its distance or reference actions
        self._base = np.full(self.state_dim, ENCODE_EMPTY)
        self._base[self._walls.reshape(-1)] = ENCODE_WALL
        self._refs = {
            pos: tuple(a for a in range(self.n_actions)
                       if self._dists.get(self._move(pos, a)) == d - 1.0)
            for pos, d in self._dists.items()}

    def _bfs_from_goal(self) -> dict[GridPos, float]:
        """Goal distance of every cell that reaches the goal, searched
        backwards: a cell is one step farther than the cell its move enters."""
        dists = {self._goal: 0.0}
        frontier = deque([self._goal])
        while frontier:
            pos = frontier.popleft()
            for dr, dc in self.deltas:
                prev = GridPos(pos.row - dr, pos.col - dc)
                if (0 <= prev.row < self.n_rows and 0 <= prev.col < self.n_cols
                        and not self._walls[prev] and prev not in dists):
                    dists[prev] = dists[pos] + 1.0
                    frontier.append(prev)
        return dists

    def reset(self) -> EnvState:
        return EnvState(self._start, self._goal, 0, False)

    def _move(self, pos: GridPos, action: int) -> GridPos:
        dr, dc = self.deltas[action]
        nr, nc = pos.row + dr, pos.col + dc
        if not (0 <= nr < self.n_rows and 0 <= nc < self.n_cols):
            return pos
        if self._walls[nr, nc]:
            return pos
        return GridPos(nr, nc)

    def step(self, state: EnvState, action: int) -> EnvState:
        if state.terminal:
            raise ValueError("step called on a terminal state")
        if not 0 <= action < self.n_actions:
            raise ValueError(f"invalid action {action}")
        agent = self._move(state.agent, action)
        count = state.step_count + 1
        terminal = agent == state.goal or count == self.horizon
        return EnvState(agent, state.goal, count, terminal)

    def distance(self, state: EnvState) -> float:
        d = self._dists.get(state.agent)
        if d is None:
            raise ValueError(f"cell {state.agent} cannot reach the goal")
        return d

    def ref_action_set(self, state: EnvState) -> tuple[int, ...]:
        if state.terminal:
            raise ValueError("reference actions undefined at a terminal state")
        refs = self._refs.get(state.agent)
        if refs is None:
            raise ValueError(f"cell {state.agent} cannot reach the goal")
        return refs

    def encode(self, state: EnvState) -> np.ndarray:
        vec = self._base.copy()
        vec[state.goal.row * self.n_cols + state.goal.col] = ENCODE_GOAL
        vec[state.agent.row * self.n_cols + state.agent.col] = ENCODE_AGENT
        return vec


class GridWorld(MazeGrid):
    """5x5 open grid, start (0,0), goal (4,4), actions [right, down].

    Its distances and reference actions are the maze tables of the open map.
    A move that would leave the grid is deflected to the only in-grid
    direction, so every step reduces the goal distance by exactly one and
    any 8-step episode terminates at the goal. The maze's bump rule would
    waste that move, so a move off the board is not a reference action.
    """

    kind = "grid"
    side = 5
    n_actions = 2
    deltas = ((0, 1), (1, 0))  # [right, down]

    RIGHT = 0
    DOWN = 1

    def __init__(self):
        super().__init__("S....\n" + ".....\n" * 3 + "....G\n", horizon=8)

    def step(self, state: EnvState, action: int) -> EnvState:
        if state.terminal:
            raise ValueError("step called on a terminal state")
        if action not in (self.RIGHT, self.DOWN):
            raise ValueError(f"invalid action {action}")
        r, c = state.agent
        last = self.side - 1
        if action == self.RIGHT:
            agent = GridPos(r, c + 1) if c < last else GridPos(r + 1, c)
        else:
            agent = GridPos(r + 1, c) if r < last else GridPos(r, c + 1)
        count = state.step_count + 1
        terminal = agent == state.goal or count == self.horizon
        return EnvState(agent, state.goal, count, terminal)

    def encode(self, state: EnvState) -> np.ndarray:
        vec = np.zeros(self.state_dim)
        vec[state.goal.row * self.side + state.goal.col] = ENCODE_GOAL
        vec[state.agent.row * self.side + state.agent.col] = ENCODE_AGENT
        return vec


def make_env(kind: str, map_path=None):
    if kind == "grid":
        return GridWorld()
    if kind == "maze":
        if map_path is None:
            return MazeGrid()
        with open(map_path) as fh:
            return MazeGrid(fh.read())
    raise ValueError(f"unknown environment kind {kind!r}")
