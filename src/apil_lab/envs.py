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
    cell: int  # index into the env's ``cells``
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
    """Walled grid parsed from a text map; bumping a wall or border is a no-op.

    A state names one of ``cells``, the cells that reach the goal in
    row-major order. Their next cells (``next_cell``), goal distances,
    reference actions and read-only feature rows (``features``) are tables
    built once, so a step reads them."""

    kind = "maze"
    n_actions = 4
    deltas = ((-1, 0), (0, 1), (1, 0), (0, -1))  # [up, right, down, left]
    always_succeeds = True  # see the horizon check in __init__

    def __init__(self, map_text: str = DEFAULT_MAZE_MAP, horizon: int = 12):
        rows = [line for line in map_text.splitlines() if line]
        if not rows or any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("maze map must be rectangular and non-empty")
        self.n_rows, self.n_cols = len(rows), len(rows[0])
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
        dist = self._bfs_from_goal(goal)
        if np.isinf(dist[start]):
            raise ValueError("goal is unreachable from the start cell")
        # each reference action lowers the distance by one, so a teacher
        # that is always asked reaches the goal within the horizon: d* is 0
        if horizon < dist[start]:
            raise ValueError(
                f"horizon {horizon} is shorter than the "
                f"{int(dist[start])}-step optimal path")
        reach = np.isfinite(dist)
        number = (np.cumsum(reach) - 1).reshape(reach.shape)  # cell indices
        self.cells = tuple(GridPos(int(r), int(c))
                           for r, c in np.argwhere(reach))
        self._start, self._goal = int(number[start]), int(number[goal])
        actions = range(self.n_actions)
        self.next_cell = tuple(
            tuple(int(number[self._next(pos, a)]) for a in actions)
            for pos in self.cells)
        self._dist = tuple(float(dist[pos]) for pos in self.cells)
        self._refs = tuple(
            tuple(a for a in actions
                  if dist[self._move(pos, a)] == dist[pos] - 1.0)
            for pos in self.cells)
        base = np.where(self._walls.reshape(-1), ENCODE_WALL, ENCODE_EMPTY)
        base[goal.row * self.n_cols + goal.col] = ENCODE_GOAL
        self.features = np.tile(base, (len(self.cells), 1))
        self.features[np.arange(len(self.cells)),
                      np.flatnonzero(reach)] = ENCODE_AGENT
        self.features.flags.writeable = False  # encode hands out its rows

    def _bfs_from_goal(self, goal: GridPos) -> np.ndarray:
        """Goal distance of every cell, inf where the goal is out of reach,
        searched backwards: a cell is one step farther than the cell its move
        enters."""
        dist = np.full(self._walls.shape, np.inf)
        dist[goal] = 0.0
        frontier = deque([goal])
        while frontier:
            pos = frontier.popleft()
            for dr, dc in self.deltas:
                prev = GridPos(pos.row - dr, pos.col - dc)
                if (0 <= prev.row < self.n_rows and 0 <= prev.col < self.n_cols
                        and not self._walls[prev] and np.isinf(dist[prev])):
                    dist[prev] = dist[pos] + 1.0
                    frontier.append(prev)
        return dist

    def reset(self) -> EnvState:
        return EnvState(self._start, 0, False)

    def _move(self, pos: GridPos, action: int) -> GridPos:
        """The bump rule, which also defines the reference actions."""
        dr, dc = self.deltas[action]
        nr, nc = pos.row + dr, pos.col + dc
        if (0 <= nr < self.n_rows and 0 <= nc < self.n_cols
                and not self._walls[nr, nc]):
            return GridPos(nr, nc)
        return pos

    def _next(self, pos: GridPos, action: int) -> GridPos:
        """The cell a step enters."""
        return self._move(pos, action)

    def step(self, state: EnvState, action: int) -> EnvState:
        if state.terminal:
            raise ValueError("step called on a terminal state")
        if not 0 <= action < self.n_actions:
            raise ValueError(f"invalid action {action}")
        cell = self.next_cell[state.cell][action]
        count = state.step_count + 1
        return EnvState(cell, count,
                        cell == self._goal or count == self.horizon)

    def distance(self, state: EnvState) -> float:
        return self._dist[state.cell]

    def ref_action_set(self, state: EnvState) -> tuple[int, ...]:
        if state.terminal:
            raise ValueError("reference actions undefined at a terminal state")
        return self._refs[state.cell]

    def encode(self, state: EnvState) -> np.ndarray:
        return self.features[state.cell]


class GridWorld(MazeGrid):
    """5x5 open grid, start (0,0), goal (4,4), actions [right, down].

    The maze's tables over the open map, but for its next cells: a move that
    would leave the grid is deflected to the only in-grid direction, so any
    8-step episode ends at the goal. The bump rule keeps the reference
    actions, so a move off the board is never one."""

    kind = "grid"
    n_actions = 2
    deltas = ((0, 1), (1, 0))  # [right, down]

    RIGHT = 0
    DOWN = 1

    # the maze's own methods, bound here too because perfbench/layers.py
    # wraps the grid's class body by name (ROADMAP item 2)
    step, encode = MazeGrid.step, MazeGrid.encode

    def __init__(self):
        super().__init__("S....\n" + ".....\n" * 3 + "....G\n", horizon=8)

    def _next(self, pos: GridPos, action: int) -> GridPos:
        moved = self._move(pos, action)
        return moved if moved != pos else self._move(pos, 1 - action)


def make_env(kind: str, map_path=None):
    if kind == "grid":
        return GridWorld()
    if kind == "maze":
        if map_path is None:
            return MazeGrid()
        with open(map_path) as fh:
            return MazeGrid(fh.read())
    raise ValueError(f"unknown environment kind {kind!r}")
