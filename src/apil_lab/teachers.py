"""Teacher committees: non-deterministic reference policies with identities.

A choice among one option (a committee of one, or one reference action)
draws nothing, as ``rng.integers(1)``, which returns 0, would not either.
"""
from __future__ import annotations

import enum
from typing import NamedTuple

import numpy as np


class TeacherKind(enum.Enum):
    DETM_FIRST = "detm-first"
    DETM_LAST = "detm-last"
    RAND = "rand"


TEACHER_MODELS: dict[str, tuple[TeacherKind, ...]] = {
    "detm": (TeacherKind.DETM_FIRST,),
    "rand": (TeacherKind.RAND,),
    "tworand": (TeacherKind.RAND, TeacherKind.RAND),
    "twodifdetm": (TeacherKind.DETM_FIRST, TeacherKind.DETM_LAST),
}


class TeacherResponse(NamedTuple):
    exe_action: int
    identity: int
    dist: float


class Committee:
    """A set of teachers; one member is active per episode."""

    def __init__(self, members: tuple[TeacherKind, ...]):
        if not members:
            raise ValueError("committee needs at least one member")
        self.members = tuple(members)
        self.active_member: int | None = None

    @property
    def size(self) -> int:
        return len(self.members)

    def select_member(self, rng: np.random.Generator) -> int:
        self.active_member = int(rng.integers(self.size)) if self.size > 1 else 0
        return self.active_member

    def respond(self, env, state, rng: np.random.Generator) -> TeacherResponse:
        """Answer a query: reference action, active identity, current distance."""
        if state.terminal:
            raise ValueError("teacher queried at a terminal state")
        if self.active_member is None:
            raise ValueError("select_member must run before respond")
        kind = self.members[self.active_member]
        refs = env.ref_action_set(state)
        if kind is TeacherKind.DETM_LAST:
            action = refs[-1]
        elif kind is TeacherKind.RAND and len(refs) > 1:
            action = refs[int(rng.integers(len(refs)))]
        else:  # detm-first, or a choice among one
            action = refs[0]
        return TeacherResponse(action, self.active_member, env.distance(state))


def make_committee(model: str) -> Committee:
    if model not in TEACHER_MODELS:
        raise ValueError(
            f"unknown teacher model {model!r}; expected one of {sorted(TEACHER_MODELS)}"
        )
    return Committee(TEACHER_MODELS[model])


def estimate_teacher_final_distance(committee: Committee, env, n_rollouts: int,
                                    rng: np.random.Generator) -> float:
    """Mean final distance over always-query rollouts (the d* baseline)."""
    from .query import AlwaysQueryPolicy
    from .training import rollout  # training imports this module

    if n_rollouts < 1:
        raise ValueError("n_rollouts must be positive")
    total = 0.0
    for _ in range(n_rollouts):
        traj = rollout(None, committee, env, AlwaysQueryPolicy(), rng)
        total += traj.final_dist
    return total / n_rollouts
