"""Persona-aware policy-distribution agent.

The agent models a distribution over teacher policies with three parts:
an identity net rho(k|s), a persona embedding table, and a persona-conditioned
policy net pi(a|s,h). Sampling a policy means sampling an identity, looking up
its persona, and evaluating the policy net on concat(state, persona). Both
nets are ``nncore.MLP``s; the persona table is the policy net's embedding.

Posterior sampling perturbs only the policy head ``exe.out.W``: a last-layer
Laplace approximation with a diagonal Gaussian whose mean is the trained
weights and whose precision is a prior constant plus the Gauss-Newton
diagonal p_a (1 - p_a) h_j^2 of every queried training step. The precision
only grows, so posterior samples concentrate where the agent has been taught.
Acting and training always use the mean weights.
"""
from __future__ import annotations

import numpy as np

from .nncore import MLP, categorical, softmax, softmax_nll
from .teachers import TeacherResponse

HIDDEN_WIDTH = 100
PERSONA_DIM = 50
PRIOR_PRECISION = 10.0
HEAD_PRECISION_NAME = "exe.out.precision"


class PersonaAgent:
    def __init__(self, state_dim: int, n_actions: int, n_teachers: int,
                 rng: np.random.Generator, hidden: int = HIDDEN_WIDTH,
                 persona_dim: int = PERSONA_DIM,
                 prior_precision: float = PRIOR_PRECISION, lr: float = 1e-3):
        if n_teachers < 1:
            raise ValueError("need at least one teacher")
        if not prior_precision > 0.0:
            raise ValueError(
                f"prior precision must be positive, got {prior_precision}")
        self.n_actions = n_actions
        self.n_teachers = n_teachers
        self.prior_precision = prior_precision

        self.exe_net = MLP("exe", state_dim, hidden, n_actions, rng, lr,
                           embed=("persona", n_teachers, persona_dim))
        # diagonal posterior precision of exe.out.W; never decreases
        self.head_precision = np.full(self.exe_net.out.w.value.shape,
                                      float(prior_precision))
        self.id_net = MLP("id", state_dim, hidden, n_teachers, rng, lr)

    # ---------------------------------------------------------------- forward

    def identity_probs(self, features: np.ndarray) -> np.ndarray:
        logits, _ = self.id_net.forward(features)
        return softmax(logits)

    def posterior_draw(self, rng: np.random.Generator) -> np.ndarray:
        """A standard-normal array shaped like ``exe.out.W``: one posterior sample."""
        return rng.standard_normal(self.head_precision.shape)

    def policy_probs(self, features: np.ndarray, identity: int,
                     draw: np.ndarray | None = None) -> np.ndarray:
        """Policy at the mean weights, or with the head at W + draw/sqrt(precision).

        ``draw`` may be one posterior draw or a stack ``(N, *W.shape)`` of them;
        a stack shares one hidden forward and returns ``(N, n_actions)``.
        """
        if draw is None:
            logits, _ = self.exe_net.forward(features, identity)
        else:
            h, _ = self.exe_net.hidden_forward(features, identity)
            out = self.exe_net.out
            w = out.w.value + draw / np.sqrt(self.head_precision)
            logits = w @ h + out.b.value
        return softmax(logits)

    def mean_exe_policy(self, features: np.ndarray, n: int,
                        rng: np.random.Generator) -> np.ndarray:
        """Arithmetic mean of ``n`` sampled policies (no posterior sampling)."""
        if n < 1:
            raise ValueError("n must be positive")
        rho = self.identity_probs(features)
        ks = categorical(rho, rng, n)
        counts = np.bincount(ks, minlength=self.n_teachers)
        mean = np.zeros(self.n_actions)
        for k in np.flatnonzero(counts):
            mean += (counts[k] / n) * self.policy_probs(features, int(k))
        return mean

    # --------------------------------------------------------------- training

    def exe_losses(self, features: np.ndarray, response: TeacherResponse):
        """Accumulate gradients for one query; returns (policy loss, identity loss).

        The policy loss conditions on the observed persona, not the mean one.
        The step's Gauss-Newton diagonal is added to the head precision.
        """
        k_star = response.identity
        if not 0 <= k_star < self.n_teachers:
            raise IndexError(f"identity {k_star} out of range")

        logits, cache = self.exe_net.forward(features, k_star)
        probs, pol_loss, dlogits = softmax_nll(logits, response.exe_action)
        _, _, (h, _) = cache  # a Dense cache is (input, output)
        self.head_precision += np.outer(probs * (1.0 - probs), h * h)
        self.exe_net.backward(cache, dlogits)

        logits, cache = self.id_net.forward(features)
        _, id_loss, dlogits = softmax_nll(logits, k_star)
        self.id_net.backward(cache, dlogits)
        return pol_loss, id_loss

    def end_episode_update(self) -> None:
        """One Adam step per model, only if the episode contributed losses."""
        self.exe_net.update()
        self.id_net.update()

    # ------------------------------------------------------------ persistence

    def param_arrays(self) -> dict[str, np.ndarray]:
        arrays = dict(self.exe_net.params.as_arrays())
        arrays.update(self.id_net.params.as_arrays())
        return arrays

    def load_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        self.exe_net.params.load_arrays(arrays)
        self.id_net.params.load_arrays(arrays)

    def posterior_arrays(self) -> dict[str, np.ndarray]:
        """Posterior state saved beside the trainable parameters."""
        return {HEAD_PRECISION_NAME: self.head_precision}

    def load_posterior_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        if HEAD_PRECISION_NAME not in arrays:
            raise ValueError(f"checkpoint has no posterior precision "
                             f"{HEAD_PRECISION_NAME!r}; save it from a "
                             f"training run to report model uncertainty")
        precision = np.asarray(arrays[HEAD_PRECISION_NAME], dtype=np.float64)
        if precision.shape != self.head_precision.shape:
            raise ValueError(f"shape mismatch for {HEAD_PRECISION_NAME!r}: "
                             f"expected {self.head_precision.shape}, "
                             f"got {precision.shape}")
        if not (precision > 0.0).all():
            raise ValueError(f"{HEAD_PRECISION_NAME!r} must be positive")
        self.head_precision[...] = precision
