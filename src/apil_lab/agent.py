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

Posterior draws are taken in logit space, which is exact for a last layer.
At one state, the K identities' logits for action a are jointly Gaussian
with mean ``H W_a + b_a`` and covariance ``H diag(1/precision_a) H^T``, H
being their ``(K, hidden)`` hidden activation. ``logit_posterior`` gives the
mean logits and a Cholesky factor L of each covariance, so a draw of every
identity's logits takes A x K normals (mean + L z) instead of a weight-space
draw of A x hidden.

Rows are batched: ``identity_probs`` and ``logit_posterior`` take one state
or a stack of states through one stacked forward, and ``exe_losses`` trains
on an episode's queried steps as one ``(T, in)`` pass, so the head precision
and the weights change together at episode end.

The agent keeps a forward table of what one state's steps read at the mean
weights: rho and its cdf (``identity_probs``), the policy rows of all K
identities (``policy_probs``), the logit posterior's mean and factor
(``logit_posterior``), the mean policy of each vector of draw counts
(``mean_exe_policy``, all K rows mixed by the counts) and that mean's cdf
(``mean_policy_cdf``). Keys hold the state's bytes, since a ``(1, dim)``
matmul may round apart from a ``(K, dim)`` one.

rho, the policy rows and the posterior depend only on the weights and the
state, so they are filled by stack. The agent keeps the features of every
state it has been asked about at one state: at most the distinct states an
env can show (24 on the 5x5 grid, 22 on the 6x6 maze), so the set has no
cap. The first miss of a kind after a weight change evaluates it at every
known state in one stacked pass, and each row becomes that state's entry; a
state first seen at the current weights gets a one-row stack and joins the
next fill. Each state of a stack is a ``(1, in)`` row of its own, so a row's
bits do not depend on the other rows. A posterior fill also writes the
policy rows, the softmax of its mean logits, so a method that reads both
runs one policy-net forward per weight change.

Its one invariant: every entry is read through ``_entry``, which drops the
table when either net's ``ParamSet.version`` moves. Weights change only
through ``update`` and ``load_arrays``; a direct write to a ``Param.value``
is outside that contract. The posterior entries also read the head
precision, so its two writers, ``exe_losses`` and ``load_arrays``, drop the
table too. The table's arrays are shared, so they are read-only.
"""
from __future__ import annotations

import numpy as np

from .nncore import MLP, categorical_cdf, draw, softmax, softmax_nll
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
        self._table: dict = {}
        self._table_version = None
        self._filled: set[str] = set()  # kinds filled at the table's version
        self._known: dict[bytes, np.ndarray] = {}  # features by their bytes
        self._known_rows = None  # their stack, rebuilt when a state joins

    # ---------------------------------------------------------------- forward

    def _entry(self, key, build):
        """The table's read-only ``build()`` under ``key``, built once at the
        current weights. Every entry is read here."""
        version = (self.exe_net.params.version, self.id_net.params.version)
        if version != self._table_version:
            self._table, self._filled = {}, set()
            self._table_version = version
        entry = self._table.get(key)
        if entry is None:
            entry = self._table[key] = _read_only(build())
        return entry

    def _per_state(self, kind: str, features: np.ndarray) -> tuple:
        """``kind``'s arrays at one state, read from the table, or at each
        state of a stack ``(S, in)``, computed afresh."""
        if features.ndim > 1:
            return self._stack(kind, features)
        return self._entry((kind, features.tobytes()),
                           lambda: self._fill(kind, features))

    def _fill(self, kind: str, features: np.ndarray) -> tuple:
        """The entry of ``kind`` at a state that missed. The first miss of
        ``kind`` at the current weights evaluates it at every known state in
        one stack and writes each state's row; a later miss is a state first
        seen since, which gets a one-row stack. A posterior fill also writes
        the policy rows, the softmax of its mean logits."""
        state = features.tobytes()
        if state not in self._known:
            self._known[state] = features.copy()
            self._known_rows = np.stack(list(self._known.values()))
        if kind in self._filled:
            return tuple(x[0] for x in self._stack(kind, features[None]))
        stack = self._stack(kind, self._known_rows)
        self._write(kind, stack)
        if kind == "posterior" and "policy" not in self._filled:
            self._write("policy", (softmax(stack[0]),))
        return self._table[(kind, state)]

    def _write(self, kind: str, stack: tuple) -> None:
        """Each known state's row of ``stack`` becomes its entry of ``kind``."""
        self._filled.add(kind)
        for known, row in zip(self._known, zip(*_read_only(stack))):
            self._table[(kind, known)] = row  # read-only views of the stack

    def _stack(self, kind: str, features: np.ndarray) -> tuple:
        """The arrays of ``kind`` at each state of a stack ``(S, in)``, each
        with S rows: ``(rho, cdf)`` for "rho", ``(policy,)`` for "policy"
        and ``(mean, factor)`` for "posterior". Each state is a ``(1, in)``
        row of its own, so its row does not depend on the rest of the
        stack."""
        x = features[:, None, :]
        if kind == "rho":
            logits, _ = self.id_net.forward(x)
            rho = softmax(logits[:, 0])
            return rho, categorical_cdf(rho, stack=True)
        h, _ = self.exe_net.hidden_forward(x, np.arange(self.n_teachers))
        mean, _ = self.exe_net.out.forward(h)
        if kind == "policy":
            return (softmax(mean),)
        scaled = h[:, None] / np.sqrt(self.head_precision)[:, None, :]
        return mean, psd_factor(scaled @ np.swapaxes(scaled, -1, -2))

    def identity_probs(self, features: np.ndarray) -> np.ndarray:
        """rho(k|s) at one state ``(K,)``, or at each state of a stack ``(S,
        K)``."""
        return self._per_state("rho", features)[0]

    def policy_probs(self, features: np.ndarray, identity) -> np.ndarray:
        """Policy at one state under the mean weights, rows of the all-K
        entry: an int identity gives ``(A,)``, a vector of identities one
        row each. Both are read-only."""
        return _read_only(self._per_state("policy", features)[0][identity])

    def logit_posterior(self, features: np.ndarray):
        """The head posterior in logit space, at one state ``(in,)`` or at
        each state of a stack ``(S, in)``.

        Returns the mean-weight logits of all K identities ``(..., K, A)``
        and, per action a, a lower-triangular factor L of their covariance
        ``H diag(1/precision_a) H^T`` ``(..., A, K, K)``, where H is the
        identities' ``(K, hidden)`` hidden activation. A draw of every
        identity's logits is then mean + L z with z of A x K normals.
        """
        return self._per_state("posterior", features)

    def mean_exe_policy(self, features: np.ndarray, n: int,
                        rng: np.random.Generator) -> np.ndarray:
        """Arithmetic mean of ``n`` sampled policies (no posterior sampling).

        The ``n`` identities are drawn from rho's table cdf, and all K
        policy rows are mixed by their draw counts; the mean of each vector
        of counts is kept in the table, so a state's repeat draw reads it.
        """
        if n < 1:
            raise ValueError("n must be positive")
        cdf = self._per_state("rho", features)[1]
        counts = np.bincount(draw(cdf, rng, n), minlength=self.n_teachers)
        return self._entry(
            ("mean", features.tobytes(), counts.tobytes()),
            lambda: (counts / n) @ self._per_state("policy", features)[0])

    def mean_policy_cdf(self, mean: np.ndarray) -> np.ndarray:
        """The table's cdf of a mean policy that ``mean_exe_policy`` gave,
        which the step's action is drawn from."""
        return self._entry(("mean cdf", mean.tobytes()),
                           lambda: categorical_cdf(mean))

    # --------------------------------------------------------------- training

    def exe_losses(self, features: np.ndarray,
                   responses: list[TeacherResponse]):
        """Accumulate the gradients of T queried steps in one pass per net.

        ``features`` is the ``(T, state_dim)`` stack of the steps' states and
        ``responses`` their T teacher responses. Returns the ``(T,)`` policy
        and identity losses. The policy loss conditions on the observed
        persona, not the mean one, and the steps' Gauss-Newton diagonal is
        added to the head precision.
        """
        identities = np.array([r.identity for r in responses])
        actions = np.array([r.exe_action for r in responses])

        logits, cache = self.exe_net.forward(features, identities)
        probs, pol_losses, dlogits = softmax_nll(logits, actions)
        _, (_, h), _ = cache  # a Dense cache is (input blocks, output)
        self.head_precision += (probs * (1.0 - probs)).T @ (h * h)
        self._table_version = None  # the posterior entries read the precision
        self.exe_net.backward(cache, dlogits)

        logits, cache = self.id_net.forward(features)
        _, id_losses, dlogits = softmax_nll(logits, identities)
        self.id_net.backward(cache, dlogits)
        return pol_losses, id_losses

    def end_episode_update(self) -> None:
        """One Adam step per model, only if the episode contributed losses."""
        self.exe_net.update()
        self.id_net.update()

    # ------------------------------------------------------------ persistence

    def param_arrays(self) -> dict[str, np.ndarray]:
        """The checkpoint arrays: both nets' parameters, then the head
        precision."""
        arrays = dict(self.exe_net.params.as_arrays())
        arrays.update(self.id_net.params.as_arrays())
        arrays[HEAD_PRECISION_NAME] = self.head_precision
        return arrays

    def load_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        self.exe_net.params.load_arrays(arrays)
        self.id_net.params.load_arrays(arrays)
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
        self._table_version = None  # the posterior entries read the precision


def _read_only(entry):
    """A table entry, an array or a tuple of arrays, made read-only."""
    for array in entry if isinstance(entry, tuple) else (entry,):
        array.flags.writeable = False
    return entry


def psd_factor(cov: np.ndarray) -> np.ndarray:
    """Lower-triangular L with L L^T = cov, for a stack ``(..., K, K)`` of
    positive semi-definite matrices: a Cholesky whose pivots are clipped at
    0, one column at a time over the whole stack. A singular block (K=1 with
    a zero hidden row, or two proportional rows) gets a zero column where
    ``np.linalg.cholesky`` would raise."""
    k = cov.shape[-1]
    factor = np.zeros_like(cov)
    for j in range(k):
        col = cov[..., j:, j]  # column j from the diagonal down
        for p in range(j):
            col = col - factor[..., j:, p] * factor[..., j, p, None]
        pivot = np.sqrt(np.maximum(col[..., 0], 0.0))
        factor[..., j, j] = pivot
        if j + 1 < k:
            np.divide(col[..., 1:], pivot[..., None],
                      out=factor[..., j + 1:, j], where=pivot[..., None] > 0.0)
    return factor
