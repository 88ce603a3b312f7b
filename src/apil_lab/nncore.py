"""Minimal dense-network substrate with hand-written backprop.

All arithmetic is float64 numpy. Every network in the package is an ``MLP``
of two Dense layers, optionally fed an Embedding row, that owns its ParamSet
(named value + gradient accumulator pairs) and its Adam state: ``backward``
accumulates gradients, ``update`` applies them. A ParamSet keeps all its
values in one flat buffer and all its gradients in another, each parameter
being a reshaped view of both, so an Adam step or a zeroing is one pass over
a buffer. Checkpoints use a small versioned binary container that ends in
a CRC-32; see ``save_checkpoint``. Every file the package writes goes
through ``atomic_open``, so it holds its old bytes or all of its new ones.

Rows are batched: a layer, the MLP and ``softmax_nll`` take one row or a
stack ``(B, ...)`` of rows through the same code, and a backward pass sums
its rows' gradients. A stack's float sums may differ from a loop over its
rows in the last bits (a GEMM in place of B GEMVs). A Dense backward
computes d(input) only of the input block its caller reads: the MLP reads
its out layer's input and the embedding block, never a data block.

``draw`` is the one sampler. It takes a cdf that ``categorical_cdf`` built
and checked, so a caller that keeps a cdf draws from it without a re-check.
"""
from __future__ import annotations

import contextlib
import json
import math
import os
import zlib
from dataclasses import dataclass

import numpy as np

CHECKPOINT_MAGIC = b"APILCKPT"
CHECKPOINT_VERSION = 2
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
CDF_SUM_TOLERANCE = np.sqrt(np.finfo(np.float64).eps)  # Generator.choice's


class Param:
    """A named parameter array with a paired gradient accumulator; both are
    views into their ParamSet's flat buffers."""

    __slots__ = ("name", "value", "grad")

    def __init__(self, name: str, value: np.ndarray, grad: np.ndarray):
        self.name = name
        self.value = value
        self.grad = grad

    def __repr__(self) -> str:  # pragma: no cover
        return f"Param({self.name!r}, shape={self.value.shape})"


class ParamSet:
    """Ordered collection of named parameters over two flat float64 buffers,
    ``values`` and ``grads``; every Param's arrays are reshaped views of them.

    ``version`` counts the changes of the values after construction: an Adam
    step and ``load_arrays`` are the only writers, and each bumps it.
    """

    def __init__(self):
        self._params: dict[str, Param] = {}
        self.values = np.zeros(0)
        self.grads = np.zeros(0)
        self.version = 0

    def add(self, name: str, value: np.ndarray) -> Param:
        """Append a parameter; the buffers grow and every view is re-bound."""
        if name in self._params:
            raise ValueError(f"duplicate parameter name {name!r}")
        value = np.asarray(value, dtype=np.float64)
        self.values = np.concatenate([self.values, value.reshape(-1)])
        self.grads = np.concatenate([self.grads, np.zeros(value.size)])
        self._params[name] = Param(name, value, None)
        start = 0
        for p in self:
            stop = start + p.value.size
            p.value = self.values[start:stop].reshape(p.value.shape)
            p.grad = self.grads[start:stop].reshape(p.value.shape)
            start = stop
        return self._params[name]

    def __iter__(self):
        return iter(self._params.values())

    def __getitem__(self, name: str) -> Param:
        return self._params[name]

    def as_arrays(self) -> dict[str, np.ndarray]:
        return {p.name: p.value for p in self}

    def load_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        self.version += 1  # first, so a load that fails part way counts too
        for p in self:
            if p.name not in arrays:
                raise ValueError(f"checkpoint has no parameter {p.name!r}")
            arr = np.asarray(arrays[p.name], dtype=np.float64)
            if arr.shape != p.value.shape:
                raise ValueError(
                    f"shape mismatch for {p.name!r}: "
                    f"expected {p.value.shape}, got {arr.shape}"
                )
            if not np.isfinite(arr).all():
                raise ValueError(f"non-finite value in {p.name!r}")
            p.value[...] = arr


class AdamState:
    """Adam optimizer state over one ParamSet (bias-corrected moments), kept
    flat like the ParamSet's buffers, so a step is one pass over them."""

    def __init__(self, params: ParamSet, lr: float = 1e-3):
        self.lr = lr
        self.t = 0
        self._m = np.zeros_like(params.values)
        self._v = np.zeros_like(params.values)

    def step(self, params: ParamSet) -> None:
        """Apply one update from the accumulated gradients, then zero them.

        A NaN or infinite gradient raises ``FloatingPointError`` naming its
        parameter. One sum of squares decides: it is finite unless some
        element is not or a square overflows, and only then are the elements
        scanned. A plain sum would warn on a {+inf, -inf} pair.
        """
        grad = params.grads
        if not math.isfinite(grad @ grad):
            bad = next((p for p in params if not np.isfinite(p.grad).all()),
                       None)
            if bad is not None:
                raise FloatingPointError(
                    f"non-finite gradient for parameter {bad.name!r}")
        self.t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        m, v = self._m, self._v
        m *= b1
        m += (1.0 - b1) * grad
        v *= b2
        v += (1.0 - b2) * grad * grad
        m_hat = m / (1.0 - b1 ** self.t)
        v_hat = v / (1.0 - b2 ** self.t)
        params.values -= self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        params.version += 1
        grad.fill(0.0)


def init_weight(rng: np.random.Generator, in_dim: int, out_dim: int) -> np.ndarray:
    bound = 1.0 / np.sqrt(in_dim)
    return rng.uniform(-bound, bound, size=(out_dim, in_dim))


class Dense:
    """Fully connected layer y = act(x W^T + b), W shape (out, in).

    ``x`` is one row ``(in,)`` or a stack of rows ``(B, in)``, and ``y`` has
    the same leading shape. The input may come as column blocks whose widths
    sum to ``in``; each block multiplies its own columns of W, so a block of
    one row is shared by every row of the others without a concatenated copy.

    The layer keeps each block's W columns (transposed) and W.grad columns.
    Invariant: they are views of the arrays ``self.w`` holds now, at the
    block widths of the last call. Adam steps and ``load_arrays`` write into
    those arrays in place, so the views see them; the views are cut again
    when ``self.w.value`` is another array (``ParamSet.add`` rebinds every
    view while a net is built) or the block widths change.
    """

    def __init__(self, params: ParamSet, prefix: str, in_dim: int, out_dim: int,
                 activation: str, rng: np.random.Generator):
        if activation not in ("tanh", "identity"):
            raise ValueError(f"unknown activation {activation!r}")
        self.activation = activation
        self.w = params.add(f"{prefix}.W", init_weight(rng, in_dim, out_dim))
        self.b = params.add(f"{prefix}.b", np.zeros(out_dim))
        self._cut_from = self._widths = None
        self._views = []

    def _block_views(self, blocks) -> list:
        """(W's columns transposed, W.grad's columns) of each input block."""
        widths = [x.shape[-1] for x in blocks]
        if self.w.value is not self._cut_from or widths != self._widths:
            w, grad = self.w.value, self.w.grad
            self._views, start = [], 0
            for width in widths:
                columns = slice(start, start + width)
                self._views.append((w[:, columns].T, grad[:, columns]))
                start += width
            self._cut_from, self._widths = w, widths
        return self._views

    def forward(self, *blocks: np.ndarray):
        z = self.b.value
        for x, (w_t, _) in zip(blocks, self._block_views(blocks)):
            z = z + x @ w_t
        y = np.tanh(z) if self.activation == "tanh" else z
        return y, (blocks, y)

    def backward(self, cache, dy: np.ndarray, block: int | None = None):
        """Accumulate the gradients summed over rows. Return d(input) of the
        input block numbered ``block`` (negative counts from the last), or
        None when no block is given: a caller gets only the block it reads.
        Every block must have the rows of ``dy``."""
        blocks, y = cache
        dz = dy * (1.0 - y * y) if self.activation == "tanh" else dy
        rows = dz.reshape(-1, dz.shape[-1])
        self.b.grad += rows.sum(axis=0)
        views = self._block_views(blocks)
        for x, (_, grad) in zip(blocks, views):
            grad += rows.T @ x.reshape(-1, x.shape[-1])
        return None if block is None else dz @ views[block][0].T


class Embedding:
    """Lookup table indexed by one row index or a vector of them."""

    def __init__(self, params: ParamSet, name: str, rows: int, dim: int,
                 rng: np.random.Generator):
        self.table = params.add(name, init_weight(rng, dim, rows))

    @property
    def rows(self) -> int:
        return self.table.value.shape[0]

    def forward(self, index) -> np.ndarray:
        if type(index) is int:  # one step's index: no array reductions
            if not 0 <= index < self.rows:
                raise IndexError(f"embedding index {index} out of range")
            return self.table.value[index]
        index = np.asarray(index)
        if index.min() < 0 or index.max() >= self.rows:
            raise IndexError(f"embedding index {index} out of range")
        return self.table.value[index]

    def backward(self, index, dout: np.ndarray) -> None:
        """Add ``dout`` to the looked-up rows; a repeated index gets every one."""
        np.add.at(self.table.grad, index, dout)


class MLP:
    """Two-layer net ``<prefix>.hidden`` (tanh) -> ``<prefix>.out`` (identity).

    ``embed=(name, rows, dim)`` adds a table ``<prefix>.<name>`` whose row
    ``index`` is appended to every input. Parameters are created, and draw
    from ``rng``, in the order hidden W, out W, table.

    Every call takes one row ``x`` of shape ``(in,)`` or a stack ``(B, in)``
    with an index vector ``(B,)``; ``x`` may also be a tuple of column blocks
    of one shape each, read without a concatenated copy. One row ``x`` with
    an index vector ``(K,)`` evaluates that row under each of the K embedding
    rows (forward only).
    """

    def __init__(self, prefix: str, in_dim: int, hidden: int, out_dim: int,
                 rng: np.random.Generator, lr: float = 1e-3,
                 embed: tuple[str, int, int] | None = None):
        self.params = ParamSet()
        name, rows, dim = embed or ("", 0, 0)
        self.hidden = Dense(self.params, f"{prefix}.hidden", in_dim + dim,
                            hidden, "tanh", rng)
        self.out = Dense(self.params, f"{prefix}.out",
                         hidden, out_dim, "identity", rng)
        self.embed = (Embedding(self.params, f"{prefix}.{name}", rows, dim, rng)
                      if embed else None)
        self.opt = AdamState(self.params, lr=lr)
        self.pending = 0

    def hidden_forward(self, x, index=None):
        """Hidden activation and its cache. ``x`` is one input array or a
        tuple of column blocks (see ``Dense``); the embedding rows join them
        as the last block."""
        blocks = x if isinstance(x, tuple) else (x,)
        if self.embed is not None:
            blocks = (*blocks, self.embed.forward(index))
        return self.hidden.forward(*blocks)

    def forward(self, x: np.ndarray, index=None):
        """Return (output, (index, hidden-layer cache, out-layer cache))."""
        h, h_cache = self.hidden_forward(x, index)
        y, out_cache = self.out.forward(h)
        return y, (index, h_cache, out_cache)

    def backward(self, cache, dy: np.ndarray) -> None:
        """Accumulate the gradients of one forward pass, summed over its rows."""
        index, h_cache, out_cache = cache
        dh = self.out.backward(out_cache, dy, block=0)
        if self.embed is None:
            self.hidden.backward(h_cache, dh)
        else:  # the embedding rows are the last block; no other is read
            self.embed.backward(index, self.hidden.backward(h_cache, dh, -1))
        self.pending += 1

    def update(self) -> None:
        """One Adam step, only if gradients accumulated since the last one."""
        if self.pending == 0:
            return
        self.opt.step(self.params)
        self.pending = 0


@dataclass(frozen=True)
class DropoutSpec:
    """Inverted dropout: zeros with probability ``rate``, else scales by 1/(1-rate)."""

    rate: float

    def __post_init__(self):
        if not 0.0 <= self.rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {self.rate}")


def sample_dropout_mask(spec: DropoutSpec, width: int,
                        rng: np.random.Generator) -> np.ndarray:
    keep = rng.random(width) >= spec.rate
    return keep.astype(np.float64) / (1.0 - spec.rate)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, so a stack of logit rows gives a stack of rows."""
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def categorical_cdf(p: np.ndarray, stack: bool = False) -> np.ndarray:
    """Normalized cdf of a probability vector, checked as ``Generator.choice``
    does; with ``stack``, the cdf of each row of a stack ``(S, n)``, each row
    checked so. A row's bits are those of its own 1-d call.

    Raises ``ValueError`` unless every vector is finite and non-negative with
    a sum within sqrt(eps) of 1. The sum is the cumsum's last element, the
    normaliser the cdf is divided by, so one reduction (the minimum) and that
    element decide; NaN fails both.
    """
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != (2 if stack else 1) or p.shape[-1] == 0:
        raise ValueError("probabilities must be a " + (
            "stack of non-empty rows" if stack else "non-empty 1-d vector"))
    cdf = p.cumsum(axis=-1)
    total = cdf[:, -1:] if stack else cdf[-1]
    # a stack's worst row decides; a vector keeps the scalar path
    error = abs(total - 1.0).max() if stack else abs(total - 1.0)
    if not (p.min() >= 0.0 and error <= CDF_SUM_TOLERANCE):
        if not np.isfinite(p).all():
            raise ValueError("probabilities must be finite")
        if (p < 0.0).any():
            raise ValueError("probabilities must be non-negative")
        raise ValueError("probabilities do not sum to 1")
    cdf /= total
    return cdf


def draw(cdf: np.ndarray, rng: np.random.Generator, size=None):
    """Indices drawn from the distribution whose ``categorical_cdf`` is
    ``cdf``: the numbers ``rng.choice(len(p), size, p=p)`` gives, leaving
    ``rng`` where ``choice`` leaves it (one uniform per index)."""
    return cdf.searchsorted(rng.random(size), side="right")


def softmax_nll(logits: np.ndarray, target):
    """Return (probs, loss, dlogits) for the NLL of ``target`` under softmax(logits).

    Row-wise over a stack: ``logits`` ``(B, C)`` with targets ``(B,)`` give
    ``(B,)`` losses; one row with an int target gives a scalar loss.
    """
    n_classes = logits.shape[-1]
    onehot = np.asarray(target)[..., None] == np.arange(n_classes)
    if not onehot.any(axis=-1).all():
        raise IndexError(f"target {target} out of range for {n_classes} classes")
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=-1)
    probs = e / total[..., None]
    loss = np.log(total) - (shifted * onehot).sum(axis=-1)
    return probs, loss, probs - onehot


@contextlib.contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """Open a temporary file beside ``path`` for writing, making ``path``'s
    directory first. It replaces ``path`` when the block ends cleanly and is
    removed when it raises, so a reader sees the old file or the whole new
    one."""
    parent = os.path.dirname(os.fspath(path))
    if parent:
        os.makedirs(parent, exist_ok=True)
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def save_checkpoint(path, arrays: dict[str, np.ndarray]) -> None:
    """Write a versioned container of named float64 arrays.

    Layout (all integers little-endian):
      bytes 0..7    magic ``APILCKPT``
      bytes 8..11   uint32 format version
      bytes 12..15  uint32 JSON header length N
      bytes 16..16+N  UTF-8 JSON: {"params": [{"name": ..., "shape": [...]}, ...]}
      then          row-major float64 little-endian values, in header order
      last 4 bytes  uint32 ``zlib.crc32`` of every byte before them
    """
    header = {"params": [{"name": k, "shape": list(np.shape(v))}
                         for k, v in arrays.items()]}
    blob = json.dumps(header).encode("utf-8")
    head = (CHECKPOINT_MAGIC + CHECKPOINT_VERSION.to_bytes(4, "little")
            + len(blob).to_bytes(4, "little") + blob)
    with atomic_open(path, "wb") as fh:
        fh.write(head)
        crc = zlib.crc32(head)  # running, so the file is not held twice
        for v in arrays.values():
            piece = np.ascontiguousarray(v, dtype="<f8").tobytes()
            fh.write(piece)
            crc = zlib.crc32(piece, crc)
        fh.write(crc.to_bytes(4, "little"))


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """Read a ``save_checkpoint`` file; anything else raises ``ValueError``.
    A flipped bit or a cut fails the CRC-32, checked before the header."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:8] != CHECKPOINT_MAGIC:
        raise ValueError(f"not a checkpoint file: bad magic {data[:8]!r}")
    content, crc = memoryview(data)[:-4], data[-4:]  # a view: no copy
    if zlib.crc32(content) != int.from_bytes(crc, "little"):
        raise ValueError("corrupt checkpoint: its CRC-32 does not match")
    version = int.from_bytes(content[8:12], "little")
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    header_len = int.from_bytes(content[12:16], "little")
    header = json.loads(bytes(content[16:16 + header_len]).decode("utf-8"))
    body = content[16 + header_len:]
    entries = header.get("params") if isinstance(header, dict) else None
    if not isinstance(entries, list):
        raise ValueError("checkpoint header has no params list")
    arrays: dict[str, np.ndarray] = {}
    offset = 0
    for entry in entries:
        shape = entry.get("shape") if isinstance(entry, dict) else None
        if not (isinstance(shape, list) and isinstance(entry.get("name"), str)
                and all(type(d) is int and d >= 0 for d in shape)):
            raise ValueError(f"bad checkpoint header entry {entry!r}")
        if entry["name"] in arrays:
            raise ValueError(f"checkpoint header names {entry['name']!r} twice")
        count = math.prod(shape)
        if offset + 8 * count > len(body):
            raise ValueError(f"truncated checkpoint at {entry['name']!r}")
        arrays[entry["name"]] = np.frombuffer(
            body, "<f8", count, offset).reshape(shape).copy()
        offset += 8 * count
    if offset != len(body):
        raise ValueError(f"checkpoint has {len(body) - offset} bytes after "
                         f"its last array")
    return arrays
