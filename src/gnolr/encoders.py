"""Feature embeddings and nested twin-tower encoders.

One tower pair per engagement level; each side's towers read from that
side's feature embedding tables.  Each pair emits a unit sub-embedding; the
concatenation of the first c sub-embeddings is the level-c representation,
whose cosine against the counterpart equals the mean of the per-level
sub-cosines (each prefix has squared norm c).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import ArgumentError, DimensionError
from .tensor import (
    Parameter,
    block_rows,
    embedding_init,
    glorot_uniform,
    l2_normalize,
    l2_normalize_backward,
    leaky_relu,
    leaky_relu_backward,
)

if TYPE_CHECKING:
    from .models import ModelSettings


class EmbeddingTableSet:
    """Per-feature lookup tables, shared across towers and tasks.

    Row 0 of every table is the reserved out-of-vocabulary / missing
    bucket; ids outside [0, vocab) land there.  A table's gradient is kept
    as (distinct rows, summed rows), never at vocabulary size, so the
    optimizer's cost follows the batch, not the vocabulary.
    """

    def __init__(
        self,
        feature_vocabs: dict[str, int],
        dim: int,
        rng: np.random.Generator | None,
        name_prefix: str = "emb",
    ) -> None:
        if dim < 1:
            raise ArgumentError(f"embedding dim must be >= 1, got {dim}")
        if not feature_vocabs:
            raise ArgumentError(f"embedding tables '{name_prefix}' need at least one feature")
        self.dim = dim
        self.feature_names = list(feature_vocabs)
        self.tables: dict[str, Parameter] = {}
        self.pending: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        for name in self.feature_names:
            vocab = feature_vocabs[name]
            if vocab < 1:
                raise ArgumentError(f"feature '{name}' has vocab size {vocab}")
            self.tables[name] = Parameter(
                f"{name_prefix}.{name}", embedding_init((vocab, dim), rng), table=True
            )

    @property
    def params(self) -> list[Parameter]:
        return [self.tables[n] for n in self.feature_names]

    @property
    def output_dim(self) -> int:
        return len(self.feature_names) * self.dim

    def _safe_ids(self, name: str, ids: np.ndarray) -> np.ndarray:
        vocab = self.tables[name].value.shape[0]
        return np.where((ids < 0) | (ids >= vocab), 0, ids)

    def lookup(self, ids: np.ndarray) -> np.ndarray:
        """(B, F) integer ids -> (B, F * dim) concatenated rows, feature order fixed."""
        ids = np.asarray(ids)
        if ids.ndim != 2 or ids.shape[1] != len(self.feature_names):
            raise DimensionError(
                f"expected ids of shape (B, {len(self.feature_names)}), got {ids.shape}"
            )
        cols = []
        for j, name in enumerate(self.feature_names):
            cols.append(self.tables[name].value[self._safe_ids(name, ids[:, j])])
        return np.concatenate(cols, axis=1)

    def backward(self, upstream: np.ndarray, ids: np.ndarray) -> None:
        """Sum each feature's gradient onto its distinct looked-up rows, for ``take_grads``;
        a sum still kept goes first, so calls add up as one call over all their samples would."""
        ids = np.asarray(ids)
        for j, name in enumerate(self.feature_names):
            rows = self._safe_ids(name, ids[:, j])
            seg = upstream[:, j * self.dim : (j + 1) * self.dim]
            if name in self.pending:
                rows, seg = map(np.concatenate, zip(self.pending[name], (rows, seg)))
            distinct, inverse = np.unique(rows, return_inverse=True)
            grad = np.zeros((len(distinct), self.dim))
            np.add.at(grad, inverse, seg)
            self.pending[name] = (distinct, grad)

    def take_grads(self) -> list[tuple[Parameter, np.ndarray, np.ndarray]]:
        """(table, rows, grad) per feature given a gradient since the last call: its ascending
        distinct rows whose sum is not exactly zero, and those sums.  Clears the record."""
        out = []
        for name, (rows, grad) in self.pending.items():
            nonzero = np.any(grad != 0.0, axis=1)
            out.append((self.tables[name], rows[nonzero], grad[nonzero]))
        self.pending.clear()
        return out


class Workspace:
    """Arrays that a training forward and backward reuse from one step to the next.

    Each array holds rows of one trailing shape.  They are allocated at a
    batch's row bound, and again, at the new bound, only when a batch has
    more rows than they hold, so a training loop allocates them about once.
    """

    def __init__(self, *row_shapes: tuple[int, ...]) -> None:
        self.row_shapes = row_shapes
        self.arrays: list[np.ndarray] = []

    def reserve(self, bound: int) -> list[np.ndarray]:
        """The arrays, reallocated at ``bound`` rows if they hold fewer."""
        if not self.arrays or len(self.arrays[0]) < bound:
            self.arrays = [np.empty((bound, *shape)) for shape in self.row_shapes]
        return self.arrays


class Tower:
    """MLP with LeakyReLU between layers, none after the last, then l2-norm.

    The settings' ``hidden_sizes`` lay out the layers, the last width being
    the sub-embedding size; ``activation_slope`` is the LeakyReLU slope.

    A training forward writes each layer's pre-activation and activation
    and the output into the tower's ``workspace``, and returns views of
    them: they are valid until the tower's next training forward, and
    ``backward`` uses them up.  Any other forward allocates fresh arrays.
    """

    def __init__(
        self, name: str, input_dim: int, cfg: ModelSettings, rng: np.random.Generator | None
    ) -> None:
        self.name = name
        self.cfg = cfg
        self.input_dim = input_dim
        self.weights: list[Parameter] = []
        self.biases: list[Parameter] = []
        d_in = input_dim
        for li, width in enumerate(cfg.hidden_sizes):
            self.weights.append(Parameter(f"{name}.W{li}", glorot_uniform((d_in, width), rng)))
            self.biases.append(Parameter(f"{name}.b{li}", np.zeros((1, width))))
            d_in = width
        # In the order forward fills them: each layer's pre-activation, then
        # its activation (none after the last layer), then the output.
        *hidden, last = cfg.hidden_sizes
        self.workspace = Workspace(*[(w,) for w in hidden for _ in range(2)], (last,), (last,))

    @property
    def params(self) -> list[Parameter]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend((w, b))
        return out

    def forward(self, x: np.ndarray, bound: int = 0) -> tuple[np.ndarray, tuple]:
        """Unit outputs of the rows of ``x``, and the state ``backward`` needs.

        ``bound`` > 0 makes it a training forward, on at most ``bound`` rows
        per batch: the arrays are the workspace's.
        """
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise DimensionError(
                f"tower '{self.name}' expects input (B, {self.input_dim}), got {x.shape}"
            )
        slope = self.cfg.activation_slope
        arrays = iter([a[: len(x)] for a in self.workspace.reserve(bound)] if bound else [])
        h = x
        inputs = []
        pre_acts = []
        last = len(self.weights) - 1
        for li, (w, b) in enumerate(zip(self.weights, self.biases)):
            inputs.append(h)
            z = np.matmul(h, w.value, out=next(arrays, None))
            z += b.value
            pre_acts.append(z)
            h = z if li == last else leaky_relu(z, slope, out=next(arrays, None))
        return l2_normalize(h, out=next(arrays, None)), (inputs, pre_acts)

    def backward(
        self, upstream: np.ndarray, state: tuple, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Accumulate parameter grads; return the gradient w.r.t. the tower input.

        Every gradient is written into a ``forward`` array that is no longer
        needed, and the input gradient into ``out`` when given.
        """
        slope = self.cfg.activation_slope
        inputs, pre_acts = state
        last = len(self.weights) - 1
        g = l2_normalize_backward(upstream, pre_acts[last], out=pre_acts[last])
        for li in range(last, -1, -1):
            if li != last:
                g = leaky_relu_backward(g, pre_acts[li], slope, out=pre_acts[li])
            h = inputs[li]
            self.weights[li].grad += h.T @ g
            self.biases[li].grad += g.sum(axis=0, keepdims=True)
            g = np.matmul(g, self.weights[li].value.T, out=h if li else out)
        return g


class _RowGroups:
    """A batch's samples grouped by feature row: one group per distinct row.

    Rows are told apart by their feature values, not by entity id:
    sample-level features may differ from the entity table's.  Grouping is
    one stable lexicographic sort of the rows, so groups ascend as rows and
    each keeps its samples in batch order.  When no row repeats, every
    sample is its own group in batch order and nothing is gathered.
    """

    def __init__(self, feature_rows: np.ndarray) -> None:
        order = np.lexsort(feature_rows.T[::-1])
        ranked = feature_rows[order]
        head = np.empty(len(order), dtype=bool)
        head[:1] = True
        np.any(ranked[1:] != ranked[:-1], axis=1, out=head[1:])
        self.repeats = not head.all()
        if self.repeats:
            self.order = order
            self.starts = head.nonzero()[0]
            self.first = order[self.starts]
            self.of = np.empty_like(order)
            self.of[order] = head.cumsum() - 1

    def distinct(self, per_sample: np.ndarray) -> np.ndarray:
        """One row of ``per_sample`` per group: its first sample's."""
        return per_sample[self.first] if self.repeats else per_sample

    def samples(self, per_group: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Each sample's row of ``per_group``, gathered into ``out`` when given."""
        if not self.repeats:
            return per_group
        # Every index is in range; "clip" writes into ``out``, where "raise" would buffer.
        return np.take(per_group, self.of, axis=0, out=out, mode="clip")

    def sum(self, per_sample: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Each group's sum of ``per_sample`` rows, written into ``out`` when given.

        One pass per occurrence rank: pass r adds the (r+1)-th sample of
        every group that has one, so the targets of each fancy-index ``+=``
        are distinct (``np.add.at`` would cost several times more).
        """
        if not self.repeats:
            return per_sample
        out = np.take(per_sample, self.first, axis=0, out=out, mode="clip")
        sizes = np.diff(self.starts, append=len(self.order))
        alive = np.flatnonzero(sizes > 1)
        rank = 1
        while alive.size:
            out[alive] += per_sample[self.order[self.starts[alive] + rank]]
            rank += 1
            alive = alive[sizes[alive] > rank]
        return out


class TowerSide:
    """One side (user or item) of the twin towers: its feature tables and T towers.

    Tower c emits the side's c-th unit sub-embedding; the tables are the
    only parameters the towers share.  A tower's output depends only on
    its side's feature row, so every pass runs the towers once per
    distinct feature row: training gathers the sub-embeddings back to its
    samples and sums the samples' gradients onto their rows.

    Training reuses one workspace per side, the towers' and the side's
    own: a ``forward``'s output and state are valid until the side's next
    ``forward``, and its ``backward`` uses the state up.  Scoring
    (``embed``) allocates fresh arrays and keeps none.
    """

    def __init__(
        self, tables: EmbeddingTableSet, num_towers: int, cfg: ModelSettings, rng, name: str
    ) -> None:
        """Towers ``{name}1``..``{name}T``, drawn from ``rng`` in that order."""
        if num_towers < 1:
            raise ArgumentError(f"need at least one tower, got {num_towers}")
        self.tables = tables
        self.cfg = cfg
        self.towers = [
            Tower(f"{name}{c}", tables.output_dim, cfg, rng) for c in range(1, num_towers + 1)
        ]
        # The samples' sub-embeddings, the distinct rows' (which backward
        # reuses for their gradient), the input gradient summed over the
        # towers, and one tower's input gradient before it joins the sum.
        subs, d_in = (num_towers, cfg.hidden_sizes[-1]), tables.output_dim
        self.workspace = Workspace(subs, subs, (d_in,), (d_in,))

    def reserve(self, bound: int) -> None:
        """Allocate the side's and its towers' workspaces for batches of up to ``bound`` rows."""
        for workspace in (self.workspace, *(tower.workspace for tower in self.towers)):
            workspace.reserve(bound)

    def forward(self, feature_rows: np.ndarray) -> tuple[np.ndarray, tuple]:
        """Sub-embeddings (B, T, dim) of the samples' rows, and the state ``backward`` needs."""
        groups = _RowGroups(feature_rows)
        rows = groups.distinct(feature_rows)
        x = self.tables.lookup(rows)
        bound = len(feature_rows)
        samples, *per_row = self.workspace.reserve(bound)
        subs, grad_x, scratch = (a[: len(rows)] for a in per_row)
        outs, states = zip(*(tower.forward(x, bound) for tower in self.towers))
        np.stack(outs, axis=1, out=subs)
        out = groups.samples(subs, out=samples[:bound])
        return out, (groups, rows, states, subs, grad_x, scratch)

    def backward(self, grad: np.ndarray, state: tuple) -> None:
        """Accumulate the gradients of (B, T, dim) ``grad`` on ``forward``'s output.

        The towers' input gradients are summed in tower order.
        """
        groups, rows, states, subs, grad_x, scratch = state
        grad = groups.sum(grad, out=subs)
        for c, (tower, tower_state) in enumerate(zip(self.towers, states)):
            g = tower.backward(grad[:, c, :], tower_state, out=scratch if c else grad_x)
            if c:
                grad_x += g
        self.tables.backward(grad_x, rows)

    def embed(self, feature_rows: np.ndarray) -> np.ndarray:
        """Unified embeddings (B, T * dim), a block of rows per tower pass.

        A block holds about ``BLOCK_BYTES`` in its widest array: the input,
        a hidden layer or the unified output.  No rows still make one
        (empty) pass, so the result has the embedding width.  Every row
        comes out as it would in any batch of two or more rows: numpy
        sends a one-row product to BLAS gemv, whose sums round differently
        from gemm's, so a single row runs as a duplicated pair.
        """
        unified = len(self.towers) * self.cfg.hidden_sizes[-1]
        step = block_rows(8 * max(self.tables.output_dim, *self.cfg.hidden_sizes, unified))
        chunks = []
        for start in range(0, max(len(feature_rows), 1), step):
            x = self.tables.lookup(feature_rows[start : start + step])
            n = len(x)
            x = np.repeat(x, 2, axis=0) if n == 1 else x
            chunks.append(np.concatenate([t.forward(x)[0][:n] for t in self.towers], axis=1))
        return chunks[0] if len(chunks) == 1 else np.concatenate(chunks)

    def embed_distinct(self, feature_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Unified embeddings of the distinct rows, and each row's index into them."""
        groups = _RowGroups(feature_rows)
        of = groups.of if groups.repeats else np.arange(len(feature_rows))
        return self.embed(groups.distinct(feature_rows)), of


# ---------------------------------------------------------------------------
# Embedding export (TSV interface shared with evaluation and external tools)
# ---------------------------------------------------------------------------

EMBEDDING_HEADER_PREFIX = "#gnolr-emb v1"

# Most components of a unit sub-embedding satisfy 1e-4 <= |v| < 1, and their
# "%.9g" text is built in numpy.  Each value gets a 16-byte slot, written as
# two little-endian words: the head holds a tab, the sign, "0.", up to three
# zeros and the first digit; the tail holds the other eight digits.  A byte
# the text does not use is NUL, removed afterwards.
_SLOT = 16
# Head words by (negative, zeros after "0."), first digit left NUL.
_HEADS = np.frombuffer(
    b"".join(
        (b"\t" + sign + b"0." + b"0" * zeros).ljust(8, b"\0")
        for sign in (b"\0", b"-")
        for zeros in range(4)
    ),
    dtype="<u8",
)
# Tail keep masks by the number of trailing zero digits to drop (0..8).
_TAILS = np.frombuffer(
    b"".join((b"\xff" * (8 - n)).ljust(8, b"\0") for n in range(9)), dtype="<u8"
)
# The four ASCII digits of 0000..9999, in the low half of a word.
_DIGITS4 = np.frombuffer(b"".join(b"%04d" % n for n in range(10000)), dtype="<u4").astype("<u8")
# Trailing zeros of each 4-digit group; "0000" counts 4.
_TRAILING_ZEROS4 = np.array(
    [4] + [len(s) - len(s.rstrip("0")) for s in map(str, range(1, 10000))], dtype=np.intp
)
# 10^(8 - E) for the decades E = -1, -2, -3, -4: nine digits before the point.
_DIGIT_SCALE = np.array([1e9, 1e10, 1e11, 1e12])


def _value_slots(values: np.ndarray) -> np.ndarray:
    """``"\\t%.9g"`` of every float32 value, row-major: (n, ``_SLOT``) bytes, NUL-padded.

    For 1e-4 <= |v| < 1 the text is "0.", -E - 1 zeros and v's nine
    significant digits without their trailing zeros, E being v's decade.
    Comparing v with the float64 nearest to 0.1, 0.01 or 0.001 gives E
    exactly: no float32 lies between a power of ten and its float64.  The
    digits are rint(|v| * 10^(8 - E)); that product is exact in float64
    (24 + 28 bits), so rint rounds the exact value half to even, as "%.9g"
    does, and a float32 is too far from any power of ten to round up into
    the next decade.  Zeros, other magnitudes, non-finite values and
    products within 2^-20 of a tie take Python's "%.9g"; its text of any
    float32 fits in a slot.
    """
    flat = values.ravel()
    magnitude = np.abs(flat).astype(np.float64)
    fast = (magnitude >= 1e-4) & (magnitude < 1.0)
    magnitude[~fast] = 0.5
    zeros = (magnitude < 0.1).astype(np.intp)
    zeros += magnitude < 0.01
    zeros += magnitude < 0.001
    scaled = magnitude * _DIGIT_SCALE[zeros]
    fast &= np.abs(scaled - np.floor(scaled) - 0.5) >= 2.0**-20
    upper, low = np.divmod(np.rint(scaled).astype(np.int64), 10000)
    first, mid = np.divmod(upper, 10000)
    trailing = _TRAILING_ZEROS4[low]
    round_low = low == 0
    trailing[round_low] += _TRAILING_ZEROS4[mid[round_low]]
    head = zeros + 4 * np.signbit(flat)
    words = np.empty((len(flat), 2), dtype="<u8")
    words[:, 0] = _HEADS[head] | (first.astype("<u8") + ord("0")) << 56
    words[:, 1] = (_DIGITS4[mid] | _DIGITS4[low] << 32) & _TAILS[trailing]
    slots = words.view(np.uint8)
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = b"".join([(b"\t%.9g" % v).ljust(_SLOT, b"\0") for v in flat[slow].tolist()])
        slots[slow] = np.frombuffer(text, dtype=np.uint8).reshape(-1, _SLOT)
    return slots


def check_tsv_ids(ids: Sequence[str]) -> None:
    """Refuse an id that holds a tab or a line break: no TSV row can hold it."""
    if any(c in "".join(ids) for c in "\t\r\n"):
        bad = next(i for i in ids if any(c in i for c in "\t\r\n"))
        raise ArgumentError(f"id {bad!r} holds a tab or line break, which a TSV field cannot")


def write_embeddings(path, entity_ids: Sequence[str], matrix: np.ndarray, num_levels: int) -> None:
    """UTF-8 TSV: header line, then one `id<TAB>v1..vD` row per entity.

    Export downcasts to float32; values are printed with 9 significant
    digits ("%.9g") so a float32 round-trips exactly.  The text is built a
    block of rows at a time (``_value_slots``); ids join each row as they
    are, since they may hold a NUL.
    """
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[0] != len(entity_ids) or matrix.shape[1] < 1:
        raise DimensionError(
            f"matrix shape {matrix.shape} does not give {len(entity_ids)} ids a row of values each"
        )
    ids = [str(eid) for eid in entity_ids]
    check_tsv_ids(ids)
    dim = matrix.shape[1]
    step = block_rows(_SLOT * dim)
    with open(path, "wb") as fh:
        fh.write(f"{EMBEDDING_HEADER_PREFIX} dim={dim} T={num_levels}\n".encode())
        for start in range(0, len(ids), step):
            slots = _value_slots(matrix[start : start + step].astype(np.float32))
            text = slots.tobytes().translate(None, b"\0")
            ends = np.count_nonzero(slots.reshape(-1, _SLOT * dim), axis=1).cumsum().tolist()
            parts, lo = [], 0
            for eid, hi in zip(ids[start : start + step], ends):
                parts += (eid.encode(), text[lo:hi], b"\n")
                lo = hi
            fh.write(b"".join(parts))


def read_embeddings(path) -> tuple[list[str], np.ndarray, int]:
    """Read a TSV written by ``write_embeddings``; returns (ids, matrix, T)."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if not header.startswith(EMBEDDING_HEADER_PREFIX):
            raise ArgumentError(f"not an embedding file (header {header!r})")
        try:
            fields = dict(part.split("=", 1) for part in header.split()[2:])
            dim = int(fields["dim"])
            num_levels = int(fields["T"])
        except (KeyError, ValueError):
            raise ArgumentError(f"embedding header needs integer dim= and T=: {header!r}") from None
        if dim < 1 or num_levels < 1:
            raise ArgumentError(f"embedding header dim and T must be >= 1: {header!r}")
        ids = []
        rows = []
        for line in fh:
            parts = line.rstrip("\n").split("\t")
            if len(parts) != dim + 1:
                raise ArgumentError(f"embedding row has {len(parts) - 1} values, expected {dim}")
            ids.append(parts[0])
            try:
                rows.append([float(v) for v in parts[1:]])
            except ValueError:
                raise ArgumentError(f"non-numeric embedding value for {parts[0]!r}") from None
    matrix = np.asarray(rows, dtype=np.float64).reshape(len(ids), dim)
    return ids, matrix, num_levels
