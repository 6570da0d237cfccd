"""Candidate pools: random configurations as an ``(n, d)`` unit matrix.

Model-based tuners score hundreds of random candidates per step and
propose one of them.  Building a validated :class:`Configuration` per
candidate (and encoding it back to a vector) costs more than fitting
the model, so :meth:`ConfigurationSpace.sample_pool` samples, decodes,
checks and encodes whole columns, and a :class:`CandidatePool` builds a
configuration only for the rows a tuner indexes.

The exact-stream contract
-------------------------
``space.sample_pool(n, rng)`` returns what the scalar loop ::

    for _ in range(n):
        try:
            configs.append(space.sample_configuration(rng))
        except ValidationError:
            continue

returns — the same configurations in the same order, with ``X`` bitwise
equal to ``np.stack([c.to_array() for c in configs])`` — and leaves
``rng`` in the same state, PCG64's buffered 32-bit half-word included.
Seeded sessions therefore keep their history digests.

It gets there by replaying numpy's draws from ``random_raw`` words.
One sampling attempt draws every parameter in space order:

* a numeric knob calls ``Generator.random``: one 64-bit word ``w``
  becomes ``(w >> 11) * 2**-53``;
* a categorical or boolean knob calls ``Generator.integers(k)``: a
  32-bit draw ``u`` — the pending high half of an earlier word if there
  is one, else the low half of a fresh word whose high half becomes
  pending — becomes ``(u * k) >> 32`` (Lemire's method), unless the low
  half of ``u * k`` is below ``(2**32 - k) % k`` and numpy rejects
  ``u`` and draws again.

Rejections are rare (at most ``k`` in ``2**32``), but one shifts every
later draw, so a rejection inside the consumed attempts sends the whole
pool down the scalar loop instead; so does any bit generator other than
PCG64, a parameter type other than the three built-in ones, or a space
subclass that overrides sampling.  An attempt is kept if every
constraint holds, as in ``sample_configuration``'s 256-try rejection
loop.  Constraints are checked once per block of attempts by calling
the predicate on a mapping of object columns (Python values, so each
element is computed exactly as the scalar predicate would); the result
is used only if it is a bool array with one entry per attempt.  A
predicate that raises ``TypeError``/``ValueError`` (``and``, ``if`` or
``math.*`` on an array) or ``ArithmeticError`` is instead called row by
row, in order, on the attempts the scalar loop would check — which also
re-raises a genuine error exactly where the scalar loop would.
"""

from __future__ import annotations

import math
from typing import (
    Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple,
)

import numpy as np

from repro.core.parameters import (
    BooleanParameter,
    CategoricalParameter,
    Configuration,
    ConfigurationSpace,
    NumericParameter,
    Parameter,
)
from repro.exceptions import ConstraintViolation, ValidationError

__all__ = [
    "CandidatePool", "PoolLayout", "jitter_pool", "lemire", "sample_pool",
    "scalar_jitter", "scalar_pool",
]

_LOW32 = np.uint64(0xFFFFFFFF)
_TWO32 = np.uint64(1 << 32)
#: ``Generator.random`` scales the top 53 bits of a word by 2**-53.
_DOUBLE_SCALE = 1.0 / 9007199254740992.0
#: Attempts drawn per block; bounds memory on nearly infeasible spaces.
_MAX_BLOCK = 4096
_EXACT_TYPES = (NumericParameter, CategoricalParameter, BooleanParameter)
#: Space methods whose scalar behaviour the matrix path reproduces.
_SPACE_HOOKS = ("sample_configuration", "is_feasible", "check_constraints")
#: ... and, for anchor jitter, the decode methods it replaces.
_JITTER_HOOKS = _SPACE_HOOKS + ("from_array", "from_array_feasible")


class CandidatePool(Sequence[Configuration]):
    """Candidate configurations as an ``(n, d)`` unit matrix.

    ``X`` (read-only) is what acquisition functions score.  ``pool[i]``
    builds row ``i``'s :class:`Configuration` through the normal
    validating constructor on first access and memoizes it, so a tuner
    pays for configuration objects only for the candidates it proposes.
    ``X[i]`` equals ``pool[i].to_array()`` bitwise.
    """

    def __init__(
        self,
        space: ConfigurationSpace,
        X: np.ndarray,
        configs: Sequence[Optional[Configuration]],
        row_values: Optional[Callable[[int], Dict[str, Any]]] = None,
    ):
        self.space = space
        self.X = X
        self.X.setflags(write=False)
        self._configs: List[Optional[Configuration]] = list(configs)
        self._row_values = row_values

    @classmethod
    def from_configurations(
        cls, space: ConfigurationSpace, configs: Sequence[Configuration]
    ) -> "CandidatePool":
        """A pool over already-built configurations."""
        if configs:
            X = np.stack([c.to_array() for c in configs])
        else:
            X = np.zeros((0, space.dimension))
        return cls(space, X, configs)

    def extend(self, other: "CandidatePool") -> "CandidatePool":
        """A new pool with ``other``'s rows after this pool's rows.

        Rows of ``other`` not yet built stay lazy in the new pool.
        """
        if not len(other):
            return self
        if not len(self):
            return other
        offset = len(self)
        head, tail = self._row_values, other._row_values

        def row_values(i: int) -> Dict[str, Any]:
            return head(i) if i < offset else tail(i - offset)

        return CandidatePool(
            self.space, np.vstack([self.X, other.X]),
            self._configs + other._configs, row_values,
        )

    def __len__(self) -> int:
        return len(self._configs)

    def __getitem__(self, i: int) -> Configuration:
        i = range(len(self._configs))[i]  # normalizes; IndexError past the end
        config = self._configs[i]
        if config is None:
            config = Configuration(self.space, self._row_values(i))
            self._configs[i] = config
        return config


def scalar_pool(
    space: ConfigurationSpace, n: int, rng: np.random.Generator, max_tries: int = 256
) -> CandidatePool:
    """The scalar loop the matrix path reproduces, as a pool."""
    configs = []
    for _ in range(n):
        try:
            configs.append(space.sample_configuration(rng, max_tries))
        except ValidationError:
            continue
    return CandidatePool.from_configurations(space, configs)


def lemire(u32: np.ndarray, k: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """numpy's bounded draw of 32-bit ``u32`` into ``range(k)``.

    Returns ``(index, rejected)``: ``index = (u32 * k) >> 32``, and
    ``rejected`` flags the draws numpy would discard, those where
    ``(u32 * k) mod 2**32 < (2**32 - k) mod k``.
    """
    k = np.asarray(k, dtype=np.uint64)
    m = np.asarray(u32, dtype=np.uint64) * k
    index = (m >> np.uint64(32)).astype(np.int64)
    return index, (m & _LOW32) < (_TWO32 - k) % k


class _Period:
    """Where the draws of consecutive sampling attempts sit in the stream.

    With an odd number of categorical knobs the pending-half flag flips
    from one attempt to the next, so the layout repeats every two
    attempts; otherwise every attempt.  A period starts and ends with
    the same pending flag, so a stream of periods is a ``(q, words)``
    matrix of raw words.  ``*_at`` entries are ``(attempt, column,
    word)`` index arrays: numeric draws, categorical draws from a fresh
    low half, and categorical draws from the pending high half of a word
    of the same period; ``carry_at`` is the draw (if any) that takes the
    half pending when the period starts.
    """

    def __init__(self, categorical: Sequence[bool], pending: bool):
        ncat = sum(categorical)
        self.attempts = 2 if ncat % 2 else 1
        num: List[Tuple[int, int, int]] = []
        low: List[Tuple[int, int, int]] = []
        high: List[Tuple[int, int, int]] = []
        carry: List[Tuple[int, int]] = []
        self.starts = [0]  # word offset of each attempt, then the total
        self.pending_after = [pending]
        self.fresh_before: List[Optional[int]] = [None]
        word, fresh = 0, None
        for t in range(self.attempts):
            ni = ci = 0
            for is_cat in categorical:
                if not is_cat:
                    num.append((t, ni, word))
                    ni, word = ni + 1, word + 1
                    continue
                if not pending:
                    low.append((t, ci, word))
                    fresh, word = word, word + 1
                elif fresh is None:
                    carry.append((t, ci))
                else:
                    high.append((t, ci, fresh))
                pending = not pending
                ci += 1
            self.starts.append(word)
            self.pending_after.append(pending)
            self.fresh_before.append(fresh)
        self.words = word
        self.last_fresh = fresh
        self.num_at = _columns(num, 3)
        self.low_at = _columns(low, 3)
        self.high_at = _columns(high, 3)
        self.carry_at = _columns(carry, 2)

    def unpack(
        self, raw: np.ndarray, carry: np.uint64, n_num: int, n_cat: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Unit draws ``(attempts, n_num)`` and 32-bit draws ``(attempts, n_cat)``.

        ``raw`` is ``(q, words)``; ``carry`` is the half pending before it.
        """
        q = raw.shape[0]
        unit = np.empty((q, self.attempts, n_num))
        t, c, w = self.num_at
        unit[:, t, c] = (raw[:, w] >> np.uint64(11)) * _DOUBLE_SCALE
        half = np.empty((q, self.attempts, n_cat), dtype=np.uint64)
        t, c, w = self.low_at
        half[:, t, c] = raw[:, w] & _LOW32
        t, c, w = self.high_at
        half[:, t, c] = raw[:, w] >> np.uint64(32)
        t, c = self.carry_at
        if len(t):
            prev = raw[:-1, self.last_fresh] >> np.uint64(32)
            half[:, t[0], c[0]] = np.concatenate(([carry], prev))
        shape = q * self.attempts
        return unit.reshape(shape, n_num), half.reshape(shape, n_cat)


def _columns(rows: List[tuple], width: int) -> Tuple[np.ndarray, ...]:
    if not rows:
        return tuple(np.zeros(0, dtype=np.intp) for _ in range(width))
    return tuple(np.array(col, dtype=np.intp) for col in zip(*rows))


class PoolLayout:
    """Per-space data for matrix sampling, built on first use."""

    def __init__(self, parameters: Sequence[Parameter]):
        self.params = list(parameters)
        self.names = [p.name for p in self.params]
        self.index = {name: j for j, name in enumerate(self.names)}
        self.exact = all(type(p) in _EXACT_TYPES for p in self.params)
        self.categorical = [isinstance(p, CategoricalParameter) for p in self.params]
        self.n_numeric = self.categorical.count(False)
        #: Each parameter's column in the unit (numeric) or index matrix.
        self.slot = [
            self.categorical[:j].count(cat) for j, cat in enumerate(self.categorical)
        ]
        cats = [p for p, cat in zip(self.params, self.categorical) if cat]
        self.k = np.array([len(p.choices) for p in cats], dtype=np.uint64)
        self._choice_objects = [
            _object_array(p.choices) if cat else None
            for p, cat in zip(self.params, self.categorical)
        ]
        self._periods: Dict[bool, _Period] = {}

    def period(self, pending: bool) -> _Period:
        if pending not in self._periods:
            self._periods[pending] = _Period(self.categorical, pending)
        return self._periods[pending]

    def decode(self, unit: np.ndarray, index: np.ndarray) -> List[np.ndarray]:
        """Per-parameter codes: knob values, or indices into ``choices``."""
        return [
            index[:, s] if cat else p.from_unit_array(unit[:, s])
            for p, cat, s in zip(self.params, self.categorical, self.slot)
        ]

    def encode(self, codes: Sequence[np.ndarray]) -> np.ndarray:
        """The unit matrix of ``codes``, column by column."""
        rows = len(codes[0]) if codes else 0
        X = np.empty((rows, len(self.params)))
        for j, (p, cat) in enumerate(zip(self.params, self.categorical)):
            X[:, j] = (
                p.unit_from_index_array(codes[j]) if cat
                else p.to_unit_array(codes[j])
            )
        return X

    def column(self, codes: Sequence[np.ndarray], j: int) -> np.ndarray:
        """Parameter ``j`` as an object column of Python values."""
        choices = self._choice_objects[j]
        return codes[j].astype(object) if choices is None else choices[codes[j]]

    def rows(self, codes: Sequence[np.ndarray]) -> Callable[[int], Dict[str, Any]]:
        """``row(i)``: the value mapping ``sample_configuration`` would draw."""
        columns = [
            (name, col, p.choices if cat else None)
            for name, col, p, cat in zip(self.names, codes, self.params, self.categorical)
        ]

        def row(i: int) -> Dict[str, Any]:
            # ``item`` gives the Python int/float the scalar path holds.
            return {
                name: col.item(i) if choices is None else choices[col.item(i)]
                for name, col, choices in columns
            }

        return row


def _object_array(values: Sequence[Any]) -> np.ndarray:
    out = np.empty(len(values), dtype=object)
    for i, v in enumerate(values):  # element-wise: tuples stay elements
        out[i] = v
    return out


class _ColumnView(Mapping[str, np.ndarray]):
    """Name -> object column, built on first access, for constraint checks."""

    def __init__(self, layout: PoolLayout, codes: Sequence[np.ndarray]):
        self._layout = layout
        self._codes = codes
        self._cache: Dict[str, np.ndarray] = {}

    def __getitem__(self, name: str) -> np.ndarray:
        if name not in self._cache:
            self._cache[name] = self._layout.column(self._codes, self._layout.index[name])
        return self._cache[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._layout.names)

    def __len__(self) -> int:
        return len(self._layout.names)


class _Feasibility:
    """``feasible(a)`` for each attempt of a block, as ``is_feasible`` decides."""

    def __init__(self, space: ConfigurationSpace, layout: PoolLayout, codes, attempts: int):
        self._constraints = space.constraints()
        self._layout = layout
        self._codes = codes
        self._row: Optional[Callable[[int], Dict[str, Any]]] = None
        view = _ColumnView(layout, codes)
        masks: List[Optional[np.ndarray]] = []
        for constraint in self._constraints:
            try:
                held = constraint.predicate(view)
            except (TypeError, ValueError, ArithmeticError):
                held = None
            vectorized = (
                isinstance(held, np.ndarray) and held.dtype == np.bool_
                and held.shape == (attempts,)
            )
            masks.append(held if vectorized else None)
        self._masks = [None if m is None else m.tolist() for m in masks]
        #: Per-attempt verdicts when every constraint vectorized, else None.
        self.all: Optional[List[bool]] = None
        if all(m is not None for m in masks):
            self.all = np.logical_and.reduce(
                [np.ones(attempts, dtype=bool)] + masks
            ).tolist()

    def __call__(self, a: int) -> bool:
        if self.all is not None:
            return self.all[a]
        values = None
        for constraint, mask in zip(self._constraints, self._masks):
            if mask is not None:
                if not mask[a]:
                    return False
                continue
            if values is None:
                if self._row is None:
                    self._row = self._layout.rows(self._codes)
                values = self._row(a)
            try:
                if not constraint.holds(values):
                    return False
            except ConstraintViolation:
                return False
        return True


def _matrix_path_applies(
    space, layout: PoolLayout, rng, hooks: Sequence[str] = _SPACE_HOOKS
) -> bool:
    return (
        layout.exact
        and isinstance(rng, np.random.Generator)
        and type(rng.bit_generator) is np.random.PCG64
        and all(
            getattr(type(space), hook) is getattr(ConfigurationSpace, hook)
            for hook in hooks
        )
    )


def sample_pool(
    space: ConfigurationSpace,
    layout: PoolLayout,
    n: int,
    rng: np.random.Generator,
    max_tries: int = 256,
) -> CandidatePool:
    """:meth:`ConfigurationSpace.sample_pool` (see the module docstring)."""
    if n <= 0 or max_tries < 1 or not _matrix_path_applies(space, layout, rng):
        return scalar_pool(space, n, rng, max_tries)
    bits = rng.bit_generator
    start = bits.state
    period = layout.period(bool(start["has_uint32"]))
    carry = np.uint64(start["uinteger"])
    n_num, n_cat = layout.n_numeric, len(layout.k)

    raws: List[np.ndarray] = []
    blocks: List[List[np.ndarray]] = []
    kept: List[int] = []  # attempt numbers, over all blocks
    done = tries = base = 0
    through = 0  # attempts the scalar loop has consumed so far
    try:
        while done < n:
            rate = done / base if base else 1.0
            want = math.ceil((n - done) / max(rate, 1.0 / max_tries) * 1.125) + 8
            q = -(-min(want, _MAX_BLOCK) // period.attempts)
            raw = bits.random_raw(q * period.words).reshape(q, period.words)
            unit, half = period.unpack(raw, carry, n_num, n_cat)
            if period.last_fresh is not None:
                carry = raw[-1, period.last_fresh] >> np.uint64(32)
            index, rejected = lemire(half, layout.k)
            rejected = rejected.any(axis=1).tolist()
            codes = layout.decode(unit, index)
            raws.append(raw)
            blocks.append(codes)
            feasible = _Feasibility(space, layout, codes, len(rejected))
            verdicts = feasible.all
            for a, reject in enumerate(rejected):
                if reject:
                    # numpy drew again here: every later draw shifts.
                    bits.state = start
                    through = None
                    return scalar_pool(space, n, rng, max_tries)
                through = base + a + 1
                if verdicts[a] if verdicts is not None else feasible(a):
                    kept.append(base + a)
                    done, tries = done + 1, 0
                else:
                    tries += 1
                    if tries == max_tries:
                        done, tries = done + 1, 0
                if done == n:
                    break
            base += len(rejected)
    finally:
        if through is not None:
            _settle(bits, start, period, raws, through)

    if len(blocks) > 1:
        codes = [np.concatenate(cols) for cols in zip(*blocks)]
    rows = np.array(kept, dtype=np.intp)
    kept_codes = [c[rows] for c in codes]
    X = layout.encode(kept_codes)
    return CandidatePool(space, X, [None] * len(kept), layout.rows(kept_codes))


def _settle(bits, start: dict, period: _Period, raws: List[np.ndarray], attempts: int) -> None:
    """Leave ``bits`` as if exactly ``attempts`` attempts had been drawn."""
    q, r = divmod(attempts, period.attempts)
    fresh = period.fresh_before[r]
    uinteger = start["uinteger"]  # the last fresh word's high half, if any
    if fresh is not None or (q and period.last_fresh is not None):
        raw = np.concatenate(raws) if len(raws) > 1 else raws[0]
        word = raw[q, fresh] if fresh is not None else raw[q - 1, period.last_fresh]
        uinteger = int(word >> np.uint64(32))
    bits.state = start
    bits.advance(q * period.words + period.starts[r])
    bits.state = dict(
        bits.state, has_uint32=int(period.pending_after[r]), uinteger=uinteger
    )


def scalar_jitter(
    space: ConfigurationSpace,
    anchors: Sequence[Configuration],
    rng: np.random.Generator,
    scale: float,
    repeats: int,
) -> CandidatePool:
    """The scalar loop :func:`jitter_pool` reproduces, as a pool."""
    configs = []
    for anchor in anchors:
        base = anchor.to_array()
        for _ in range(repeats):
            x = np.clip(base + rng.normal(scale=scale, size=base.shape), 0.0, 1.0)
            configs.append(space.from_array_feasible(x, rng))
    return CandidatePool.from_configurations(space, configs)


def jitter_pool(
    space: ConfigurationSpace,
    anchors: Sequence[Configuration],
    rng: np.random.Generator,
    scale: float,
    repeats: int,
) -> CandidatePool:
    """``repeats`` Gaussian perturbations of each anchor, decoded.

    Returns what :func:`scalar_jitter` returns and leaves ``rng`` in the
    same state.  All perturbations are drawn as one ``(rows, d)`` normal
    block, which is the stream of the scalar loop's per-row draws as
    long as no row needs ``from_array_feasible``'s repair (the repair
    draws from ``rng`` between rows).  The rows are decoded column-wise
    and checked in order; the first infeasible row restores ``rng`` and
    sends every anchor down the scalar loop, as do the conditions of
    :func:`sample_pool`'s fallback and a space subclass that overrides
    ``from_array`` or ``from_array_feasible``.  A predicate error
    propagates with ``rng`` restored.
    """
    layout = space.pool_layout()
    bases = [anchor.to_array() for anchor in anchors]
    d = space.dimension
    if (
        not d
        or any(base.shape != (d,) for base in bases)
        or not _matrix_path_applies(space, layout, rng, _JITTER_HOOKS)
    ):
        return scalar_jitter(space, anchors, rng, scale, repeats)
    bits = rng.bit_generator
    start = bits.state
    rows = len(anchors) * repeats
    feasible = False
    try:
        noise = rng.normal(scale=scale, size=(rows, d))
        X = np.clip(np.repeat(np.stack(bases), repeats, axis=0) + noise, 0.0, 1.0)
        codes = [
            p.index_from_unit_array(X[:, j]) if cat else p.from_unit_array(X[:, j])
            for j, (p, cat) in enumerate(zip(layout.params, layout.categorical))
        ]
        check = _Feasibility(space, layout, codes, rows)
        feasible = all(map(check, range(rows)))
    finally:
        if not feasible:
            bits.state = start
    if not feasible:
        return scalar_jitter(space, anchors, rng, scale, repeats)
    return CandidatePool(space, layout.encode(codes), [None] * rows, layout.rows(codes))
