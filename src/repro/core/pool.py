"""Candidate pools and population batches as ``(n, d)`` unit matrices.

Model-based tuners score hundreds of random candidates per step and
propose one of them; population tuners (CEM, the genetic algorithm,
random search) propose a batch of eight or so per step.  Building a
validated :class:`Configuration` per row, one knob at a time, and
encoding it back to a vector costs more than the tuner's own work.  So
rows are decoded, checked and encoded as blocks:

* :class:`PoolLayout` decodes and encodes every knob of an ``(n, d)``
  block in a fixed number of numpy calls, with each element going
  through exactly the operations of its parameter's scalar
  ``from_unit``/``to_unit`` (so bit-identical), and validates the
  block once, column-wise;
* constraints are checked once per block by :class:`_Feasibility`,
  exactly as ``is_feasible`` decides for each row;
* a checked row becomes a configuration through
  :meth:`Configuration.from_checked_row`, which keeps the row's
  encoding: ``X[i]`` equals ``to_array()`` bitwise, and ``to_array()``
  returns a copy of it instead of re-encoding.

:func:`sample_pool` (model tuners' random candidates, and
:func:`sample_configurations` on top of it), :func:`jitter_pool` (anchor
perturbations), :func:`gaussian_configurations` (a CEM batch) and
:func:`decode_feasible` (genetic children) each reproduce a scalar loop
exactly: the same configurations in the same order and the same
generator state afterwards, so seeded sessions keep their history
digests.  Where a block cannot promise that, the scalar loop runs; the
process-wide metrics registry counts each outcome as
``core.pool.block`` or ``core.pool.scalar_fallback.<reason>``, with
reason ``infeasible_row`` (a row needed ``from_array_feasible``'s
repair), ``short_pool`` (a sample ran out of tries), ``lemire_reject``
(see below), ``not_pcg64`` (another bit generator) or ``custom_space``
(a parameter type other than the three built-in ones, or a space
subclass overriding what the block path replaces).

The exact-stream contract of sample_pool
----------------------------------------
``space.sample_pool(n, rng)`` returns what the scalar loop ::

    for _ in range(n):
        try:
            configs.append(space.sample_configuration(rng))
        except ValidationError:
            continue

returns — the same configurations in the same order, with ``X`` bitwise
equal to ``np.stack([c.to_array() for c in configs])`` — and leaves
``rng`` in the same state, PCG64's buffered 32-bit half-word included.

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
pool down the scalar loop instead.  An attempt is kept if every
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
from repro.core.exact import builtin_max, builtin_min, emap
from repro.exceptions import ConstraintViolation, ValidationError
from repro.obs.metrics import global_metrics

__all__ = [
    "CandidatePool", "Codes", "PoolLayout", "RowValues", "decode_feasible",
    "gaussian_configurations", "jitter_pool", "lemire", "sample_configurations",
    "sample_pool", "scalar_gaussian", "scalar_jitter", "scalar_pool",
]

_LOW32 = np.uint64(0xFFFFFFFF)
_TWO32 = np.uint64(1 << 32)
#: ``Generator.random`` scales the top 53 bits of a word by 2**-53.
_DOUBLE_SCALE = 1.0 / 9007199254740992.0
#: Attempts drawn per block; bounds memory on nearly infeasible spaces.
_MAX_BLOCK = 4096
_EXACT_TYPES = (NumericParameter, CategoricalParameter, BooleanParameter)
#: Space methods whose scalar behaviour the block path reproduces.
_SPACE_HOOKS = (
    "sample_configuration", "is_feasible", "check_constraints", "to_array",
)
#: ... and, for decoding given unit vectors, the decode methods it replaces.
_JITTER_HOOKS = _SPACE_HOOKS + ("from_array", "from_array_feasible")


class CandidatePool(Sequence[Configuration]):
    """Candidate configurations as an ``(n, d)`` unit matrix.

    ``X`` (read-only) is what acquisition functions score.  ``pool[i]``
    builds row ``i``'s :class:`Configuration` (a checked row: the block
    was validated and constraint-checked when the pool was made) on
    first access and memoizes it, so a tuner pays for configuration
    objects only for the candidates it proposes.  ``X[i]`` equals
    ``pool[i].to_array()`` bitwise.
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

    def configurations(self) -> List[Configuration]:
        """Every row's configuration (built together if none is yet)."""
        if isinstance(self._row_values, RowValues) and all(
            c is None for c in self._configs
        ):
            self._configs = self._row_values.configurations(self.space, self.X)
        return [self[i] for i in range(len(self))]

    def __getitem__(self, i: int) -> Configuration:
        i = range(len(self._configs))[i]  # normalizes; IndexError past the end
        config = self._configs[i]
        if config is None:
            # A copy of the row: the one proposed candidate of a large
            # pool must not keep the whole matrix alive.
            config = Configuration.from_checked_row(
                self.space, self._row_values(i), self.X[i].copy()
            )
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


class Codes:
    """A decoded block: what ``n`` unit vectors decode to.

    ``num`` holds the numeric knobs' values, ``(n, numeric knobs)``
    float64 (integer knobs as integral floats); ``ints`` the integer
    knobs' values again as int64, ``(n, integer knobs)``; ``index`` the
    categorical knobs' indices into ``choices``, ``(n, categorical
    knobs)`` int64.
    """

    __slots__ = ("num", "ints", "index")

    def __init__(self, num: np.ndarray, ints: np.ndarray, index: np.ndarray):
        self.num = num
        self.ints = ints
        self.index = index

    def take(self, rows: np.ndarray) -> "Codes":
        return Codes(self.num[rows], self.ints[rows], self.index[rows])

    @staticmethod
    def concat(blocks: Sequence["Codes"]) -> "Codes":
        return Codes(
            np.concatenate([b.num for b in blocks]),
            np.concatenate([b.ints for b in blocks]),
            np.concatenate([b.index for b in blocks]),
        )


#: Where a parameter's values sit in a :class:`Codes` block.
_FLOAT, _INT, _CAT = range(3)


class PoolLayout:
    """Per-space data for block decode and encode, built on first use.

    :meth:`decode` and :meth:`encode` handle every knob of an ``(n, d)``
    block in a fixed number of numpy calls, and :meth:`validate` checks
    the decoded block once.  Each element goes through exactly the
    operations of the scalar ``from_unit``/``to_unit`` of its parameter
    (see :mod:`repro.core.exact`), so results are bit-identical to a
    per-element loop.
    """

    def __init__(self, parameters: Sequence[Parameter]):
        self.params = list(parameters)
        self.names = [p.name for p in self.params]
        self.index = {name: j for j, name in enumerate(self.names)}
        self._by_name = sorted(range(len(self.names)), key=self.names.__getitem__)
        self._sorted_names = [self.names[j] for j in self._by_name]
        self.exact = all(type(p) in _EXACT_TYPES for p in self.params)
        self.categorical = [isinstance(p, CategoricalParameter) for p in self.params]
        self.n_numeric = self.categorical.count(False)
        #: Columns of the numeric and categorical knobs in a unit vector.
        self.num_cols = np.array(
            [j for j, cat in enumerate(self.categorical) if not cat], dtype=np.intp
        )
        self.cat_cols = np.array(
            [j for j, cat in enumerate(self.categorical) if cat], dtype=np.intp
        )
        nums = [p for p, cat in zip(self.params, self.categorical) if not cat]
        cats = [p for p, cat in zip(self.params, self.categorical) if cat]
        self.k = np.array([len(p.choices) for p in cats], dtype=np.uint64)
        self._periods: Dict[bool, _Period] = {}
        if not self.exact:
            return  # only the scalar paths run
        self._low = np.array([p.low for p in nums], dtype=float)
        self._high = np.array([p.high for p in nums], dtype=float)
        self._span = np.array([p.high - p.low for p in nums], dtype=float)
        logs = [p for p in nums if p.log_scale]
        self._log = np.array(
            [s for s, p in enumerate(nums) if p.log_scale], dtype=np.intp
        )
        self._log_low = np.array([math.log(p.low) for p in logs], dtype=float)
        self._log_span = np.array(
            [math.log(p.high) - math.log(p.low) for p in logs], dtype=float
        )
        ints = [p for p in nums if p.integer]
        self._int = np.array(
            [s for s, p in enumerate(nums) if p.integer], dtype=np.intp
        )
        self._int_low = np.array([math.ceil(p.low) for p in ints], dtype=float)
        self._int_high = np.array([math.floor(p.high) for p in ints], dtype=float)
        self._k = self.k.astype(np.int64)
        self._k_minus_1 = (self._k - 1).astype(float)
        # _first[c, i]: the first choice of knob c equal to choice i, the
        # index ``to_unit`` encodes (``0`` and ``False`` are equal).
        width = max((len(p.choices) for p in cats), default=0)
        self._first = np.zeros((len(cats), width), dtype=np.int64)
        for c, p in enumerate(cats):
            self._first[c, : len(p.choices)] = [p.choices.index(v) for v in p.choices]
        self._cat_rows = np.arange(len(cats))[None, :]
        self._choice_objects = [_object_array(p.choices) for p in cats]
        #: Per parameter: (where its values sit, column there, choices).
        self._sources: List[Tuple[int, int, Optional[list]]] = []
        num_slot = int_slot = cat_slot = 0
        for p in self.params:
            if isinstance(p, CategoricalParameter):
                self._sources.append((_CAT, cat_slot, p.choices))
                cat_slot += 1
            else:
                self._sources.append(
                    (_INT, int_slot, None) if p.integer else (_FLOAT, num_slot, None)
                )
                int_slot += p.integer
                num_slot += 1

    def period(self, pending: bool) -> _Period:
        if pending not in self._periods:
            self._periods[pending] = _Period(self.categorical, pending)
        return self._periods[pending]

    def decode_numeric(self, unit: np.ndarray, index: np.ndarray) -> Codes:
        """Decode the numeric unit columns; ``index`` is taken as is.

        Per element: clamp ``u`` to [0, 1] as the builtins do (NaN
        becomes 0), map linearly or, for log knobs, through ``math.exp``
        of the log-space interpolation, clamp to the bounds, and for
        integer knobs round half to even and clamp to the integers
        inside the bounds — ``from_unit`` followed by ``validate``.
        """
        u = builtin_min(1.0, builtin_max(0.0, unit))
        v = self._low + u * self._span
        if len(self._log):
            logs = self._log_low + u[:, self._log] * self._log_span
            v[:, self._log] = emap(math.exp, logs.ravel()).reshape(logs.shape)
        v = builtin_min(self._high, builtin_max(self._low, v))
        ints = builtin_min(
            self._int_high, builtin_max(self._int_low, np.rint(v[:, self._int]))
        )
        v[:, self._int] = ints
        return Codes(v, ints.astype(np.int64), index)

    def decode(self, X: np.ndarray) -> Codes:
        """Decode an ``(n, d)`` block of unit vectors, as ``from_array`` would.

        A categorical knob with ``k`` choices decodes ``u`` to index
        ``rint(clamp(u) * (k - 1))``.
        """
        u = builtin_min(1.0, builtin_max(0.0, X[:, self.cat_cols]))
        index = np.rint(u * self._k_minus_1).astype(np.int64)
        return self.decode_numeric(X[:, self.num_cols], index)

    def encode(self, codes: Codes) -> np.ndarray:
        """The unit matrix of ``codes``, as ``to_array`` would encode it."""
        v = codes.num
        x = (v - self._low) / self._span
        if len(self._log):
            logs = emap(math.log, v[:, self._log].ravel()).reshape(
                len(v), len(self._log)
            )
            x[:, self._log] = (logs - self._log_low) / self._log_span
        X = np.empty((len(v), len(self.params)))
        X[:, self.num_cols] = x
        X[:, self.cat_cols] = self._first[self._cat_rows, codes.index] / self._k_minus_1
        return X

    def validate(self, codes: Codes) -> None:
        """Raise :class:`ValidationError` unless every value is valid.

        Numeric values must lie within their bounds (NaN does not),
        integer knobs' values must be integral, and categorical indices
        must be in range: what each parameter's ``validate`` requires,
        checked once for the block.
        """
        v = codes.num
        bad = ~((self._low <= v) & (v <= self._high))
        bad[:, self._int] |= codes.ints != v[:, self._int]
        if bad.any():
            i, s = np.argwhere(bad)[0]
            raise ValidationError(
                f"{self.params[self.num_cols[s]].name}: decoded value "
                f"{v[i, s]!r} outside [{self._low[s]}, {self._high[s]}] "
                "or not integral"
            )
        bad = (codes.index < 0) | (codes.index >= self._k)
        if bad.any():
            i, c = np.argwhere(bad)[0]
            raise ValidationError(
                f"{self.params[self.cat_cols[c]].name}: choice index "
                f"{codes.index[i, c]} out of range"
            )

    def column(self, codes: Codes, j: int) -> np.ndarray:
        """Parameter ``j`` as an object column of Python values."""
        kind, s, _ = self._sources[j]
        if kind == _FLOAT:
            return codes.num[:, s].astype(object)
        if kind == _INT:
            return codes.ints[:, s].astype(object)
        return self._choice_objects[s][codes.index[:, s]]

    def rows(self, codes: Codes) -> "RowValues":
        """The value mappings of ``codes``' rows; see :class:`RowValues`."""
        return RowValues(self, codes)


class RowValues:
    """``row(i)``: row ``i``'s value mapping, as ``sample_configuration``
    or ``from_array`` would build it (Python ``int``/``float`` values and
    the ``choices`` objects themselves, in space order).

    The block is turned into Python lists once, a column at a time, on
    first use.
    """

    def __init__(self, layout: PoolLayout, codes: Codes):
        self._layout = layout
        self._codes = codes
        self._columns: Optional[List[list]] = None

    def columns(self) -> List[list]:
        """Each parameter's values, in space order, as Python lists."""
        if self._columns is None:
            codes = self._codes
            lists = {
                _FLOAT: codes.num.T.tolist(),
                _INT: codes.ints.T.tolist(),
                _CAT: codes.index.T.tolist(),
            }
            self._columns = [
                lists[kind][s] if choices is None
                else list(map(choices.__getitem__, lists[kind][s]))
                for kind, s, choices in self._layout._sources
            ]
        return self._columns

    def __call__(self, i: int) -> Dict[str, Any]:
        return dict(zip(self._layout.names, [col[i] for col in self.columns()]))

    def configurations(
        self, space: ConfigurationSpace, X: np.ndarray
    ) -> List[Configuration]:
        """Every row as a configuration; the block must be validated and
        every row feasible.

        ``X`` is the block's encoding; each configuration keeps its row.
        Hashes are computed a column of ``repr`` at a time, over the
        same sorted ``(name, repr(value))`` pairs as the constructor's.
        """
        layout = self._layout
        columns = self.columns()
        reprs = [list(map(repr, columns[j])) for j in layout._by_name]
        return [
            Configuration.from_checked_row(
                space, dict(zip(layout.names, values)), x,
                hash(tuple(zip(layout._sorted_names, texts))),
            )
            for values, texts, x in zip(zip(*columns), zip(*reprs), X)
        ]


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


def _count(outcome: str) -> None:
    global_metrics().inc(f"core.pool.{outcome}")


def _fallback_reason(
    space, layout: PoolLayout, rng, hooks: Sequence[str] = _SPACE_HOOKS
) -> Optional[str]:
    """Why the block path cannot reproduce the scalar loop, or None.

    ``rng`` is None for a caller whose block path draws nothing.
    """
    if not layout.exact or any(
        getattr(type(space), hook) is not getattr(ConfigurationSpace, hook)
        for hook in hooks
    ):
        return "custom_space"
    if rng is not None and not (
        isinstance(rng, np.random.Generator)
        and type(rng.bit_generator) is np.random.PCG64
    ):
        return "not_pcg64"
    return None


def sample_pool(
    space: ConfigurationSpace,
    layout: PoolLayout,
    n: int,
    rng: np.random.Generator,
    max_tries: int = 256,
) -> CandidatePool:
    """:meth:`ConfigurationSpace.sample_pool` (see the module docstring)."""
    if n <= 0 or max_tries < 1:
        return scalar_pool(space, n, rng, max_tries)
    reason = _fallback_reason(space, layout, rng)
    if reason is not None:
        _count(f"scalar_fallback.{reason}")
        return scalar_pool(space, n, rng, max_tries)
    bits = rng.bit_generator
    start = bits.state
    period = layout.period(bool(start["has_uint32"]))
    carry = np.uint64(start["uinteger"])
    n_num, n_cat = layout.n_numeric, len(layout.k)

    raws: List[np.ndarray] = []
    blocks: List[Codes] = []
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
            codes = layout.decode_numeric(unit, index)
            raws.append(raw)
            blocks.append(codes)
            feasible = _Feasibility(space, layout, codes, len(rejected))
            verdicts = feasible.all
            for a, reject in enumerate(rejected):
                if reject:
                    # numpy drew again here: every later draw shifts.
                    bits.state = start
                    through = None
                    _count("scalar_fallback.lemire_reject")
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

    codes = Codes.concat(blocks) if len(blocks) > 1 else blocks[0]
    codes = codes.take(np.array(kept, dtype=np.intp))
    layout.validate(codes)
    _count("block")
    return CandidatePool(
        space, layout.encode(codes), [None] * len(kept), layout.rows(codes)
    )


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


def sample_configurations(
    space: ConfigurationSpace, n: int, rng: np.random.Generator
) -> List[Configuration]:
    """:meth:`ConfigurationSpace.sample_configurations` through the block path.

    Returns ``[space.sample_configuration(rng) for _ in range(n)]`` and
    leaves ``rng`` as that loop does.  The samples come from
    :func:`sample_pool`; if it returns fewer than ``n`` (an attempt ran
    out of tries), ``rng`` is restored and the scalar loop runs, so its
    :class:`ValidationError` is raised exactly where it always was.
    """
    if n <= 0 or not isinstance(rng, np.random.Generator):
        return [space.sample_configuration(rng) for _ in range(n)]
    bits = rng.bit_generator
    start = bits.state
    pool = space.sample_pool(n, rng)
    if len(pool) == n:
        return pool.configurations()
    _count("scalar_fallback.short_pool")
    bits.state = start
    return [space.sample_configuration(rng) for _ in range(n)]


def decode_feasible(
    space: ConfigurationSpace, X: np.ndarray, rng: np.random.Generator
) -> List[Configuration]:
    """``[space.from_array_feasible(x, rng) for x in X]``, decoded as a block.

    The block path draws nothing, and neither does the scalar loop for a
    row that is feasible as decoded; only a repair draws from ``rng``.
    So the rows are decoded and encoded together, checked in order, and
    each infeasible row is handed to ``from_array_feasible`` itself at
    its turn: configurations, the generator's state and any error (a
    predicate's, a failed repair's) come out as in the scalar loop.  A
    space subclass that overrides decoding, sampling or the constraint
    check takes the scalar loop.
    """
    X = np.asarray(X, dtype=float)
    layout = space.pool_layout()
    if X.ndim != 2 or X.shape[1] != space.dimension or not space.dimension:
        return [space.from_array_feasible(x, rng) for x in X]
    reason = _fallback_reason(space, layout, None, _JITTER_HOOKS)
    if reason is not None:
        _count(f"scalar_fallback.{reason}")
        return [space.from_array_feasible(x, rng) for x in X]
    codes = layout.decode(X)
    layout.validate(codes)
    feasible = _Feasibility(space, layout, codes, len(X))
    # Built for every row; an infeasible row's is dropped for the repair.
    decoded = layout.rows(codes).configurations(space, layout.encode(codes))
    configs = []
    repaired = False
    for i, x in enumerate(X):
        if feasible(i):
            configs.append(decoded[i])
        else:
            repaired = True
            configs.append(space.from_array_feasible(x, rng))
    _count("scalar_fallback.infeasible_row" if repaired else "block")
    return configs


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
    draws from ``rng`` between rows).  The rows are decoded as a block
    and checked in order; the first infeasible row restores ``rng`` and
    sends every anchor down the scalar loop, as do the conditions of
    :func:`sample_pool`'s fallback and a space subclass that overrides
    ``from_array`` or ``from_array_feasible``.  A predicate error
    propagates with ``rng`` restored.
    """
    bases = [anchor.to_array() for anchor in anchors]
    d = space.dimension
    if any(base.shape != (d,) for base in bases):
        return scalar_jitter(space, anchors, rng, scale, repeats)
    rows = len(anchors) * repeats
    block = _gaussian_block(space, rows, rng, lambda: np.clip(
        np.repeat(np.stack(bases), repeats, axis=0)
        + rng.normal(scale=scale, size=(rows, d)),
        0.0, 1.0,
    ))
    if block is None:
        return scalar_jitter(space, anchors, rng, scale, repeats)
    codes, X = block
    return CandidatePool(space, X, [None] * rows, space.pool_layout().rows(codes))


def scalar_gaussian(
    space: ConfigurationSpace,
    mean: np.ndarray,
    std: np.ndarray,
    n: int,
    rng: np.random.Generator,
) -> List[Configuration]:
    """The scalar loop :func:`gaussian_configurations` reproduces."""
    return [
        space.from_array_feasible(np.clip(rng.normal(mean, std), 0.0, 1.0), rng)
        for _ in range(n)
    ]


def gaussian_configurations(
    space: ConfigurationSpace,
    mean: np.ndarray,
    std: np.ndarray,
    n: int,
    rng: np.random.Generator,
) -> List[Configuration]:
    """``n`` draws of ``clip(normal(mean, std), 0, 1)``, decoded.

    Returns what :func:`scalar_gaussian` returns and leaves ``rng`` in
    the same state: one ``(n, d)`` normal block is the stream of ``n``
    per-row draws, unless a row needs repair, in which case ``rng`` is
    restored and the scalar loop runs (as in :func:`jitter_pool`).
    """
    d = space.dimension
    block = _gaussian_block(space, n, rng, lambda: np.clip(
        rng.normal(mean, std, size=(n, d)), 0.0, 1.0
    ))
    if block is None:
        return scalar_gaussian(space, mean, std, n, rng)
    codes, X = block
    return space.pool_layout().rows(codes).configurations(space, X)


def _gaussian_block(
    space: ConfigurationSpace,
    rows: int,
    rng: np.random.Generator,
    draw: Callable[[], np.ndarray],
) -> Optional[Tuple[Codes, np.ndarray]]:
    """Decode the ``(rows, d)`` unit block ``draw()`` takes from ``rng``,
    if every row is feasible: ``(codes, encoded X)``.  Otherwise None,
    with ``rng`` restored, and the caller runs its scalar loop."""
    layout = space.pool_layout()
    if not space.dimension or not rows:
        return None
    reason = _fallback_reason(space, layout, rng, _JITTER_HOOKS)
    if reason is not None:
        _count(f"scalar_fallback.{reason}")
        return None
    bits = rng.bit_generator
    start = bits.state
    feasible = False
    try:
        codes = layout.decode(draw())
        layout.validate(codes)
        check = _Feasibility(space, layout, codes, rows)
        feasible = all(map(check, range(rows)))
    finally:
        if not feasible:
            bits.state = start
    if not feasible:
        _count("scalar_fallback.infeasible_row")
        return None
    _count("block")
    return codes, layout.encode(codes)
