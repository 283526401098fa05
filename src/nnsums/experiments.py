"""Monte Carlo experiment harness: convergence, divergence, entropy and
moment-probe runs with reproducible seeds and CSV/JSON reporting.

Replication streams are derived from (seed, n, replication, attempt)
through a SeedSequence, so results do not depend on execution order and
identical configurations reproduce byte-identical reports. The stream
contract lives here alone: a level hands its models a seat, and
``seat(rep)`` returns a single-use generator on replication rep's
attempt-0 stream, bitwise ``Generator(PCG64(SeedSequence((seed, n, rep,
0))))``: one sample is drawn from it, and the next call of ``seat`` may
reset it. Behind the seat, :func:`_level_streams` seeds a block of
replications in one run of numpy's SeedSequence hash, and one generator
is set to each state in turn; resamples (attempt >= 1) take a new
generator from :func:`_stream`.

Small sizes are evaluated in stacks. A kd-tree build and a query each
cost tens of microseconds before they touch a point, which is most of a
replication's time at small n. So a level of n <= 128 points in d <= 3
dimensions draws each replication from its own stream and then places up
to 1024 // n of them in one point set of dimension d + 1. The model draws
the stack (``DensityModel._sample_stack``): one ``sample`` per seat, or
for the counterexample two generator calls per row (shell indices and
ball candidates) and the rest in whole-stack array steps, bitwise the
same rows. Replication i of a stack gets the last coordinate i * gap,
with gap = 2 * (sum over coordinates of the stack's span) + 1. That is
larger than any distance within a replication, so a point's j + 1
nearest points (itself included) all lie in its own replication, n > j
being given. Within a replication the last coordinates differ by an
exact 0, and the tree's distance kernel sums the squared differences of
at most four coordinates in coordinate order, so each squared distance
is the same sum with + 0 at the end: bitwise the value a tree over that
replication alone computes. Each row of distances then goes through the
power sum by rows of which :func:`nnsums.neighbors.statistic_power` is
the one-row case, so every sum is bitwise the unstacked one. A row whose
total is not finite is resampled one replication at a time from attempt
1, exactly as an unstacked replication would be.

The gain fades as n grows: a stack was 3-13% faster at n = 128 and 7-11%
slower at n = 256 than one tree per replication
(``BENCH_stacked_levels.json`` at the repository root has the table), so
larger levels evaluate one replication at a time, one tree each. So
does d >= 4: from eight coordinates on, the kernel sums in four lanes,
and where d + 1 is a multiple of four (d = 7, 11, ...) the extra zero
joins a lane and the stacked sums differ in their last bits.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import os
from collections import Counter
from dataclasses import asdict, dataclass, field, replace

import numpy as np
from scipy.special import ndtr

from . import neighbors
from .conditions import check_divergence, condition_report
from .densities import _MODEL, _REQUIRED, DensityModel, _read_config
from .errors import ConditionRefused, ConfigError, DegenerateStatistic, _integer, _real
from .limits import _check_rho, entropy_from_integral, gamma_constant
from .neighbors import statistic_power
from .points import PointSet

#: Named weight functions accepted wherever an exponent would go. All have
#: polynomial growth, which is what the limit theory asks of them.
PHI_REGISTRY = {
    "identity": lambda t: t,
    "sqrt": np.sqrt,
    "square": lambda t: t * t,
    "log1p": np.log1p,
    "capped": lambda t: np.minimum(t, 1.0),
}


def resolve_phi(name: str):
    try:
        return PHI_REGISTRY[name]
    except KeyError:
        raise ConfigError(
            f"unknown weight function {name!r}; expected one of {sorted(PHI_REGISTRY)}"
        ) from None


_MAX_RESAMPLES = 5

# The largest witness size n(k) a divergence schedule may ask for.
_MAX_WITNESS = 2**24

# Replications of at most _STACK_MAX_N points in at most _STACK_MAX_DIM
# dimensions are stacked _STACK_POINTS // n to a kd-tree (see _sweep).
_STACK_MAX_N = 128
_STACK_MAX_DIM = 3
_STACK_POINTS = 1024

# A level seeds its replications' streams this many at a time (_level_values).
_SEED_BLOCK = 4096

# A report's rows are formatted and written this many at a time, which
# bounds their memory (ExperimentResult.write_csv and write_json).
_ROW_CHUNK = 1024

# A replication index is one 32-bit word of its stream's entropy
# (_level_streams), and 2^32 values alone take 32 GiB.
_MAX_REPLICATIONS = 2**32

# The largest 32-bit word, and the mask of one (see _words).
_WORD = 0xFFFFFFFF

# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): the constants
# of its entropy mixing (A), of its output words (B) and of its mix step.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
# PCG64's 128-bit LCG multiplier, and the mask of its state
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK_128 = (1 << 128) - 1


#: The keys :meth:`EstimatorConfig.from_dict` reads, besides the model's.
_ESTIMATOR_KEYS = {
    **_MODEL,
    "j": ("int", 1),
    "alpha": ("float", None),
    "n_grid": ("int_list", _REQUIRED),
    "replications": ("int", 1),
    "seed": ("int", 0),
    "q": ("int", 1),
}


@dataclass(frozen=True)
class EstimatorConfig:
    """One statistic evaluation plan, whose counts and alpha follow :mod:`nnsums.errors`."""

    model: DensityModel
    j: int = 1
    alpha: float | None = None
    n_grid: tuple = ()
    replications: int = 1
    seed: int = 0
    q: int = 1

    def __post_init__(self):
        grid = tuple(_integer("every n_grid entry", n) for n in self.n_grid)
        object.__setattr__(self, "n_grid", grid)
        counts = {"j": (1,), "q": (1, 2, "1 or 2"), "seed": (0, None, "a nonnegative integer")}
        counts["replications"] = (1, _MAX_REPLICATIONS, "between 1 and 2^32")
        for key, bounds in counts.items():
            object.__setattr__(self, key, _integer(key, getattr(self, key), *bounds))
        if self.alpha is not None:
            object.__setattr__(self, "alpha", _real("alpha", self.alpha))
        if not grid:
            raise ConfigError("n_grid must not be empty")
        if any(n < 1 for n in grid):
            raise ConfigError("sample sizes must be positive")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ConfigError(f"n_grid must be strictly increasing, got {grid}")
        if grid[0] <= self.j:
            raise ConfigError(
                f"n_grid size n={grid[0]} holds at most j={self.j} points, so no point "
                "has a j-th neighbour and the sum is always 0"
            )

    @classmethod
    def from_dict(cls, cfg: dict, seed_override: int | None = None) -> "EstimatorConfig":
        """Read a JSON configuration with the keys of ``_ESTIMATOR_KEYS``;
        ``seed_override``, when given, replaces its seed."""
        if isinstance(cfg, dict) and "phi" in cfg:
            raise ConfigError(
                "the Monte Carlo runs take a power 'alpha', not 'phi'; "
                "weight functions run through 'estimate' and 'limit'"
            )
        values = _read_config(cfg, _ESTIMATOR_KEYS)
        if seed_override is not None:
            values["seed"] = seed_override
        return cls(**values)

    def require_alpha(self) -> float:
        if self.alpha is None:
            raise ConfigError("this experiment needs a numeric exponent 'alpha'")
        return self.alpha


@dataclass(frozen=True)
class DivergenceSchedule:
    """Shell indices with the witness sample sizes n(k) = ceil(1 / F(A_k))."""

    k_grid: tuple
    n_of_k: tuple

    def __post_init__(self):
        if len(self.k_grid) != len(self.n_of_k):
            raise ConfigError("schedule lengths differ")
        if any(b <= a for a, b in zip(self.k_grid, self.k_grid[1:])):
            raise ConfigError("k_grid must be strictly increasing")
        shells = list(zip(self.k_grid, self.n_of_k))
        clash = [
            f"k={k} and k={k2} have n(k) = {n} and {n2}"
            for (k, n), (k2, n2) in zip(shells, shells[1:])
            if n2 <= n
        ]
        if clash:
            raise ConfigError(
                f"witness sizes must strictly increase in k, but shells {'; '.join(clash)}: "
                "shells of one size would draw identical samples"
            )

    @classmethod
    def from_model(cls, model: DensityModel, k_grid) -> "DivergenceSchedule":
        """The schedule of ``model`` over ``k_grid``; refuses a shell of mass
        F(A_k) below 2^-24, whose witness size would exceed ``_MAX_WITNESS``
        = 2^24 points (a Gaussian shell k = 3 in d = 2 asks for 7.9e13)."""
        k_grid = tuple(_integer("every k_grid entry", k) for k in k_grid)
        sizes = []
        for k in k_grid:
            mass = model.annulus_mass(k)
            if mass <= 0.0:
                raise ConfigError(f"annulus {k} carries no mass; cannot schedule it")
            if mass < 1.0 / _MAX_WITNESS:
                raise ConfigError(
                    f"shell k={k} has mass F(A_k) = {mass:.3g}, so its witness size "
                    f"n(k) = ceil(1/F(A_k)) exceeds the cap of {_MAX_WITNESS} points"
                )
            sizes.append(math.ceil(1.0 / mass))
        return cls(k_grid=k_grid, n_of_k=tuple(sizes))


@dataclass(frozen=True)
class MannKendallResult:
    """Monotone-trend statistic: S and the one-sided increasing p-value."""

    s: int
    p_increasing: float


def _inversion_counts(multiplicities) -> list:
    """Number of distinct arrangements of a multiset with each inversion count.

    Coefficient i of the q-multinomial [m]_q! / prod_g [m_g]_q!, with
    [k]_q = 1 + q + ... + q^(k-1) and m the sum of the multiplicities m_g
    (Knuth, TAOCP vol. 3, 5.1.2): the numerator is built by products, then
    divided exactly by each [k]_q of the denominator.
    """
    counts = [1]
    for k in range(2, sum(multiplicities) + 1):
        counts = [sum(counts[max(0, i - k + 1) : i + 1]) for i in range(len(counts) + k - 1)]
    for mult in multiplicities:
        for k in range(2, mult + 1):
            # counts = quotient * [k]_q, so quotient[i] = counts[i] - counts[i-1] + quotient[i-k]
            quotient = []
            for i in range(len(counts) - k + 1):
                below = counts[i - 1] if i else 0
                quotient.append(counts[i] - below + (quotient[i - k] if i >= k else 0))
            counts = quotient
    return counts


def mann_kendall_increasing(values) -> MannKendallResult:
    """Mann-Kendall test for an increasing trend.

    Exact permutation p-value up to 8 observations, normal approximation
    with continuity correction beyond that. The exact branch counts
    inversions instead of walking the m! permutations: a permutation of the
    values has S = T - 2 * inv, with T the number of untied pairs, so the
    share of permutations with S >= s is the share of distinct arrangements
    with at most (T - s) / 2 inversions (Kendall & Gibbons, Rank Correlation
    Methods, 1990). The ratio of the two integer counts rounds once, so p is
    the float the permutation walk gives.
    """
    vals = [_real(f"the value at position {i}", v) for i, v in enumerate(values)]
    m = len(vals)
    s = sum(
        (vals[b] > vals[a]) - (vals[b] < vals[a]) for a in range(m) for b in range(a + 1, m)
    )
    if m <= 8:
        multiplicities = list(Counter(vals).values())
        untied = m * (m - 1) // 2 - sum(g * (g - 1) // 2 for g in multiplicities)
        counts = _inversion_counts(multiplicities)
        at_least = sum(counts[: (untied - s) // 2 + 1])
        return MannKendallResult(s=s, p_increasing=at_least / sum(counts))
    var = m * (m - 1) * (2 * m + 5) / 18.0
    if s > 0:
        z = (s - 1) / math.sqrt(var)
    elif s < 0:
        z = (s + 1) / math.sqrt(var)
    else:
        z = 0.0
    return MannKendallResult(s=s, p_increasing=float(ndtr(-z)))


@dataclass(frozen=True)
class SizeSummary:
    n: int
    mean: float
    lq_error: float | None
    std_error: float


_CSV_COLUMNS = (
    "experiment",
    "model",
    "d",
    "j",
    "alpha",
    "q",
    "n",
    "replication",
    "value",
    "target",
    "abs_error",
)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


@dataclass
class ExperimentResult:
    """One ``(n, values)`` level per sample size, in increasing n, plus
    per-size summaries of one experiment. ``values`` is the float64 array of
    the replications' values, in order: no object per replication."""

    experiment: str
    model_name: str
    d: int
    j: int
    alpha: float | None
    q: int
    target: float | str | None
    levels: list = field(default_factory=list)
    summaries: list = field(default_factory=list)
    trend: dict = field(default_factory=dict)
    phi: str | None = None

    def _target_cell(self):
        if isinstance(self.target, float) and not math.isfinite(self.target):
            return "divergent"
        return self.target

    def _header(self) -> dict:
        """The six fields that open every CSV row and the JSON report."""
        return {
            "experiment": self.experiment,
            "model": self.model_name,
            "d": self.d,
            "j": self.j,
            "alpha": self.alpha,
            "q": self.q,
        }

    def csv_rows(self):
        header = self._header()
        target = self._target_cell()
        numeric_target = isinstance(target, float)
        for n, values in self.levels:
            for rep, value in enumerate(values.tolist()):
                yield {
                    **header,
                    "n": n,
                    "replication": rep,
                    "value": value,
                    "target": target,
                    "abs_error": abs(value - target) if numeric_target else None,
                }

    def _row_chunks(self):
        """Each level's rows, ``_ROW_CHUNK`` at a time, as (n, replications,
        values, abs errors): the values and errors are float64 arrays, and
        the errors are None when the target is not a float. abs_error is
        ``abs(value - target)`` taken in numpy, the same IEEE operations as
        :meth:`csv_rows`."""
        target = self._target_cell()
        numeric = isinstance(target, float)
        for n, values in self.levels:
            for lo in range(0, len(values), _ROW_CHUNK):
                chunk = values[lo : lo + _ROW_CHUNK]
                with np.errstate(over="ignore"):
                    errors = np.abs(chunk - target) if numeric else None
                yield n, range(lo, lo + len(chunk)), chunk, errors

    def write_csv(self, path) -> None:
        """Write what ``csv.writer`` writes for the header and, for each row
        of :meth:`csv_rows`, ``_fmt`` of its cells, byte for byte.

        The cells every row shares are encoded once, by the csv module, into
        a ``%`` template whose ``%s`` slots take n, replication, value and
        abs_error; str of an int or a float is its ``_fmt``. The rows are
        filled and written a chunk at a time (:meth:`_row_chunks`).
        """
        cells = {
            key: _fmt(value).replace("%", "%%")
            for key, value in {**self._header(), "target": self._target_cell()}.items()
        }
        cells |= dict.fromkeys(("n", "replication", "value", "abs_error"), "%s")
        line = io.StringIO()
        csv.writer(line).writerow([cells[c] for c in _CSV_COLUMNS])
        row = line.getvalue()
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerow(_CSV_COLUMNS)
            for n, reps, chunk, errors in self._row_chunks():
                errors = itertools.repeat("") if errors is None else errors.tolist()
                fills = zip(itertools.repeat(n), reps, chunk.tolist(), errors)
                fh.write("".join(map(row.__mod__, fills)))

    def _json_dict(self, rows: list) -> dict:
        return {
            **self._header(),
            "phi": self.phi,
            "target": self._target_cell(),
            "rows": rows,
            "summaries": [asdict(s) for s in self.summaries],
            "trend": self.trend,
        }

    def to_json_dict(self) -> dict:
        return self._json_dict(list(self.csv_rows()))

    def write_json(self, path) -> None:
        """Write ``json.dumps(self.to_json_dict(), indent=2, sort_keys=True,
        allow_nan=False)`` and a newline to ``path``, byte for byte.

        The seven fields every row shares are encoded once, by json, into a
        ``%`` template of one indented row; its ``%s`` slots take abs_error,
        n, replication and value, the sorted order of their keys. str of an
        int or a float is its repr, which is what json writes, and abs_error
        is ``abs(value - target)`` (:meth:`_row_chunks`). The rows are
        filled a chunk at a time and streamed into the place of the empty
        row list in the indented dump of the rest. A non-finite value or
        abs_error raises ValueError and leaves no file.
        """
        try:
            with open(path, "w") as fh:
                rest = json.dumps(self._json_dict([]), indent=2, sort_keys=True, allow_nan=False)
                cells = {
                    key: json.dumps(value).replace("%", "%%")
                    for key, value in {**self._header(), "target": self._target_cell()}.items()
                }
                cells |= dict.fromkeys(("abs_error", "n", "replication", "value"), "%s")
                row = ",\n".join(f'      "{k}": {cells[k]}' for k in sorted(cells))
                row = "    {\n" + row + "\n    }"
                head, tail = rest.split('\n  "rows": []', 1)
                fh.write(head + '\n  "rows": [')
                sep = "\n"
                for n, reps, chunk, errors in self._row_chunks():
                    if not np.isfinite(chunk if errors is None else errors).all():
                        raise ValueError(
                            f"Out of range float values are not JSON compliant: at n={n}"
                        )
                    errors = itertools.repeat("null") if errors is None else errors.tolist()
                    fills = zip(errors, itertools.repeat(n), reps, chunk.tolist())
                    fh.write(sep + ",\n".join(map(row.__mod__, fills)))
                    sep = ",\n"
                fh.write(("]" if sep == "\n" else "\n  ]") + tail + "\n")
        except ValueError:
            # A non-finite value: leave no truncated report behind.
            os.remove(path)
            raise

    def write(self, path) -> None:
        path = str(path)
        if path.endswith(".csv"):
            self.write_csv(path)
        elif path.endswith(".json"):
            self.write_json(path)
        else:
            raise ConfigError(f"output path must end in .csv or .json, got {path}")

    def summary_for(self, n: int) -> SizeSummary:
        for s in self.summaries:
            if s.n == n:
                return s
        raise KeyError(n)


def _hash_constants(init: int, mult: int, count: int):
    """The (xor, multiply) constants of ``count`` successive SeedSequence
    hashes from ``init``, as (count, 1) uint32 columns: hash k xors with
    init * mult^k and multiplies by init * mult^(k+1), mod 2^32."""
    h = [init]
    for _ in range(count):
        h.append(h[-1] * mult & _WORD)
    h = np.array(h, dtype=np.uint32)[:, None]
    return h[:-1], h[1:]


_OUT_XOR, _OUT_MUL = _hash_constants(_INIT_B, _MULT_B, 8)


def _hashmix(value, xor, mul):
    value = (value ^ xor) * mul
    return value ^ value >> 16


def _mix(x, y):
    result = _MIX_L * x - _MIX_R * y
    return result ^ result >> 16


def _pcg64_seeds(entropy: np.ndarray) -> tuple[list, list]:
    """The PCG64 (states, incs) of ``PCG64(SeedSequence(words))`` for each
    column of ``entropy``, a (words, rows) uint32 array of at least 4 words.

    This is numpy's SeedSequence on a pool of 4 words, run on whole rows of
    words with uint32 wrap-around: the pool takes the hash of each of the
    first 4 words, then each pool word is mixed into the other 3 and each
    further entropy word into all 4, every hash with the next constant;
    ``generate_state(4, uint64)`` hashes the pool, cycled, into 8 words.
    The three hashes of one pool word use consecutive constants and read
    the same value, so they run as one (3, rows) step. PCG64 takes the 4
    little-endian uint64 words as a 128-bit seed and increment, and its
    seeding is two steps of its LCG, done on Python ints.
    """
    xor, mul = _hash_constants(_INIT_A, _MULT_A, 4 * len(entropy))
    pool = _hashmix(entropy[:4], xor[:4], mul[:4])
    k = 4
    for src in range(4):
        dst = [i for i in range(4) if i != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], xor[k : k + 3], mul[k : k + 3]))
        k += 3
    for word in entropy[4:]:
        pool = _mix(pool, _hashmix(word, xor[k : k + 4], mul[k : k + 4]))
        k += 4
    out = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _OUT_XOR, _OUT_MUL).astype(np.uint64)
    seed_hi, seed_lo, inc_hi, inc_lo = (out[0::2] | out[1::2] << np.uint64(32)).tolist()
    incs = [(a << 65 | b << 1 | 1) & _MASK_128 for a, b in zip(inc_hi, inc_lo)]
    states = [
        ((inc + (a << 64 | b)) * _PCG_MULT + inc) & _MASK_128
        for inc, a, b in zip(incs, seed_hi, seed_lo)
    ]
    return states, incs


def _words(value: int) -> list:
    """The little-endian 32-bit words numpy's SeedSequence takes from a
    nonnegative int: one word, 0, for 0."""
    return [(value >> s) & _WORD for s in range(0, max(value.bit_length(), 1), 32)]


def _level_streams(seed, n, reps: range, attempt) -> tuple[list, list]:
    """The PCG64 (states, incs) of the streams ``SeedSequence((seed, n, rep,
    attempt))`` for rep in ``reps``, bitwise numpy's, in one hash. Each rep
    is below 2^32 (:class:`EstimatorConfig` caps the replications), so it
    is one word of the entropy."""
    head = _words(seed) + _words(n)
    words = np.array(head + [0] + _words(attempt), dtype=np.uint32)
    entropy = np.repeat(words[:, None], len(reps), axis=1)
    entropy[len(head)] = np.arange(reps.start, reps.stop, dtype=np.uint32)
    return _pcg64_seeds(entropy)


def _seat(gen: np.random.Generator, state: int, inc: int) -> np.random.Generator:
    """``gen`` set to the PCG64 ``state`` and increment ``inc`` with no
    buffered 32-bit value, as ``PCG64(seed)`` makes it for their seed."""
    gen.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return gen


def _stream(seed, n, rep, attempt) -> np.random.Generator:
    """A new generator on the stream ``SeedSequence((seed, n, rep, attempt))``."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, n, rep, attempt))))


def _replicate_value(model, n, j, alpha, seed, rep, rng, attempt=0) -> float:
    """One replication's power sum, drawn from ``rng``, a generator on the
    stream of ``attempt``; the attempts before it count as degenerate. A
    degenerate draw is resampled from the next attempt's stream
    (:func:`_stream`), up to attempt ``_MAX_RESAMPLES``."""
    while True:
        try:
            return statistic_power(PointSet(model.sample(rng, n)), j, alpha)
        except DegenerateStatistic as exc:
            if attempt >= _MAX_RESAMPLES:
                raise DegenerateStatistic(
                    f"{_MAX_RESAMPLES} resamples in a row degenerate at n={n}: {exc}"
                ) from None
        attempt += 1
        rng = _stream(seed, n, rep, attempt)


def _stack_values(model, n, j, alpha, seed, reps, seat) -> list:
    """The power sums of replications ``reps`` of size n, drawn on their
    seats (module docstring). Two or more share one kd-tree, bitwise the
    sums of :func:`_replicate_value`; a stack of one, or one too wide to
    offset by a finite gap, is evaluated one replication at a time."""
    s, d = len(reps), model.dim
    if s > 1:
        coords = np.empty((s, n, d + 1))
        draws = coords[..., :d]
        model._sample_stack(seat, reps, n, draws)
        # the spans summed left to right, as numpy sums d < 8 terms, but each
        # taken from one coordinate's (s, n) view: numpy's reduction over an
        # inner axis of length d took 61 us a stack against 9 us
        span = 0.0
        for c in range(d):
            coord = draws[..., c]
            span += float(coord.max() - coord.min())
        gap = 2.0 * span + 1.0
        if math.isfinite(gap * (s - 1)):
            coords[..., d] = (np.arange(s) * gap)[:, None]
            xs = PointSet(coords.reshape(s * n, d + 1))
            dists = neighbors.knn_distances(xs, j).reshape(s, n)
            totals = neighbors._power_row_sums(dists, d, alpha)
            return [
                total
                if math.isfinite(total)
                else _replicate_value(model, n, j, alpha, seed, rep, _stream(seed, n, rep, 1), 1)
                for rep, total in zip(reps, totals.tolist())
            ]
    return [_replicate_value(model, n, j, alpha, seed, rep, seat(rep)) for rep in reps]


def _level_values(model, n, j, alpha, seed, replications) -> list:
    """The power sums of replications 0, 1, ... of size n, in order, in
    stacks (:func:`_stack_values`) of ``_STACK_POINTS // n`` where n <= 128
    and d <= 3, else of one. Their streams are seeded a block of
    ``_SEED_BLOCK`` at a time, which bounds the seeds' memory; a stack
    never spans two blocks, and the sums do not depend on the stacking."""
    stack = _STACK_POINTS // n if n <= _STACK_MAX_N and model.dim <= _STACK_MAX_DIM else 1
    gen = np.random.Generator(np.random.PCG64())
    values = []
    for lo in range(0, replications, _SEED_BLOCK):
        block = range(lo, min(lo + _SEED_BLOCK, replications))
        states, incs = _level_streams(seed, n, block, 0)

        def seat(rep):
            return _seat(gen, states[rep - lo], incs[rep - lo])

        for i in range(0, len(block), stack):
            values += _stack_values(model, n, j, alpha, seed, block[i : i + stack], seat)
    return values


def _summarize(values: np.ndarray, n: int, target, q: int) -> SizeSummary:
    mean = float(values.mean())
    lq = None
    if isinstance(target, float) and math.isfinite(target):
        lq = float(np.mean(np.abs(values - target) ** q))
    return SizeSummary(n=n, mean=mean, lq_error=lq, std_error=_std_error(values))


def _std_error(values: np.ndarray) -> float:
    """Standard error of the mean; 0 for a single value.

    Deviations beyond about 1e154 overflow when squared, so a non-finite
    result from finite values is computed again on values / max|v|.
    """
    if len(values) < 2:
        return 0.0
    root_n = math.sqrt(len(values))
    with np.errstate(over="ignore"):
        se = float(values.std(ddof=1) / root_n)
    if not math.isfinite(se) and np.isfinite(values).all():
        top = float(np.abs(values).max())
        se = top * float((values / top).std(ddof=1) / root_n)
    return se


def _sweep(experiment: str, config: EstimatorConfig, exponent, target, scale=1.0):
    """Run every replication of ``config`` into a new :class:`ExperimentResult`.

    Each value is the power sum with exponent ``exponent`` and rank
    ``config.j``, divided by scale * n. The result is labelled
    ``experiment`` and carries ``config``'s model, j, alpha and q, one
    level (n and the array of its values) and one summary per n, whose L^q
    error is taken against ``target`` when that is a finite float; its
    trend is left empty for the caller. Levels with n <= 128 in d <= 3
    share one kd-tree per stack of replications (module docstring).
    """
    model = config.model
    result = ExperimentResult(
        experiment=experiment,
        model_name=model.name,
        d=model.dim,
        j=config.j,
        alpha=config.alpha,
        q=config.q,
        target=target,
    )
    for n in config.n_grid:
        raw = _level_values(model, n, config.j, exponent, config.seed, config.replications)
        vals = np.array(raw) / (scale * n)
        result.levels.append((n, vals))
        result.summaries.append(_summarize(vals, n, target, config.q))
    return result


def _increasing_trend(trend: dict, means: list) -> None:
    if len(means) >= 2:
        mk = mann_kendall_increasing(means)
        trend["increasing_s"] = mk.s
        trend["increasing_p"] = mk.p_increasing


def run_convergence(config: EstimatorConfig, force: bool = False) -> ExperimentResult:
    """Estimate the f^(1-alpha/d) integral on each sample size of the grid.

    Requires a condition report granting L^q convergence unless ``force``
    is set. The reported value per replication is the normalized sum
    gamma^{-1} n^{-1} S_{n,alpha}; its target is the integral itself.
    """
    alpha = config.require_alpha()
    model = config.model
    report = condition_report(model, alpha, config.q)
    if not report.convergence_granted() and not force:
        raise ConditionRefused(
            f"no L^{config.q} guarantee for {model!r} with alpha={alpha}"
            + (f" ({'; '.join(report.notes)})" if report.notes else "")
            + "; pass force to run anyway"
        )
    d = model.dim
    gam = gamma_constant(d, config.j, alpha)
    target = float(model.i_rho(1.0 - alpha / d))
    result = _sweep("converge", config, alpha, target, scale=gam)
    errors = [s.lq_error for s in result.summaries if s.lq_error is not None]
    if len(errors) >= 2:
        mk = mann_kendall_increasing([-e for e in errors])
        result.trend = {
            "lq_errors": errors,
            "decreasing_s": mk.s,
            "decreasing_p": mk.p_increasing,
        }
    return result


def run_divergence(
    model: DensityModel,
    alpha: float,
    k_grid,
    replications: int,
    seed: int,
    j: int = 1,
    force: bool = False,
) -> tuple[DivergenceSchedule, ExperimentResult]:
    """Witness the unbounded mean of n^{-1} S_{n,alpha} along n(k).

    For each shell index k the sample size is n(k) = ceil(1 / F(A_k));
    the result carries the per-k means, a Mann-Kendall increasing-trend
    test, the last/first ratio, and the analytic lower-bound proxy
    F(A_k)^(1-alpha/d) * 2^(k*alpha) for comparison. The schedule runs as
    the :class:`EstimatorConfig` with n_grid = n(k) and q = 1, which checks
    ``replications`` and ``seed``.
    """
    alpha, j, k_grid = _real("alpha", alpha), _integer("j", j, 1), tuple(k_grid)
    if not k_grid:
        raise ConfigError("k_grid must not be empty")
    if not check_divergence(model, alpha) and not force:
        raise ConditionRefused(
            f"divergence conditions do not hold for {model!r} with alpha={alpha}; "
            "pass force to run anyway"
        )
    schedule = DivergenceSchedule.from_model(model, k_grid)
    empty = [(k, n) for k, n in zip(schedule.k_grid, schedule.n_of_k) if n <= j]
    if empty:
        shells = ", ".join(f"k={k} with n(k)={n}" for k, n in empty)
        raise ConfigError(
            f"shell(s) {shells} hold at most j={j} points, so no point has a "
            "j-th neighbour and the sum is always 0"
        )
    config = EstimatorConfig(
        model, j=j, alpha=alpha, n_grid=schedule.n_of_k, replications=replications, seed=seed
    )
    result = _sweep("diverge", config, alpha, "divergent")
    means = [s.mean for s in result.summaries]
    d = model.dim
    result.trend = {
        "k_grid": list(schedule.k_grid),
        "n_of_k": list(schedule.n_of_k),
        "means": means,
        "lower_bound_proxy": [
            model.annulus_mass(k) ** (1.0 - alpha / d) * 2.0 ** (k * alpha)
            for k in schedule.k_grid
        ],
    }
    _increasing_trend(result.trend, means)
    if len(means) >= 2:
        result.trend["last_over_first"] = means[-1] / means[0] if means[0] else math.inf
    return schedule, result


def run_entropy(config: EstimatorConfig, rho: float, force: bool = False) -> ExperimentResult:
    """Estimate both entropies of order rho from the neighbor sums.

    Runs :func:`run_convergence` with the exponent alpha = d * (1 - rho)
    and labels its result ``entropy``. The integral estimate at the largest
    sample size feeds the entropy transforms, and its standard error
    propagates through them by the delta method. The trend holds, besides
    the convergence trend: ``rho``, the estimate ``i_estimate`` of the
    integral of f^rho with its ``i_std_error``, and ``tsallis``, ``renyi``
    with their ``tsallis_std_error`` and ``renyi_std_error``.
    """
    rho = _check_rho(rho)
    d = config.model.dim
    result = run_convergence(replace(config, alpha=d * (1.0 - rho)), force=force)
    result.experiment = "entropy"
    top = result.summaries[-1]
    entropy = entropy_from_integral(rho, top.mean)
    scale = abs(1.0 - rho)
    result.trend = {
        **result.trend,
        "rho": rho,
        "i_estimate": top.mean,
        "i_std_error": top.std_error,
        "tsallis": entropy.tsallis,
        "tsallis_std_error": top.std_error / scale,
        "renyi": entropy.renyi,
        "renyi_std_error": top.std_error / (scale * top.mean),
    }
    return result


def run_moment_probe(config: EstimatorConfig, p: float) -> ExperimentResult:
    """Empirical E[(n^{1/d} D_j)^(alpha p)] across the size grid.

    Bounded profiles back up the convergence conditions; growth along a
    divergence schedule shows the moment hypothesis failing. Purely
    diagnostic, so no condition gate applies.
    """
    alpha, p = config.require_alpha(), _real("p", p)
    exponent = _real("alpha * p", alpha * p)
    result = _sweep("probe", config, exponent, None)
    means = [s.mean for s in result.summaries]
    result.trend = {"p": p, "exponent": exponent, "means": means}
    _increasing_trend(result.trend, means)
    return result
