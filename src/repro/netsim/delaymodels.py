"""Stochastic one-way-delay processes for simulated wide-area paths.

The paper measures real transit networks (NTT, Telia, GTT, Cogent, Level3)
between two Vultr datacenters.  We cannot reach those networks, so each
AS-level path is driven by a *delay process*: a deterministic function from
time to one-way delay, built from a base propagation delay, Gaussian jitter,
an optional diurnal swell, and injected events (route changes, instability
windows) that reproduce the paper's Figure 4 phenomenology.

Design requirements, and how they are met:

* **Determinism at arbitrary times.**  Measurement campaigns sample the
  process at millions of points, and benchmarks must be reproducible.  We
  derive per-sample noise from a counter-based generator (SplitMix64 over
  ``(seed, quantized time)``), so ``delay_at(t)`` is a pure function —
  no RNG state, no order dependence, and vectorized evaluation over numpy
  arrays is exact, not approximate.
* **One function, two evaluations.**  ``delays(times)`` (numpy, used by
  campaign sampling) is the definition; ``delay_at(t)`` is the scalar
  evaluation of the same pure function on the packet path, built on
  :func:`uniform_at` / :func:`normal_at` (SplitMix64 on Python ints).
  Equality is bit-exact — ``delay_at(t) == delays(np.array([t]))[0]`` for
  every shipped model and event — and property-tested
  (``tests/netsim/test_delaymodels.py``).  Only third-party models that
  do not define ``delay_at`` go through a one-element array.  A
  :class:`GaussianJitterDelay` keeps the grid index and delay of its
  last scalar draw and answers a repeat of that index from it: a probe
  round sends every path's probe over the same access link at one
  instant, and the draw is a pure function of ``(seed, index)``, so the
  kept value is the one a fresh draw would give, in any order of times.
  A time whose grid index is NaN or outside int64 (NaN, ±inf, or beyond
  about ±9.2e14 s) has no draw: both evaluations refuse it with the same
  ``ValueError`` instead of numpy casting it to INT64_MIN.
* **One normal inverse CDF, in tree.**  :func:`ndtri` (scalar, every
  ``delay_at`` / :func:`normal_at` draw) and :func:`ndtri_array` (every
  array draw) are Cephes ``ndtri`` — scipy.special.ndtri's algorithm —
  ported with its operations in its order, so a draw equals scipy's bit
  for bit and no process loads scipy (its import maps ~22 MB).  The
  tails take the C library's ``log`` through ``math.log``, element by
  element in the array form: ``np.log`` has SIMD loops of its own.
* **Composability.**  A path's process is a :class:`CompositeDelay` of a
  base model plus any number of :class:`DelayEvent` overlays, mirroring how
  the paper narrates its traces (steady path + route change + instability).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

import numpy as np

from ..validate import check_fields, finite, non_negative, positive, probability

__all__ = [
    "DelayModel",
    "ConstantDelay",
    "GaussianJitterDelay",
    "DiurnalVariation",
    "SpikeProcess",
    "DelayEvent",
    "RouteChangeEvent",
    "InstabilityEvent",
    "AsymmetryEvent",
    "CompositeDelay",
    "overlay",
    "deterministic_uniform",
    "deterministic_normal",
    "uniform_at",
    "normal_at",
    "hash_seeds",
    "normal_grid",
    "plain_gaussian_jitter",
    "StepBlocks",
    "GaussianJitterRows",
]

#: Grid onto which sample times are quantized before hashing.  Finer than
#: the paper's 10 ms probe interval so consecutive probes always draw fresh
#: noise.
_NOISE_QUANTUM = 1e-4

_MASK64 = 0xFFFFFFFFFFFFFFFF
#: Grid indices lie in int64, ``[-2**63, 2**63)``; numpy's cast sends
#: anything else (and NaN) to INT64_MIN with only a warning.
_INDEX_END = 2.0**63
#: 53 mantissa bits of a mixed word, scaled into [0, 1).
_TWO_POW_MINUS_53 = 1.0 / 9007199254740992.0


# The normal inverse CDF is Cephes ``ndtri`` (S. L. Moshier), the
# algorithm scipy.special.ndtri compiles, ported with its operations in
# its order so every draw equals scipy's bit for bit: the same
# coefficients, Horner order and branch tests.  Each polynomial is written
# as Cephes' ``polevl`` (leading coefficient first) or ``p1evl`` (implied
# leading 1); ``a - c`` below is ``a + (-c)`` exactly.

#: ``exp(-2)``: the central branch is ``exp(-2) < y <= 1 - exp(-2)``.
_EXP_M2 = 0.13533528323661269189
#: ``sqrt(2 pi)``.
_SQRT_2PI = 2.50662827463100050242
#: ``|y - 0.5| <= 3/8``: ``x = y + y * y2 * P0(y2) / Q0(y2)``, ``y2 = y * y``.
_P0 = (
    -5.99633501014107895267e1,
    9.80010754185999661536e1,
    -5.66762857469070293439e1,
    1.39312609387279679503e1,
    -1.23916583867381258016e0,
)
_Q0 = (
    1.95448858338141759834e0,
    4.67627912898881538453e0,
    8.63602421390890590575e1,
    -2.25462687854119370527e2,
    2.00260212380060660359e2,
    -8.20372256168333339912e1,
    1.59056225126211695515e1,
    -1.18331621121330003142e0,
)
#: ``z = 1 / sqrt(-2 log y)`` for ``2 <= 1/z < 8`` (``y > exp(-32)``).
_P1 = (
    4.05544892305962419923e0,
    3.15251094599893866154e1,
    5.71628192246421288162e1,
    4.40805073893200834700e1,
    1.46849561928858024014e1,
    2.18663306850790267539e0,
    -1.40256079171354495875e-1,
    -3.50424626827848203418e-2,
    -8.57456785154685413611e-4,
)
_Q1 = (
    1.57799883256466749731e1,
    4.53907635128879210584e1,
    4.13172038254672030440e1,
    1.50425385692907503408e1,
    2.50464946208309415979e0,
    -1.42182922854787788574e-1,
    -3.80806407691578277194e-2,
    -9.33259480895457427372e-4,
)
#: ... and for ``8 <= 1/z <= 64``.
_P2 = (
    3.23774891776946035970e0,
    6.91522889068984211695e0,
    3.93881025292474443415e0,
    1.33303460815807542389e0,
    2.01485389549179081538e-1,
    1.23716634817820021358e-2,
    3.01581553508235416007e-4,
    2.65806974686737550832e-6,
    6.23974539184983293730e-9,
)
_Q2 = (
    6.02427039364742014255e0,
    3.67983563856160859403e0,
    1.37702099489081330271e0,
    2.16236993594496635890e-1,
    1.34204006088543189037e-2,
    3.28014464682127739104e-4,
    2.89247864745380683936e-6,
    6.79019408009981274425e-9,
)


def _polevl(x: Any, coef: Sequence[float]) -> Any:
    """Cephes ``polevl``: ``coef[0] * x**n + ... + coef[n]`` by Horner."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x: Any, coef: Sequence[float]) -> Any:
    """Cephes ``p1evl``: :func:`_polevl` with an implied leading 1."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def ndtri(y0: float) -> float:
    """The standard-normal inverse CDF of one float: Cephes ``ndtri``,
    equal to ``scipy.special.ndtri(y0)`` bit for bit (``-inf`` at 0,
    ``inf`` at 1, NaN outside [0, 1]).  The scalar draws' one function:
    :data:`_P0` ... :data:`_Q1` are written out as Horner steps.
    """
    # The central branch.  Every y0 > 1 - exp(-2) has 1 - y0 <= exp(-2),
    # so this one test is both of Cephes' branch tests.
    if 0.13533528323661269189 < y0 <= 1.0 - 0.13533528323661269189:
        y = y0 - 0.5
        y2 = y * y
        p = -5.99633501014107895267e1 * y2 + 9.80010754185999661536e1
        p = p * y2 - 5.66762857469070293439e1
        p = p * y2 + 1.39312609387279679503e1
        p = p * y2 - 1.23916583867381258016e0
        q = y2 + 1.95448858338141759834e0
        q = q * y2 + 4.67627912898881538453e0
        q = q * y2 + 8.63602421390890590575e1
        q = q * y2 - 2.25462687854119370527e2
        q = q * y2 + 2.00260212380060660359e2
        q = q * y2 - 8.20372256168333339912e1
        q = q * y2 + 1.59056225126211695515e1
        q = q * y2 - 1.18331621121330003142e0
        return (y + y * (y2 * p / q)) * 2.50662827463100050242
    # The tails, at y = y0 or 1 - y0 in (0, exp(-2)]; then the ends, the
    # outside and NaN, which Cephes tests first (the answers are the same).
    if 0.0 < y0 <= 0.13533528323661269189:
        y = y0
    elif 1.0 - 0.13533528323661269189 < y0 < 1.0:
        y = 1.0 - y0
    elif y0 == 0.0:
        return -math.inf
    elif y0 == 1.0:
        return math.inf
    elif not math.isnan(y0):
        return math.nan
    else:
        y = y0  # NaN takes the tail, as in Cephes
    x = math.sqrt(-2.0 * math.log(y))
    z = 1.0 / x
    if x < 8.0:  # y > exp(-32)
        p = 4.05544892305962419923e0 * z + 3.15251094599893866154e1
        p = p * z + 5.71628192246421288162e1
        p = p * z + 4.40805073893200834700e1
        p = p * z + 1.46849561928858024014e1
        p = p * z + 2.18663306850790267539e0
        p = p * z - 1.40256079171354495875e-1
        p = p * z - 3.50424626827848203418e-2
        p = p * z - 8.57456785154685413611e-4
        q = z + 1.57799883256466749731e1
        q = q * z + 4.53907635128879210584e1
        q = q * z + 4.13172038254672030440e1
        q = q * z + 1.50425385692907503408e1
        q = q * z + 2.50464946208309415979e0
        q = q * z - 1.42182922854787788574e-1
        q = q * z - 3.80806407691578277194e-2
        q = q * z - 9.33259480895457427372e-4
        x = x - math.log(x) / x - z * p / q
    else:  # y <= exp(-32): below the generator's 1e-12 clip
        x = x - math.log(x) / x - z * _polevl(z, _P2) / _p1evl(z, _Q2)
    # Cephes negates below its 1 - exp(-2) test: the lower tail and NaN.
    return x if y0 > 0.5 else -x


def _log_each(y: np.ndarray) -> np.ndarray:
    """``math.log`` of every element: the C library's ``log``, as Cephes
    calls it.  ``np.log`` has SIMD loops of its own that differ from it in
    the last bit on some values and hosts."""
    return np.array(list(map(math.log, y.tolist())), dtype=np.float64)


def ndtri_array(y0: np.ndarray) -> np.ndarray:
    """:func:`ndtri` of every element of an array, bit for bit: the same
    operations in the same order, as array arithmetic, with the tails'
    logarithms by :func:`_log_each`.  The array draws' one function."""
    y0 = np.asarray(y0, dtype=np.float64)
    upper = y0 > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - y0, y0)
    # The central branch over every element (no gather), kept where it
    # applies; elsewhere, and at a non-finite y, it is discarded.
    with np.errstate(over="ignore", invalid="ignore"):
        yc = y - 0.5
        y2 = yc * yc
        x = (yc + yc * (y2 * _polevl(y2, _P0) / _p1evl(y2, _Q0))) * _SQRT_2PI
    central = y > _EXP_M2
    # NaN takes the tail, as in Cephes; 0, 1 and out-of-range do not.
    outside = (y0 <= 0.0) | (y0 >= 1.0)
    tail = ~(central | outside)
    if tail.any():
        xt = np.sqrt(-2.0 * _log_each(y[tail]))
        z = 1.0 / xt
        x1 = z * _polevl(z, _P1) / _p1evl(z, _Q1)
        far = xt >= 8.0  # y <= exp(-32): below the generator's 1e-12 clip
        if far.any():
            zf = z[far]
            x1[far] = zf * _polevl(zf, _P2) / _p1evl(zf, _Q2)
        xt = xt - _log_each(xt) / xt - x1
        x[tail] = np.where(upper[tail], xt, -xt)
    if outside.any():
        x[outside] = np.where(y0[outside] == 0.0, -np.inf, np.nan)
        x[y0 == 1.0] = np.inf
    return x


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized SplitMix64 finalizer: uint64 -> well-mixed uint64.

    uint64 wraparound is the point of the algorithm, so numpy's overflow
    warning is suppressed locally.
    """
    with np.errstate(over="ignore"):
        x = (x + np.uint64(0x9E3779B97F4A7C15)) & np.uint64(0xFFFFFFFFFFFFFFFF)
        x = ((x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)) & np.uint64(
            0xFFFFFFFFFFFFFFFF
        )
        x = ((x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)) & np.uint64(
            0xFFFFFFFFFFFFFFFF
        )
        return x ^ (x >> np.uint64(31))


def _off_grid(t: float) -> ValueError:
    return ValueError(
        f"time {t!r} s has no noise-grid index: NaN, or outside int64 "
        f"in units of {_NOISE_QUANTUM} s"
    )


def _time_indices(times: np.ndarray) -> np.ndarray:
    """Quantize times (seconds) to noise-grid indices."""
    times = np.asarray(times, dtype=np.float64)
    with np.errstate(over="ignore"):  # an infinite quotient is refused below
        quanta = times / _NOISE_QUANTUM
    on_grid = (quanta >= -_INDEX_END) & (quanta < _INDEX_END)
    if not on_grid.all():
        raise _off_grid(float(times.flat[np.argmin(on_grid)]))
    return np.floor(quanta).astype(np.int64)


def deterministic_uniform(seed: int, times: np.ndarray) -> np.ndarray:
    """Uniform(0, 1) noise that is a pure function of (seed, time).

    Args:
        seed: stream identifier; different paths use different seeds.
        times: array of sample times in seconds.

    Returns:
        Array of floats in the open interval (0, 1) — never exactly 0 or 1,
        so it can feed the normal inverse CDF safely.
    """
    idx = _time_indices(times).astype(np.uint64)
    return _unit_interval(
        _splitmix64(idx ^ _splitmix64(np.uint64(seed & 0xFFFFFFFFFFFFFFFF)))
    )


def _unit_interval(mixed: np.ndarray) -> np.ndarray:
    """Mixed words -> floats in the open interval (0, 1)."""
    u = (mixed >> np.uint64(11)).astype(np.float64) * _TWO_POW_MINUS_53
    return np.clip(u, 1e-12, 1.0 - 1e-12)


def deterministic_normal(seed: int, times: np.ndarray) -> np.ndarray:
    """Standard-normal noise that is a pure function of (seed, time)."""
    return ndtri_array(deterministic_uniform(seed, times))


def hash_seeds(seeds: Sequence[int]) -> np.ndarray:
    """The per-seed half of the counter hash, for :func:`normal_grid`
    (done once for a fixed set of streams, not once per draw)."""
    return _splitmix64(np.array([s & _MASK64 for s in seeds], dtype=np.uint64))


def normal_grid(hashed_seeds: np.ndarray, times: np.ndarray) -> np.ndarray:
    """:func:`deterministic_normal` over many seeds at many times in one
    draw: element ``[k, i]`` equals ``normal_at(seeds[i], times[k])`` bit
    for bit, where ``hashed_seeds = hash_seeds(seeds)``."""
    index = _time_indices(times).astype(np.uint64)
    return ndtri_array(_unit_interval(_splitmix64(index[:, None] ^ hashed_seeds)))


def _splitmix64_int(x: int) -> int:
    """:func:`_splitmix64` on one Python int (wraparound by masking)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _hash_seed(seed: int) -> int:
    """The per-seed half of the scalar counter hash; a model draws from a
    fixed stream, so it computes this once, at construction."""
    return _splitmix64_int(seed & _MASK64)


def _grid_index(t: float) -> int:
    """:func:`_time_indices` of one time."""
    quanta = t / _NOISE_QUANTUM
    if not -_INDEX_END <= quanta < _INDEX_END:
        raise _off_grid(t)
    return math.floor(quanta)


def _uniform_hashed(hashed_seed: int, index: int) -> float:
    """:func:`uniform_at` given ``_hash_seed(seed)`` and ``_grid_index(t)``.

    The packet path's one draw, one Python call: :func:`_splitmix64_int`
    is written out and the clip is done by comparisons.
    """
    # ``& _MASK64`` is the two's-complement view numpy's int64 -> uint64
    # cast takes of a negative grid index.
    x = (((index & _MASK64) ^ hashed_seed) + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    u = ((x ^ (x >> 31)) >> 11) * _TWO_POW_MINUS_53
    if u < 1e-12:
        return 1e-12
    if u > 1.0 - 1e-12:
        return 1.0 - 1e-12
    return u


def uniform_at(seed: int, t: float) -> float:
    """Scalar :func:`deterministic_uniform`: equal, bit for bit, to
    ``deterministic_uniform(seed, np.array([t]))[0]``."""
    return _uniform_hashed(_hash_seed(seed), _grid_index(t))


def normal_at(seed: int, t: float) -> float:
    """Scalar :func:`deterministic_normal`, bit-identical likewise."""
    return ndtri(uniform_at(seed, t))


class DelayModel(ABC):
    """A one-way-delay process: time (seconds) -> delay (seconds)."""

    @abstractmethod
    def delays(self, times: np.ndarray) -> np.ndarray:
        """Vectorized evaluation: delay for each sample time."""

    def delay_at(self, t: float) -> float:
        """Scalar evaluation, used on the packet-level forwarding path.

        Every model in this module overrides this with a numpy-free
        evaluation that equals ``delays`` bit for bit; this fallback
        serves models that define only ``delays``.
        """
        return float(self.delays(np.asarray([t], dtype=np.float64))[0])

    @property
    @abstractmethod
    def floor(self) -> float:
        """Minimum achievable delay (propagation floor), in seconds."""


@dataclass(frozen=True)
class ConstantDelay(DelayModel):
    """A fixed delay — ideal fiber, used in tests and intra-edge links."""

    base: float

    def __post_init__(self) -> None:
        # Inline, not declared: one per link, hundreds per scenario.
        non_negative("base", self.base)

    def delays(self, times: np.ndarray) -> np.ndarray:
        return np.full(np.shape(times), self.base, dtype=np.float64)

    def delay_at(self, t: float) -> float:
        return float(self.base)

    @property
    def floor(self) -> float:
        return self.base


@dataclass(frozen=True)
class GaussianJitterDelay(DelayModel):
    """Base propagation delay plus zero-mean Gaussian jitter.

    The paper quantifies sub-second jitter as the mean standard deviation of
    a one-second rolling window of one-way delays; for this process that
    statistic converges to ``sigma``, which makes calibration to the
    reported numbers (GTT 0.01 ms, Telia 0.33 ms) direct.

    Delays are clipped from below at ``floor`` (no faster-than-light
    samples); with the calibrated sigmas, clipping essentially never fires.
    """

    base: float = field(metadata={"check": non_negative})
    sigma: float = field(metadata={"check": non_negative})
    seed: int = 0
    _floor: float = field(init=False, repr=False, compare=False)
    _hashed_seed: int = field(init=False, repr=False, compare=False)
    #: ``[(grid index, delay)]`` of the last scalar draw, replaced in one
    #: store so an index is never read beside another draw's delay.
    _drawn: list[tuple[Optional[int], float]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        check_fields(self)
        # Allow a little downside so the distribution isn't one-sided, but
        # never below 90% of base (propagation cannot be beaten).
        object.__setattr__(
            self, "_floor", self.base * 0.9 if self.sigma > 0 else self.base
        )
        object.__setattr__(self, "_hashed_seed", _hash_seed(self.seed))
        object.__setattr__(self, "_drawn", [(None, 0.0)])

    def delays(self, times: np.ndarray) -> np.ndarray:
        times = np.asarray(times, dtype=np.float64)
        noise = deterministic_normal(self.seed, times) * self.sigma
        return np.maximum(self.base + noise, self.floor)

    def delay_at(self, t: float) -> float:
        index = _grid_index(t)
        last_index, last_delay = self._drawn[0]
        if index == last_index:
            return last_delay
        normal = ndtri(_uniform_hashed(self._hashed_seed, index))
        delay = self.base + normal * self.sigma
        if delay < self._floor:
            delay = self._floor
        self._drawn[0] = (index, delay)
        return delay

    @property
    def floor(self) -> float:
        return self._floor


@dataclass(frozen=True)
class DiurnalVariation(DelayModel):
    """Sinusoidal slow swell modeling daily congestion cycles.

    Added on top of a base model via :class:`CompositeDelay`; evaluates to
    a non-negative offset with mean ``amplitude / 2``.
    """

    amplitude: float = field(metadata={"check": non_negative})
    period: float = field(default=86400.0, metadata={"check": positive})
    phase: float = field(default=0.0, metadata={"check": finite})

    def __post_init__(self) -> None:
        check_fields(self)

    def delays(self, times: np.ndarray) -> np.ndarray:
        times = np.asarray(times, dtype=np.float64)
        swing = np.sin(2.0 * math.pi * (times / self.period) + self.phase)
        return (swing + 1.0) * (self.amplitude / 2.0)

    def delay_at(self, t: float) -> float:
        # np.sin, not math.sin: libm and numpy's loop may round differently.
        swing = float(np.sin(2.0 * math.pi * (t / self.period) + self.phase))
        return (swing + 1.0) * (self.amplitude / 2.0)

    @property
    def floor(self) -> float:
        return 0.0


@dataclass(frozen=True)
class SpikeProcess(DelayModel):
    """Sparse random delay spikes (transient queue build-ups).

    Each quantized sample independently spikes with probability
    ``rate_per_second * quantum``; spike magnitudes are uniform in
    ``(min_magnitude, max_magnitude)``.
    """

    rate_per_second: float = field(metadata={"check": non_negative})
    min_magnitude: float = field(metadata={"check": non_negative})
    max_magnitude: float = field(metadata={"check": non_negative})
    seed: int = 1
    #: Chance that one quantized sample spikes.
    _probability: float = field(init=False, repr=False, compare=False)
    #: ``_hash_seed`` of the gate stream and of the magnitude stream.
    _hashed_seeds: tuple[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        check_fields(self)
        if self.max_magnitude < self.min_magnitude:
            raise ValueError(
                f"max_magnitude {self.max_magnitude} below min_magnitude "
                f"{self.min_magnitude}"
            )
        object.__setattr__(
            self, "_probability", min(self.rate_per_second * _NOISE_QUANTUM, 1.0)
        )
        object.__setattr__(
            self, "_hashed_seeds", (_hash_seed(self.seed), _hash_seed(self.seed + 1))
        )

    def delays(self, times: np.ndarray) -> np.ndarray:
        times = np.asarray(times, dtype=np.float64)
        gate = deterministic_uniform(self.seed, times) < self._probability
        magnitude = deterministic_uniform(self.seed + 1, times)
        spikes = self.min_magnitude + magnitude * (
            self.max_magnitude - self.min_magnitude
        )
        return np.where(gate, spikes, 0.0)

    def delay_at(self, t: float) -> float:
        index = _grid_index(t)
        gate, magnitude = self._hashed_seeds
        if _uniform_hashed(gate, index) < self._probability:
            return self.min_magnitude + _uniform_hashed(magnitude, index) * (
                self.max_magnitude - self.min_magnitude
            )
        return 0.0

    @property
    def floor(self) -> float:
        return 0.0


class DelayEvent(ABC):
    """A time-windowed overlay added to a path's base delay process."""

    start: float
    duration: float

    @property
    def end(self) -> float:
        return self.start + self.duration

    @abstractmethod
    def extra_delays(self, times: np.ndarray) -> np.ndarray:
        """Additional delay contributed at each sample time."""

    @abstractmethod
    def extra_at(self, t: float) -> float:
        """Scalar ``extra_delays``: the same value, bit for bit."""


@dataclass(frozen=True)
class RouteChangeEvent(DelayEvent):
    """An intra-provider route change (paper Fig. 4, middle).

    The paper observed GTT's route at hour ~121.25: a brief period of
    erratic delay during convergence, then a new stable minimum ``shift``
    seconds higher, persisting ~10 minutes before reverting to the original
    path.

    Timeline (relative to ``start``):
        [0, transition)              erratic extra delay in (0, churn_max)
        [transition, duration)       constant +shift
        [duration, ...)              back to zero
    """

    start: float = field(metadata={"check": finite})
    duration: float = field(default=600.0, metadata={"check": non_negative})
    shift: float = field(default=5e-3, metadata={"check": finite})
    transition: float = field(default=30.0, metadata={"check": non_negative})
    churn_max: float = field(default=10e-3, metadata={"check": non_negative})
    seed: int = 2
    _hashed_seed: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        check_fields(self)
        if self.transition > self.duration:
            raise ValueError(
                f"duration {self.duration} is shorter than transition {self.transition}"
            )
        object.__setattr__(self, "_hashed_seed", _hash_seed(self.seed))

    def extra_delays(self, times: np.ndarray) -> np.ndarray:
        times = np.asarray(times, dtype=np.float64)
        rel = times - self.start
        extra = np.zeros_like(times)
        in_transition = (rel >= 0) & (rel < self.transition)
        in_plateau = (rel >= self.transition) & (rel < self.duration)
        if np.any(in_transition):
            churn = deterministic_uniform(self.seed, times[in_transition])
            extra[in_transition] = churn * self.churn_max
        extra[in_plateau] = self.shift
        return extra

    def extra_at(self, t: float) -> float:
        rel = t - self.start
        if 0 <= rel < self.transition:
            churn = _uniform_hashed(self._hashed_seed, _grid_index(t))
            return churn * self.churn_max
        if self.transition <= rel < self.duration:
            return float(self.shift)
        return 0.0


@dataclass(frozen=True)
class InstabilityEvent(DelayEvent):
    """A period of network instability with latency spikes (Fig. 4, right).

    The paper's event lasts ~5 minutes on GTT: minor increases in one-way
    delay punctuated by major spikes reaching 78 ms against a 28 ms floor —
    while all other paths stay quiet.  ``spike_probability`` is the chance
    that any quantized sample inside the window is a major spike; remaining
    samples get a minor uniform bump.
    """

    start: float = field(metadata={"check": finite})
    duration: float = field(default=300.0, metadata={"check": non_negative})
    spike_probability: float = field(default=0.02, metadata={"check": probability})
    spike_min: float = field(default=10e-3, metadata={"check": non_negative})
    spike_max: float = field(default=50e-3, metadata={"check": non_negative})
    minor_max: float = field(default=2e-3, metadata={"check": non_negative})
    seed: int = 3
    #: ``_hash_seed`` of the spike, magnitude and minor-bump streams.
    _hashed_seeds: tuple[int, int, int] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        check_fields(self)
        if self.spike_max < self.spike_min:
            raise ValueError("spike_max below spike_min")
        object.__setattr__(
            self,
            "_hashed_seeds",
            tuple(_hash_seed(self.seed + k) for k in range(3)),
        )

    def extra_delays(self, times: np.ndarray) -> np.ndarray:
        times = np.asarray(times, dtype=np.float64)
        rel = times - self.start
        inside = (rel >= 0) & (rel < self.duration)
        extra = np.zeros_like(times)
        if not np.any(inside):
            return extra
        window = times[inside]
        is_spike = deterministic_uniform(self.seed, window) < self.spike_probability
        magnitude = deterministic_uniform(self.seed + 1, window)
        spikes = self.spike_min + magnitude * (self.spike_max - self.spike_min)
        minor = deterministic_uniform(self.seed + 2, window) * self.minor_max
        extra[inside] = np.where(is_spike, spikes, minor)
        return extra

    def extra_at(self, t: float) -> float:
        if not 0 <= t - self.start < self.duration:
            return 0.0
        index = _grid_index(t)
        spike, magnitude, minor = self._hashed_seeds
        if _uniform_hashed(spike, index) < self.spike_probability:
            return self.spike_min + _uniform_hashed(magnitude, index) * (
                self.spike_max - self.spike_min
            )
        return _uniform_hashed(minor, index) * self.minor_max


@dataclass(frozen=True)
class AsymmetryEvent(DelayEvent):
    """A constant delay increase in *one direction only*.

    Used by the one-way-vs-RTT ablation (DESIGN.md E7): applied to the
    forward process but not the reverse, it is invisible to RTT/2 probing
    when paired with an equal decrease on the reverse path, yet obvious to
    Tango's one-way measurements.
    """

    start: float = field(metadata={"check": finite})
    duration: float = field(metadata={"check": non_negative})
    shift: float = field(metadata={"check": finite})

    def __post_init__(self) -> None:
        check_fields(self)

    def extra_delays(self, times: np.ndarray) -> np.ndarray:
        times = np.asarray(times, dtype=np.float64)
        rel = times - self.start
        inside = (rel >= 0) & (rel < self.duration)
        return np.where(inside, self.shift, 0.0)

    def extra_at(self, t: float) -> float:
        return float(self.shift) if 0 <= t - self.start < self.duration else 0.0


@dataclass
class CompositeDelay(DelayModel):
    """Base process plus overlays: events, diurnal swell, spike noise.

    This is the model every simulated wide-area path uses.  ``components``
    are additional always-on processes (e.g. :class:`DiurnalVariation`),
    ``events`` are time-windowed overlays.
    """

    base: DelayModel
    components: Sequence[DelayModel] = field(default_factory=tuple)
    events: Sequence[DelayEvent] = field(default_factory=tuple)

    def delays(self, times: np.ndarray) -> np.ndarray:
        times = np.asarray(times, dtype=np.float64)
        total = self.base.delays(times)
        for component in self.components:
            total = total + component.delays(times)
        for event in self.events:
            total = total + event.extra_delays(times)
        return total

    def delay_at(self, t: float) -> float:
        total = self.base.delay_at(t)
        for component in self.components:
            total = total + component.delay_at(t)
        for event in self.events:
            total = total + event.extra_at(t)
        return total

    @property
    def floor(self) -> float:
        return self.base.floor

    def with_event(self, event: DelayEvent) -> "CompositeDelay":
        """Return a copy with one more event overlay."""
        return CompositeDelay(
            base=self.base,
            components=tuple(self.components),
            events=tuple(self.events) + (event,),
        )


def overlay(model: DelayModel, *events: DelayEvent) -> CompositeDelay:
    """Wrap any delay model with additional event overlays.

    :class:`CompositeDelay` instances gain the events in place of a fresh
    wrapper (so repeated injections don't nest); other models become the
    base of a new composite.  This is how fault injection adds delay
    spikes to an existing link without rebuilding its calibrated process.
    """
    if isinstance(model, CompositeDelay):
        return CompositeDelay(
            base=model.base,
            components=tuple(model.components),
            events=tuple(model.events) + tuple(events),
        )
    return CompositeDelay(base=model, events=tuple(events))


def plain_gaussian_jitter(model: object) -> Optional[GaussianJitterDelay]:
    """The :class:`GaussianJitterDelay` that alone determines ``model``:
    the model itself, or the base of a :class:`CompositeDelay` with no
    components and no events; ``None`` for anything else.  Models are
    replaced, never edited (:func:`overlay` and ``with_event`` build new
    composites), so the answer holds for as long as the object is in place.
    """
    if type(model) is CompositeDelay and not model.components and not model.events:
        model = model.base
    return model if type(model) is GaussianJitterDelay else None


#: Steps one :class:`StepBlocks` draw covers.
BLOCK_STEPS = 256


def _at_instant(t0: float, t1: float) -> float:
    """The sample time of the step ``(t0, t1]`` that samples at its end."""
    return t1


class StepBlocks:
    """One row of a block array per step of a fixed-step loop, the block
    drawn for :data:`BLOCK_STEPS` steps at a time.

    ``draw(times)`` is a pure function of its sample times returning one
    row per time; ``sample_time(t0, t1)`` is where the step ``(t0, t1]``
    samples.  :meth:`row` asked for sample time ``t`` at step instant
    ``now`` serves the block's next row when the block predicted ``t``,
    else draws a new block for ``t`` and the sample times of the next
    steps, predicted as the loop computes them (``t1 = t0 + step_s``).
    A wrong prediction costs a draw, never a value: every row served is
    ``draw`` at its own sample time.
    """

    def __init__(
        self,
        draw: Callable[[np.ndarray], np.ndarray],
        step_s: float,
        sample_time: Callable[[float, float], float] = _at_instant,
    ) -> None:
        self._draw = draw
        self._step_s = step_s
        self._sample_time = sample_time
        self._times: list[float] = []
        self._block: np.ndarray = np.zeros(0)
        self._next = 0
        #: Blocks drawn so far.
        self.draws = 0

    def row(self, now: float, t: float) -> np.ndarray:
        """The row for sample time ``t`` of the step ending at ``now``."""
        k = self._next
        if k < len(self._times) and self._times[k] == t:
            self._next = k + 1
            return self._block[k]
        times = [t]
        t0, step, sample_time = now, self._step_s, self._sample_time
        for _ in range(BLOCK_STEPS - 1):
            t1 = t0 + step
            times.append(sample_time(t0, t1))
            t0 = t1
        self._block = self._draw(np.array(times))
        self._times = times
        self._next = 1
        self.draws += 1
        return self._block[0]


class GaussianJitterRows:
    """Many plain :class:`GaussianJitterDelay` processes evaluated at the
    instants of a loop stepping every ``step_s``, a block of
    :data:`BLOCK_STEPS` instants per array draw (:class:`StepBlocks`):
    ``delays_at(t)[i] == models[i].delay_at(t)`` bit for bit at any
    ``t``, on the predicted instants or off them."""

    def __init__(self, models: Sequence[GaussianJitterDelay], step_s: float) -> None:
        self._hashed_seeds = hash_seeds([m.seed for m in models])
        self._base = np.array([m.base for m in models], dtype=np.float64)
        self._sigma = np.array([m.sigma for m in models], dtype=np.float64)
        self._floor = np.array([m.floor for m in models], dtype=np.float64)
        self.blocks = StepBlocks(self._delays, step_s)

    def _delays(self, times: np.ndarray) -> np.ndarray:
        noise = normal_grid(self._hashed_seeds, times) * self._sigma
        return np.maximum(self._base + noise, self._floor)

    def delays_at(self, t: float) -> np.ndarray:
        return self.blocks.row(t, t)
