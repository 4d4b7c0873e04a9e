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
* **Pay for scipy only on a draw.**  The normal inverse CDF is scipy's
  ``ndtri``, imported at the first normal draw rather than at import, so
  a process that never draws (BGP convergence, path discovery, constant
  links) never loads scipy.  The first draw rebinds the module name
  ``ndtri`` to scipy's ufunc, so every later draw calls it directly.
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


def _first_ndtri(u: Any) -> Any:
    """The first normal draw: import scipy's ``ndtri``, bind the module
    name to it — unless something has been put in its place since — and
    return its value."""
    global ndtri
    from scipy.special import ndtri as scipy_ndtri

    if ndtri is _first_ndtri:
        ndtri = scipy_ndtri
    return scipy_ndtri(u)


#: The standard-normal inverse CDF every draw goes through: scipy's ufunc
#: once a draw has happened, :func:`_first_ndtri` until then.
ndtri: Callable[[Any], Any] = _first_ndtri


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
    return ndtri(deterministic_uniform(seed, times))


def hash_seeds(seeds: Sequence[int]) -> np.ndarray:
    """The per-seed half of the counter hash, for :func:`normal_grid`
    (done once for a fixed set of streams, not once per draw)."""
    return _splitmix64(np.array([s & _MASK64 for s in seeds], dtype=np.uint64))


def normal_grid(hashed_seeds: np.ndarray, times: np.ndarray) -> np.ndarray:
    """:func:`deterministic_normal` over many seeds at many times in one
    draw: element ``[k, i]`` equals ``normal_at(seeds[i], times[k])`` bit
    for bit, where ``hashed_seeds = hash_seeds(seeds)``."""
    index = _time_indices(times).astype(np.uint64)
    return ndtri(_unit_interval(_splitmix64(index[:, None] ^ hashed_seeds)))


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
    return float(ndtri(uniform_at(seed, t)))


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
        normal = float(ndtri(_uniform_hashed(self._hashed_seed, index)))
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
