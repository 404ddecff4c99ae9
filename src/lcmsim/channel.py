"""Synthetic air-interface channel and CSI measurement model.

A trace is a slot-indexed sequence of narrowband MISO channels over a
half-wavelength uniform linear array. Each channel is a sum of a few
plane-wave paths. Path gains rotate deterministically at a per-path
Doppler rate (proportional to ``doppler_norm``) and age slowly through
a first-order autoregressive envelope, so a regime is both statistically
stationary and learnable by a linear predictor, while higher Doppler
still decorrelates consecutive slots.

All randomness is drawn from :func:`lcmsim.streams.substream` keyed by
(master seed, purpose, slot or regime), so identical configurations
reproduce byte-identical traces regardless of call order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .streams import substream, substream_normals

# Fraction of the Doppler rate that feeds the stochastic aging of path
# gains. Small on purpose: the dominant slot-to-slot change is the
# deterministic per-path phase rotation, which a matched linear model
# can track, while this envelope keeps the process ergodic.
AGING_FACTOR = 0.05
# Stacked kernels (measure_csi, the trace products) take at most this
# many rows at a time, which bounds their temporaries however long the run.
_MEASURE_CHUNK = 1024


def row_norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, sqrt(re.re + im.im), bit for bit as
    ``np.linalg.norm`` of the row: ``np.vecdot`` makes the same BLAS dot."""
    x = np.asarray(rows)
    if x.dtype.kind == "c":
        re, im = x.real, x.imag
        return np.sqrt(np.vecdot(re, re) + np.vecdot(im, im))
    return np.sqrt(np.vecdot(x, x))


def vector_norm(v: np.ndarray) -> float:
    """Euclidean norm of a vector: the one-row case of :func:`row_norms`."""
    return float(row_norms(np.asarray(v).ravel(order="K")))


def unit_norm(v: np.ndarray) -> np.ndarray:
    """Return v, or each row of a stack v, scaled to unit Euclidean norm.

    Raises ValueError for an all-zero row and for a non-finite one
    (an inf or NaN entry, or a norm that overflows).
    """
    x = np.asarray(v)
    rows = x.astype(np.result_type(x, 1.0)).reshape(-1, x.shape[-1])
    return _normalize_rows(rows).reshape(x.shape)


def _normalize_rows(rows: np.ndarray) -> np.ndarray:
    """Scale each row of a 2-D ``rows`` to unit norm, in place."""
    norms = row_norms(rows)
    if norms.size and not (np.all(np.isfinite(norms)) and norms.min() >= 1e-300):
        raise ValueError("cannot normalize a zero or non-finite vector")
    rows /= norms[:, np.newaxis]
    return rows


def ula_steering(num_antennas: int, angle_rad: float) -> np.ndarray:
    """Steering vector of a half-wavelength ULA toward ``angle_rad``."""
    n = np.arange(num_antennas)
    v = np.exp(1j * np.pi * n * math.sin(angle_rad))
    return v / math.sqrt(num_antennas)


def dft_codebook(num_antennas: int) -> np.ndarray:
    """Default beam codebook: the unitary DFT, one column per beam."""
    n = np.arange(num_antennas)
    grid = np.exp(-2j * np.pi * np.outer(n, n) / num_antennas)
    return grid / math.sqrt(num_antennas)


@dataclass(frozen=True)
class ChannelRegime:
    """Stationary propagation regime.

    Attributes
    ----------
    regime_id:
        Label for the regime. Regimes sharing an id share path geometry
        (angles and per-path Doppler factors), so a shift between two
        regimes with the same id changes rates, not directions.
    num_paths:
        Number of plane-wave paths, at most the antenna count.
    doppler_norm:
        Normalized Doppler in cycles per slot, in [0, 0.5).
    angle_spread:
        Width of the angular sector the paths are drawn from, (0, pi].
    mean_snr_db:
        Measurement SNR attached to every slot of the regime. ``inf``
        disables measurement noise.
    """

    regime_id: str
    num_paths: int
    doppler_norm: float
    angle_spread: float
    mean_snr_db: float

    def validate(self, num_tx_antennas: int) -> None:
        if not self.regime_id:
            raise ValueError("regime_id must be non-empty")
        if self.num_paths < 1 or self.num_paths > num_tx_antennas:
            raise ValueError(
                f"num_paths={self.num_paths} must be in [1, {num_tx_antennas}]"
            )
        if not 0.0 <= self.doppler_norm < 0.5:
            raise ValueError("doppler_norm must lie in [0, 0.5)")
        if not 0.0 < self.angle_spread <= math.pi:
            raise ValueError("angle_spread must lie in (0, pi]")


RegimeSchedule = list[tuple[int, ChannelRegime]]


@dataclass
class TraceConfig:
    """Everything needed to generate a trace, minus the seed."""

    num_slots: int
    num_tx_antennas: int
    regime_schedule: RegimeSchedule

    def validate(self) -> None:
        if self.num_slots < 1:
            raise ValueError("num_slots must be positive")
        if self.num_tx_antennas < 2:
            raise ValueError("need at least two antennas")
        if not self.regime_schedule:
            raise ValueError("regime_schedule must not be empty")
        starts = [s for s, _ in self.regime_schedule]
        if starts[0] != 0:
            raise ValueError("first regime must start at slot 0")
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise ValueError("regime start slots must be strictly increasing")
        if starts[-1] >= self.num_slots:
            raise ValueError("regime start beyond the end of the trace")
        for _, regime in self.regime_schedule:
            regime.validate(self.num_tx_antennas)


@dataclass
class CsiMeasurements:
    """Noisy CSI estimates at the UE, one row per slot, oldest first:
    ``precoders[i]`` was measured at slot ``slots[i]`` with SNR
    ``snr_db[i]``. Fields are coerced to arrays."""

    slots: np.ndarray
    precoders: np.ndarray
    snr_db: np.ndarray

    def __post_init__(self) -> None:
        self.slots = np.asarray(self.slots)
        self.precoders = np.asarray(self.precoders)
        self.snr_db = np.asarray(self.snr_db, dtype=np.float64)
        rows = len(self.precoders)
        if self.precoders.ndim != 2 or len(self.slots) != rows or len(self.snr_db) != rows:
            raise ValueError("need a 2-D precoder stack with one slot and one SNR per row")

    def __len__(self) -> int:
        return len(self.precoders)

    def window(self, start: int, stop: int) -> CsiMeasurements:
        """Rows ``start`` to ``stop - 1``, as views."""
        return CsiMeasurements(
            self.slots[start:stop], self.precoders[start:stop], self.snr_db[start:stop]
        )


@dataclass
class ChannelTrace:
    """Generated channel realization.

    ``true_precoders[s]`` is the unit-norm ideal precoder of slot ``s``;
    ``per_beam_power[s, i]`` is |b_i^H h_s|^2 against the (unnormalized)
    channel, i.e. what a beam sweep would measure.
    """

    num_tx_antennas: int
    true_precoders: np.ndarray
    per_beam_power: np.ndarray
    snr_db: np.ndarray
    regime_schedule: RegimeSchedule
    seed: int
    beam_codebook: np.ndarray = field(repr=False, default=None)

    @property
    def num_slots(self) -> int:
        return self.true_precoders.shape[0]


def _segment_bounds(schedule: RegimeSchedule, num_slots: int):
    starts = [s for s, _ in schedule] + [num_slots]
    for i, (start, regime) in enumerate(schedule):
        yield start, starts[i + 1], regime


def generate_trace(
    regime_schedule: RegimeSchedule,
    num_slots: int,
    num_tx_antennas: int,
    beam_codebook: np.ndarray,
    seed: int,
) -> ChannelTrace:
    """Generate a deterministic channel trace.

    Path angles and per-path Doppler factors are keyed by regime id;
    gain states are re-seeded at each regime start and evolve with the
    per-slot recursion

        g[t+1] = exp(j*2*pi*doppler_norm*u) * rho * g[t]
                 + sqrt(1 - rho^2) * innovation,

    with ``rho = cos(2*pi * AGING_FACTOR * doppler_norm)``. Zero Doppler
    therefore freezes the channel exactly.
    """
    cfg = TraceConfig(num_slots, num_tx_antennas, list(regime_schedule))
    cfg.validate()
    codebook = np.asarray(beam_codebook)
    if codebook.ndim != 2 or codebook.shape[0] != num_tx_antennas:
        raise ValueError("beam_codebook must have one row per antenna")
    codebook_h = codebook.conj().T

    channels = np.empty((num_slots, num_tx_antennas), dtype=np.complex128)
    beam_power = np.empty((num_slots, codebook.shape[1]), dtype=np.float64)
    snr = np.empty(num_slots, dtype=np.float64)

    for seg_start, seg_end, regime in _segment_bounds(cfg.regime_schedule, num_slots):
        p = regime.num_paths
        rng_geom = substream(seed, f"chan.angles.{regime.regime_id}")
        angles = rng_geom.uniform(-regime.angle_spread / 2, regime.angle_spread / 2, p)
        rates = substream(seed, f"chan.rates.{regime.regime_id}").uniform(-1.0, 1.0, p)
        steering = np.stack(
            [ula_steering(num_tx_antennas, a) for a in angles], axis=1
        )
        rotation = np.exp(2j * np.pi * regime.doppler_norm * rates)
        rho = math.cos(2 * math.pi * AGING_FACTOR * regime.doppler_norm)
        innov_scale = math.sqrt(max(0.0, 1.0 - rho * rho) / (2 * p))

        # One substream per slot: the first seeds the segment's gains, the
        # rest drive the innovations, to which the recursion adds in place.
        draws = substream_normals(seed, "chan.gains", range(seg_start, seg_end), 2 * p)
        noise = draws[:, :p] + 1j * draws[:, p:]
        gains = innov_scale * noise
        gains[0] = noise[0] / math.sqrt(2 * p)
        for i in range(1, len(gains)):
            gains[i] += rotation * (rho * gains[i - 1])
        # Stacked products make one gemv per slot, as single ones would.
        for lo in range(0, len(gains), _MEASURE_CHUNK):
            rows = slice(seg_start + lo, min(seg_start + lo + _MEASURE_CHUNK, seg_end))
            h = np.matmul(steering, gains[lo : lo + _MEASURE_CHUNK, :, None],
                          out=channels[rows, :, None])
            np.abs(np.matmul(codebook_h, h), out=beam_power[rows, :, None])
        snr[seg_start:seg_end] = regime.mean_snr_db

    true_precoders = _normalize_rows(channels)
    beam_power **= 2

    return ChannelTrace(
        num_tx_antennas=num_tx_antennas,
        true_precoders=true_precoders,
        per_beam_power=beam_power,
        snr_db=snr,
        regime_schedule=list(regime_schedule),
        seed=seed,
        beam_codebook=codebook,
    )


def measure_csi(
    true_precoders: np.ndarray,
    snr_db: np.ndarray,
    slots: np.ndarray,
    master_seed: int,
) -> CsiMeasurements:
    """UE-side CSI estimates: truth plus circular complex Gaussian noise.

    Row i measures ``true_precoders[i]`` at slot ``slots[i]`` with SNR
    ``snr_db[i]``, from that slot's own substream, so a row does not
    depend on the others. Per-component noise variance is
    10**(-snr_db/10) / num_antennas, so the total noise power relative
    to the unit-norm precoder matches the SNR. The sum is re-normalized.
    Infinite SNR returns the truth.
    """
    w = np.asarray(true_precoders)
    slots = np.asarray(slots)
    snrs = np.asarray(snr_db, dtype=np.float64)
    if w.ndim != 2 or len(slots) != len(w) or len(snrs) != len(w):
        raise ValueError("need a 2-D precoder stack with one slot and one SNR per row")
    n_ant = w.shape[1]
    noisy = np.flatnonzero(~np.isposinf(snrs))
    measured = w.astype(np.complex128 if noisy.size else w.dtype)
    for lo in range(0, noisy.size, _MEASURE_CHUNK):
        rows = noisy[lo : lo + _MEASURE_CHUNK]
        draws = substream_normals(master_seed, "meas", slots[rows].tolist(), 2 * n_ant)
        # Per-row scalars in Python floats, elementwise work in place (each
        # step commutes exactly), and each row's norm on its own (a batched
        # norm rounds differently).
        scale = [math.sqrt(10.0 ** (-snr / 10.0) / n_ant / 2) for snr in snrs[rows].tolist()]
        sums = 1j * draws[:, n_ant:]
        sums += draws[:, :n_ant]
        sums *= np.array(scale)[:, np.newaxis]
        sums += w[rows]
        measured[rows] = _normalize_rows(sums)
    return CsiMeasurements(slots, measured, snrs)
