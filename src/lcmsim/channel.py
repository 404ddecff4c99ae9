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

from .streams import substream

# Fraction of the Doppler rate that feeds the stochastic aging of path
# gains. Small on purpose: the dominant slot-to-slot change is the
# deterministic per-path phase rotation, which a matched linear model
# can track, while this envelope keeps the process ergodic.
AGING_FACTOR = 0.05


def unit_norm(v: np.ndarray) -> np.ndarray:
    """Return v scaled to unit Euclidean norm.

    Raises ValueError for an all-zero vector.
    """
    n = np.linalg.norm(v)
    if n < 1e-300:
        raise ValueError("cannot normalize a zero vector")
    return v / n


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
class CsiMeasurement:
    """One noisy CSI estimate at the UE."""

    slot_index: int
    measured_precoder: np.ndarray
    snr_db: float


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

    true_precoders = np.empty((num_slots, num_tx_antennas), dtype=np.complex128)
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

        rng0 = substream(seed, "chan.gains", seg_start)
        gains = (rng0.standard_normal(p) + 1j * rng0.standard_normal(p)) / math.sqrt(
            2 * p
        )
        for s in range(seg_start, seg_end):
            if s > seg_start:
                rng = substream(seed, "chan.gains", s)
                noise = rng.standard_normal(p) + 1j * rng.standard_normal(p)
                gains = rotation * (rho * gains) + innov_scale * noise
            h = steering @ gains
            true_precoders[s] = unit_norm(h)
            beam_power[s] = np.abs(codebook.conj().T @ h) ** 2
            snr[s] = regime.mean_snr_db

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
    true_precoder: np.ndarray,
    snr_db: float,
    slot_index: int,
    master_seed: int,
) -> CsiMeasurement:
    """UE-side CSI estimate: truth plus circular complex Gaussian noise.

    Per-component noise variance is 10**(-snr_db/10) / num_antennas, so
    the total noise power relative to the unit-norm precoder matches the
    SNR. The sum is re-normalized. Infinite SNR returns the truth.
    """
    w = np.asarray(true_precoder)
    if math.isinf(snr_db) and snr_db > 0:
        return CsiMeasurement(slot_index, w.copy(), snr_db)
    n_ant = w.size
    var = 10.0 ** (-snr_db / 10.0) / n_ant
    rng = substream(master_seed, "meas", slot_index)
    noise = math.sqrt(var / 2) * (
        rng.standard_normal(n_ant) + 1j * rng.standard_normal(n_ant)
    )
    return CsiMeasurement(slot_index, unit_norm(w + noise), snr_db)
