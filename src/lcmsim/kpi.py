"""Air-interface KPIs and input-distribution descriptors."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel import CsiMeasurements, dft_codebook


def sgcs_rows(predicted: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """:func:`sgcs` of each row pair of two broadcasting stacks, bit for bit:
    ``np.vecdot`` makes the BLAS dot ``np.vdot`` makes (and raises ValueError on
    a length mismatch). ``np.abs`` and ``np.square`` of an array may round unlike
    ``abs`` and ``**`` on each numpy scalar; ``np.hypot`` and Python's ``**`` do not."""
    p = np.asarray(predicted)
    t = np.asarray(truth)
    pn = np.vecdot(p, p).real
    tn = np.vecdot(t, t).real
    if np.any(pn < 1e-300) or np.any(tn < 1e-300):
        raise ValueError("sgcs undefined for zero vectors")
    inner = np.vecdot(p, t)
    mag = np.hypot(inner.real, inner.imag)
    return np.reshape([x**2 for x in mag.ravel().tolist()], mag.shape) / (pn * tn)


def sgcs(predicted: np.ndarray, truth: np.ndarray) -> float:
    """Squared generalized cosine similarity between two precoders.

    |<p, t>|^2 / (|p|^2 |t|^2), invariant to global phase and scale of
    either argument. Range [0, 1].
    """
    return float(sgcs_rows(np.asarray(predicted).ravel(), np.asarray(truth).ravel()))


def nmse_rows(predicted: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """:func:`nmse` of each row pair of two stacks, bit for bit."""
    t = np.asarray(truth)
    tn = np.vecdot(t, t).real
    if np.any(tn < 1e-300):
        raise ValueError("nmse undefined for zero reference")
    d = np.asarray(predicted) - t
    return np.vecdot(d, d).real / tn


def nmse(predicted: np.ndarray, truth: np.ndarray) -> float:
    """Normalized mean squared error |p - t|^2 / |t|^2."""
    return float(nmse_rows(np.asarray(predicted).ravel(), np.asarray(truth).ravel()))


@dataclass(frozen=True)
class BeamKpiConfig:
    """Top-K beam accuracy window: K predicted vs M measured best beams
    over the N most recent intervals."""

    top_k: int
    top_m: int
    window_n: int

    def validate(self, num_beams: int) -> None:
        for name, v in (("top_k", self.top_k), ("top_m", self.top_m)):
            if not 1 <= v <= num_beams:
                raise ValueError(f"{name}={v} outside [1, {num_beams}]")
        if self.window_n < 1:
            raise ValueError("window_n must be positive")


def _top_indices(values: np.ndarray, count: int) -> np.ndarray:
    # Stable sort on negated values: ties resolve to the lowest index.
    return np.argsort(-np.asarray(values), kind="stable")[:count]


def beam_topk_accuracy(
    history: Sequence[tuple[np.ndarray, np.ndarray]], cfg: BeamKpiConfig
) -> float:
    """Fraction of recent intervals whose top-K predicted beams overlap
    the top-M measured beams.

    ``history`` holds (predicted_powers, measured_powers) pairs, oldest
    first; only the last ``window_n`` count.
    """
    if not history:
        raise ValueError("empty history")
    num_beams = len(history[0][0])
    cfg.validate(num_beams)
    recent = history[-cfg.window_n:]
    hits = 0
    for predicted, measured in recent:
        pred_top = set(_top_indices(predicted, cfg.top_k).tolist())
        meas_top = set(_top_indices(measured, cfg.top_m).tolist())
        if pred_top & meas_top:
            hits += 1
    return hits / len(recent)


@dataclass
class InputDescriptor:
    """Summary of the input distribution a model was trained on (or is
    currently seeing): beam-power profile, Doppler estimate, mean SNR."""

    mean_beam_power: np.ndarray
    doppler_estimate: float
    mean_snr_db: float
    window_len: int


def lag1_terms(vectors: Sequence[np.ndarray], snr_db: Sequence[float]) -> list[float]:
    """Noise-debiased lag-1 inner products, one per consecutive pair:
    term i is |<m_i, m_{i+1}>| * sqrt(g_i * g_{i+1}), g the noise gain
    implied by the SNR (see :func:`derive_input_descriptor`)."""
    v = np.asarray(vectors)
    gains = np.array([_noise_gain(s) for s in snr_db])
    inner = np.vecdot(v[:-1], v[1:])
    return (np.hypot(inner.real, inner.imag) * np.sqrt(gains[:-1] * gains[1:])).tolist()


def derive_input_descriptor(
    measurements: CsiMeasurements, beam_powers: np.ndarray | None = None
) -> InputDescriptor:
    """Build an InputDescriptor from a window of measurements.

    ``beam_powers`` (one row per measurement) should be passed when beam
    sweep measurements exist; otherwise beam powers are taken from the
    measured precoders against :func:`dft_codebook` of their length.

    The Doppler estimate inverts the lag-1 precoder autocorrelation,
    arccos(mean |<m_t, m_{t+1}>|) / 2*pi. Additive measurement noise
    shrinks that inner product by 1/(1 + sigma^2), so each pair is
    rescaled by the noise powers implied by the reported SNRs before the
    arccos; this keeps the estimate about mobility rather than SNR.
    A single-sample window yields 0. A caller sliding a window over one
    run can take every window's descriptor at once with
    :func:`window_descriptors`.
    """
    vectors, snr_db = measurements.precoders, measurements.snr_db
    if not len(snr_db):
        raise ValueError("empty measurement window")
    if beam_powers is None:
        # np.matmul on a stack of vectors makes the per-vector gemv: bit for bit the loop.
        cb_h = dft_codebook(vectors.shape[1]).conj().T
        beam_powers = np.abs(np.matmul(cb_h, vectors[:, :, np.newaxis])[:, :, 0]) ** 2
    else:
        beam_powers = np.asarray(beam_powers, dtype=np.float64)
        if beam_powers.shape[0] != len(snr_db):
            raise ValueError("beam_powers rows must match the window length")
    lag_terms = lag1_terms(vectors, snr_db.tolist())
    return window_descriptors(beam_powers, snr_db, lag_terms, [0], [len(snr_db)])[0]


@dataclass(frozen=True)
class DescriptorRows:
    """Input descriptors as arrays, one row per descriptor."""

    profiles: np.ndarray  # mean beam power, each row summing to 1
    dopplers: np.ndarray
    snrs: np.ndarray
    window_lens: np.ndarray

    def __getitem__(self, i: int) -> InputDescriptor:
        fields = float(self.dopplers[i]), float(self.snrs[i]), int(self.window_lens[i])
        return InputDescriptor(self.profiles[i].copy(), *fields)

    @classmethod
    def stack(cls, descriptors: Sequence[InputDescriptor]) -> "DescriptorRows":
        """Rows of ``descriptors``; raises ValueError unless their profiles have one size."""
        fields = [(d.doppler_estimate, d.mean_snr_db, d.window_len) for d in descriptors]
        dopplers, snrs, lens = np.array(fields, dtype=np.float64).reshape(-1, 3).T
        profiles = np.stack([np.asarray(d.mean_beam_power, dtype=np.float64) for d in descriptors])
        return cls(profiles, dopplers, snrs, lens)

    def divergences(self, other: InputDescriptor) -> tuple:
        """:func:`misalignment_divergence` and :func:`descriptor_divergence` of
        ``other`` and each row, as two arrays, in one pass."""
        mis = _misalignments(other, self.profiles, self.dopplers)
        a, b = other.mean_snr_db, self.snrs
        with np.errstate(invalid="ignore"):  # inf - inf, where the term is 0
            snr_terms = np.where(np.isinf(a) & np.isinf(b), 0.0, np.abs(a - b) / 30.0)
        return mis, mis + snr_terms


def window_descriptors(
    beam_powers: np.ndarray, snr_db: np.ndarray, lag_terms: Sequence[float],
    starts: Sequence[int], stops: Sequence[int],
) -> DescriptorRows:
    """Row i describes slots ``starts[i]..stops[i]-1`` of one run, bit for bit
    :func:`derive_input_descriptor` of that window: ``beam_powers`` and
    ``snr_db`` hold one row per slot, and ``lag_terms[t]`` pairs slots t and
    t+1 (:func:`lag1_terms`). Each window is summed as a view of its rows, in
    ``add.reduce(axis=0)`` order, so no stack of windows is ever gathered."""
    sums = np.empty((len(starts), beam_powers.shape[1]))
    snrs, dopplers = [], []
    for row, lo, hi in zip(sums, starts, stops):
        np.add.reduce(beam_powers[lo:hi], axis=0, out=row)
        snrs.append(np.add.reduce(snr_db[lo:hi]) / (hi - lo))
        acc = 0.0
        for term in lag_terms[lo : hi - 1]:  # in pair order: sum() compensates on Python 3.12+
            acc += term
        mean_inner = min(1.0, max(0.0, acc / (hi - lo - 1))) if hi - lo > 1 else 1.0
        dopplers.append(math.acos(mean_inner) / (2 * math.pi))  # acos(1) = 0: one sample
    lengths = np.subtract(stops, starts)
    mean_power = sums / lengths[:, np.newaxis]
    total = mean_power.sum(axis=1)
    if np.any(total <= 0):
        raise ValueError("beam powers sum to zero")
    return DescriptorRows(
        mean_power / total[:, np.newaxis], np.array(dopplers), np.array(snrs), lengths
    )


def _noise_gain(snr_db: float) -> float:
    if math.isinf(snr_db) and snr_db > 0:
        return 1.0
    return 1.0 + 10.0 ** (-snr_db / 10.0)


def _misalignments(
    one: InputDescriptor, profiles: np.ndarray, dopplers: np.ndarray
) -> np.ndarray:
    """Jensen-Shannon divergence (natural log) of one descriptor's beam distribution
    against each row of ``profiles``, plus |doppler delta|; each step is symmetric
    in the pair, bit for bit. A zero share adds no term: a row with one sums its
    other terms as one compacted vector, since np.sum's pairwise grouping depends
    on the term count."""
    q = np.asarray(one.mean_beam_power, dtype=np.float64)
    if profiles.shape[1] != q.size:
        raise ValueError("beam profiles have different codebook sizes")
    x = np.empty((2, *profiles.shape))  # KL(q || m) and KL(p || m) of every row at once
    np.divide(q, q.sum(), out=x[0])
    np.divide(profiles, profiles.sum(axis=1, keepdims=True), out=x[1])
    m = 0.5 * (x[0] + x[1])
    if np.all(x > 0):  # False for a NaN share too; True for no rows
        kl = (x * np.log(x / m)).sum(axis=2)
    else:
        keep = x > 0
        terms = x * np.log(np.divide(x, m, out=np.ones_like(x), where=keep))
        flat = zip(terms.reshape(-1, q.size), keep.reshape(-1, q.size))
        kl = np.array([t[k].sum() for t, k in flat]).reshape(2, -1)
    js = np.fmax(0.0, 0.5 * kl[0] + 0.5 * kl[1])  # fmax: 0 for a NaN sum, as max(0.0, nan)
    return js + np.abs(one.doppler_estimate - dopplers)


def misalignment_divergence(a: InputDescriptor, b: InputDescriptor) -> float:
    """Descriptor distance with the SNR term dropped.

    Jensen-Shannon divergence (natural log) of the beam distributions
    plus |doppler delta|. Used where SNR change is accounted for
    separately and only spatial or mobility drift should register.
    """
    return float(DescriptorRows.stack([b]).divergences(a)[0][0])


def descriptor_divergence(a: InputDescriptor, b: InputDescriptor) -> float:
    """Distance between two descriptors.

    The misalignment divergence plus |snr delta| / 30 (0 for two infinite SNRs),
    all terms weighted equally. Zero iff beam profile, Doppler and SNR coincide.
    """
    return float(DescriptorRows.stack([b]).divergences(a)[1][0])
