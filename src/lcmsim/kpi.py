"""Air-interface KPIs and input-distribution descriptors."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel import CsiMeasurements


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
    measurements: CsiMeasurements,
    codebook: np.ndarray,
    beam_powers: np.ndarray | None = None,
    lag_terms: Sequence[float] | None = None,
) -> InputDescriptor:
    """Build an InputDescriptor from a window of measurements.

    ``beam_powers`` (one row per measurement) should be passed when beam
    sweep measurements exist; otherwise beam powers are taken from the
    measured precoders against ``codebook``.

    The Doppler estimate inverts the lag-1 precoder autocorrelation,
    arccos(mean |<m_t, m_{t+1}>|) / 2*pi. Additive measurement noise
    shrinks that inner product by 1/(1 + sigma^2), so each pair is
    rescaled by the noise powers implied by the reported SNRs before the
    arccos; this keeps the estimate about mobility rather than SNR.
    A single-sample window yields 0. A caller sliding a window over one
    run can pass the window's pairs' :func:`lag1_terms` as ``lag_terms``
    instead of having them recomputed.
    """
    vectors, snr_vals = measurements.precoders, measurements.snr_db.tolist()
    if not snr_vals:
        raise ValueError("empty measurement window")
    cb = np.asarray(codebook)
    if beam_powers is None:
        beam_powers = np.stack([np.abs(cb.conj().T @ v) ** 2 for v in vectors])
    else:
        beam_powers = np.asarray(beam_powers, dtype=np.float64)
        if beam_powers.shape[0] != len(snr_vals):
            raise ValueError("beam_powers rows must match the window length")

    mean_power = beam_powers.mean(axis=0)
    total = mean_power.sum()
    if total <= 0:
        raise ValueError("beam powers sum to zero")
    mean_power = mean_power / total

    if len(snr_vals) < 2:
        doppler = 0.0
    else:
        if lag_terms is None:
            lag_terms = lag1_terms(vectors, snr_vals)
        elif len(lag_terms) != len(snr_vals) - 1:
            raise ValueError("lag_terms must hold one term per consecutive pair")
        acc = 0.0
        for term in lag_terms:  # in pair order: sum() compensates on Python 3.12+
            acc += term
        mean_inner = min(1.0, max(0.0, acc / (len(snr_vals) - 1)))
        doppler = math.acos(mean_inner) / (2 * math.pi)

    return InputDescriptor(
        mean_beam_power=mean_power,
        doppler_estimate=doppler,
        mean_snr_db=float(np.mean(snr_vals)),
        window_len=len(snr_vals),
    )


def _noise_gain(snr_db: float) -> float:
    if math.isinf(snr_db) and snr_db > 0:
        return 1.0
    return 1.0 + 10.0 ** (-snr_db / 10.0)


def _kl(p: np.ndarray, q: np.ndarray) -> float:
    mask = p > 0
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))


def misalignment_divergence(a: InputDescriptor, b: InputDescriptor) -> float:
    """Descriptor distance with the SNR term dropped.

    Jensen-Shannon divergence (natural log) of the beam distributions
    plus |doppler delta|. Used where SNR change is accounted for
    separately and only spatial or mobility drift should register.
    """
    p = np.asarray(a.mean_beam_power, dtype=np.float64)
    q = np.asarray(b.mean_beam_power, dtype=np.float64)
    if p.size != q.size:
        raise ValueError("beam profiles have different codebook sizes")
    p = p / p.sum()
    q = q / q.sum()
    m = 0.5 * (p + q)
    js = max(0.0, 0.5 * _kl(p, m) + 0.5 * _kl(q, m))
    return js + abs(a.doppler_estimate - b.doppler_estimate)


def descriptor_divergence(a: InputDescriptor, b: InputDescriptor) -> float:
    """Distance between two descriptors.

    The misalignment divergence plus |snr delta| / 30, all terms
    weighted equally. Zero iff beam profile, Doppler and SNR coincide.
    """
    snr_a, snr_b = a.mean_snr_db, b.mean_snr_db
    if math.isinf(snr_a) and math.isinf(snr_b):
        snr_term = 0.0
    else:
        snr_term = abs(snr_a - snr_b) / 30.0
    return misalignment_divergence(a, b) + snr_term


def descriptor_divergences(
    query: InputDescriptor, stored: Sequence[InputDescriptor]
) -> list[float]:
    """``descriptor_divergence(query, d)`` for every d, bit for bit, in one pass:
    the rows repeat its arithmetic step for step. A profile with a non-positive
    share (query or row) keeps the scalar form, whose masked sums group differently."""
    q = np.asarray(query.mean_beam_power, dtype=np.float64)
    rows = [np.asarray(d.mean_beam_power, dtype=np.float64) for d in stored]
    if any(r.size != q.size for r in rows):
        raise ValueError("beam profiles have different codebook sizes")
    if not rows:
        return []
    dopplers = np.array([d.doppler_estimate for d in stored], dtype=np.float64)
    snrs = np.array([d.mean_snr_db for d in stored], dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):  # such rows are redone below
        q = q / q.sum()
        p = np.stack(rows)
        p = p / p.sum(axis=1, keepdims=True)
        m = 0.5 * (q + p)
        kl_query = (q * np.log(q / m)).sum(axis=1)
        js = np.maximum(0.0, 0.5 * kl_query + 0.5 * (p * np.log(p / m)).sum(axis=1))
        snr_terms = np.abs(query.mean_snr_db - snrs) / 30.0  # NaN where both are inf:
    if math.isinf(query.mean_snr_db):
        snr_terms[np.isinf(snrs)] = 0.0  # the scalar form's 0 for two infinite SNRs
    out = ((js + np.abs(query.doppler_estimate - dopplers)) + snr_terms).tolist()
    for i in np.flatnonzero(~((p > 0).all(axis=1) & (q > 0).all())).tolist():
        out[i] = descriptor_divergence(query, stored[i])
    return out
