"""Linear model zoo: CSI prediction, two-sided CSI compression and
low-rank adaptation deltas.

Everything here is deliberately closed-form (ridge least squares and
truncated SVD) so training is deterministic and cheap, while keeping the
package / descriptor / delta machinery identical to what a real model
store would need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np

from . import container
from .channel import CsiMeasurements, row_norms, unit_norm
from .errors import DegenerateInputError, IntegrityError
from .kpi import InputDescriptor, derive_input_descriptor
from .streams import stable_id

RIDGE_SCALE = 1e-6  # ridge weight relative to mean Gram eigenvalue
DELTA_RCOND = 0.1  # excitation cutoff for adaptation-delta fits
CSI_COMPRESS_TAG = "csi-compress"  # the functionality of every encoder and decoder


def predictor_tag(horizon_slots: int) -> str:
    """The functionality tag of a CSI predictor: one per prediction horizon."""
    return f"csi-pred-h{horizon_slots}"


class ModelKind(str, Enum):
    CSI_PREDICTOR = "csi_predictor"
    CSI_ENCODER = "csi_encoder"
    CSI_DECODER = "csi_decoder"


@dataclass
class ModelDescriptor:
    """Metadata travelling with every model package.

    ``payload_checksum`` is the SHA-256 trailer of the container the
    package is stored as (:meth:`ModelPackage.container_bytes`). For a
    full package that is its own serialization. For a delta version
    (:func:`apply_delta`'s output) it is its :class:`DeltaPackage`
    container, whose header names the root by id, version and payload
    checksum: the checksum covers the correction directly and the root's
    parameters through the root's checksum.
    """

    model_id: str
    model_version: int
    functionality_tag: str
    associated_id: str | None
    input_descriptor: InputDescriptor
    payload_checksum: bytes | None = None
    flops_per_inference: int = 0
    storage_bytes: int = 0


class RootRef(NamedTuple):
    """The full package whose parameters a delta version corrects."""

    model_id: str
    version: int
    checksum: bytes


@dataclass
class ModelPackage:
    """A named, versioned bundle of parameter matrices.

    ``root`` is set on a delta version: the package is its root's
    parameters plus the ``delta_*`` correction, and is stored as that
    correction alone (:meth:`container_bytes`).
    """

    descriptor: ModelDescriptor
    kind: ModelKind
    parameters: list[tuple[str, np.ndarray]]
    extra: dict[str, str] = field(default_factory=dict)
    root: RootRef | None = None
    # (parameters, container_bytes()) from finalize_package, until a store takes them.
    _finalized: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def param(self, name: str) -> np.ndarray:
        for key, value in self.parameters:
            if key == name:
                return value
        raise IntegrityError(f"package has no parameter {name!r}")

    def has_param(self, name: str) -> bool:
        return any(key == name for key, _ in self.parameters)

    def to_bytes(self) -> bytes:
        """The full serialization: every parameter, the root's included."""
        header = _package_header(self)
        return container.write_container(header, self.parameters)

    def container_bytes(self) -> bytes:
        """The container ``payload_checksum`` names and a registry stores:
        :meth:`to_bytes`, or for a delta version its :class:`DeltaPackage`."""
        if self.root is None:
            return self.to_bytes()
        d = self.descriptor
        left, right, bias = (self.param(f"delta_{name}") for name in ("left", "right", "bias"))
        return DeltaPackage(
            d.model_id, d.model_version - 1, left, right, bias.ravel(), self.root
        ).to_bytes()

    def take_container_bytes(self) -> bytes:
        """:meth:`container_bytes`, as :func:`finalize_package` wrote them if the
        parameter list holds what it serialized; the package keeps no copy."""
        (serialized, data), self._finalized = self._finalized or ((), None), None
        if data is None or [*map(id, serialized)] != [*map(id, self.parameters)]:
            return self.container_bytes()
        return data

    @classmethod
    def from_bytes(cls, data: bytes) -> "ModelPackage":
        header, matrices, checksum = container.read_container(data)
        if header.get("container") != "model":
            raise IntegrityError("not a model container")
        pkg = _package_from_header(header, matrices)
        pkg.descriptor.payload_checksum = checksum
        return pkg


@dataclass
class DeltaPackage:
    """Low-rank correction shipped instead of a full model.

    Applying it post-composes the base model's output with
    (I + left @ right^H) and adds ``bias``. The base is the version it was
    fitted on; ``root``, set once the delta is applied, is the full
    package whose raw output it maps (the base itself, or the base's root).
    """

    base_model_id: str
    base_model_version: int
    left: np.ndarray
    right: np.ndarray
    bias: np.ndarray
    root: RootRef | None = None

    @property
    def rank(self) -> int:
        return self.left.shape[1]

    @property
    def _matrices(self) -> list[tuple[str, np.ndarray]]:
        return [("left", self.left), ("right", self.right), ("bias", self.bias.reshape(-1, 1))]

    @property
    def size_bytes(self) -> int:
        return storage_for_parameters(self._matrices)

    def to_bytes(self) -> bytes:
        header = {
            "container": "model",
            "kind": "DELTA",
            "base_model_id": self.base_model_id,
            "base_model_version": str(self.base_model_version),
            "rank": str(self.rank),
            "size_bytes": str(self.size_bytes),
        }
        if self.root is not None:
            header["root_model_id"] = self.root.model_id
            header["root_model_version"] = str(self.root.version)
            header["root_checksum"] = self.root.checksum.hex()
        return container.write_container(header, self._matrices)

    @classmethod
    def from_bytes(cls, data: bytes) -> "DeltaPackage":
        header, matrices, _ = container.read_container(data)
        if header.get("kind") != "DELTA":
            raise IntegrityError("not a delta container")
        by_name = dict(matrices)
        try:
            root = None
            if "root_model_id" in header:
                root = RootRef(header["root_model_id"], int(header["root_model_version"]),
                               bytes.fromhex(header["root_checksum"]))
            if int(header["rank"]) != by_name["left"].shape[1]:
                raise ValueError(f"header rank {header['rank']}, left factor rank "
                                 f"{by_name['left'].shape[1]}")
            return cls(
                base_model_id=header["base_model_id"],
                base_model_version=int(header["base_model_version"]),
                left=by_name["left"],
                right=by_name["right"],
                bias=by_name["bias"].ravel(),
                root=root,
            )
        except (KeyError, ValueError) as exc:
            raise IntegrityError(f"bad delta container: {exc!r}") from None


@dataclass(frozen=True)
class PredictorConfig:
    order: int = 8
    horizon_slots: int = 4

    @property
    def min_history(self) -> int:
        """Fewest measurements train_predictor accepts: eleven training windows."""
        return self.order + self.horizon_slots + 10

    def validate(self) -> None:
        if self.order < 1:
            raise ValueError("order must be >= 1")
        if self.horizon_slots < 1:
            raise ValueError("horizon_slots must be >= 1")


@dataclass(frozen=True)
class AutoencoderConfig:
    latent_dim: int
    bits_per_dim: int
    input_dim: int

    def validate(self) -> None:
        if not 1 <= self.latent_dim <= self.input_dim:
            raise ValueError("latent_dim must lie in [1, input_dim]")
        if self.bits_per_dim < 0:
            raise ValueError("bits_per_dim must be >= 0")


# --------------------------------------------------------------------------
# accounting

def flops_for_parameters(parameters: list[tuple[str, np.ndarray]]) -> int:
    """Inference cost convention: 2*rows*cols MACs per matrix, a complex
    MAC counting 8 real ops and a real MAC 2."""
    total = 0
    for _, m in parameters:
        macs = 2 * m.shape[0] * m.shape[1]
        total += macs * (8 if np.iscomplexobj(m) else 2)
    return total


def storage_for_parameters(parameters: list[tuple[str, np.ndarray]]) -> int:
    """8 bytes per stored real; complex entries hold two reals."""
    total = 0
    for _, m in parameters:
        reals = m.shape[0] * m.shape[1] * (2 if np.iscomplexobj(m) else 1)
        total += reals * 8
    return total


def finalize_package(pkg: ModelPackage) -> ModelPackage:
    """Fill size and cost fields, then freeze the payload checksum.

    The checksum is the SHA-256 trailer of :meth:`ModelPackage.container_bytes`,
    taken from the bytes just written, which the package keeps for a store.
    """
    pkg.descriptor.flops_per_inference = flops_for_parameters(pkg.parameters)
    pkg.descriptor.storage_bytes = storage_for_parameters(pkg.parameters)
    data = pkg.container_bytes()
    pkg.descriptor.payload_checksum = data[-container.CHECKSUM_LEN:]
    pkg._finalized = tuple(pkg.parameters), data
    return pkg


def new_package(
    kind: ModelKind,
    parameters: list[tuple[str, np.ndarray]],
    extra: dict[str, str],
    model_id: str,
    functionality_tag: str,
    input_descriptor: InputDescriptor,
    associated_id: str | None = None,
) -> ModelPackage:
    """Build version 1 of a package, then :func:`finalize_package` it."""
    descriptor = ModelDescriptor(model_id, 1, functionality_tag, associated_id, input_descriptor)
    return finalize_package(ModelPackage(descriptor, kind, parameters, extra))


def verify_package(pkg: ModelPackage) -> bool:
    """True iff the stored checksum matches a fresh serialization of the
    container it names (for a delta version, its :class:`DeltaPackage`)."""
    return pkg.descriptor.payload_checksum == container.payload_checksum(
        pkg.container_bytes()
    )


# --------------------------------------------------------------------------
# header round-trip

def _fmt_floats(values: np.ndarray) -> str:
    return ",".join(repr(float(x)) for x in np.asarray(values).ravel())


def _parse_floats(text: str) -> np.ndarray:
    return np.array([float(tok) for tok in text.split(",") if tok], dtype=np.float64)


def _package_header(pkg: ModelPackage) -> dict[str, str]:
    d = pkg.descriptor
    header = {
        "container": "model",
        "kind": pkg.kind.value,
        "model_id": d.model_id,
        "model_version": str(d.model_version),
        "functionality_tag": d.functionality_tag,
        "associated_id": d.associated_id or "",
        "flops_per_inference": str(d.flops_per_inference),
        "storage_bytes": str(d.storage_bytes),
        "descriptor.beam_power": _fmt_floats(d.input_descriptor.mean_beam_power),
        "descriptor.doppler": repr(float(d.input_descriptor.doppler_estimate)),
        "descriptor.snr_db": repr(float(d.input_descriptor.mean_snr_db)),
        "descriptor.window_len": str(d.input_descriptor.window_len),
    }
    for key in sorted(pkg.extra):
        header[f"extra.{key}"] = pkg.extra[key]
    return header


class _ReadExtra(dict):
    """A read package's extra settings: one that its header lacks is damage."""

    def __missing__(self, key: str) -> str:
        raise IntegrityError(f"package header has no extra.{key}")


def _package_from_header(
    header: dict[str, str], matrices: list[tuple[str, np.ndarray]]
) -> ModelPackage:
    try:
        kind = ModelKind(header["kind"])
        descriptor = ModelDescriptor(
            model_id=header["model_id"],
            model_version=int(header["model_version"]),
            functionality_tag=header["functionality_tag"],
            associated_id=header["associated_id"] or None,
            input_descriptor=InputDescriptor(
                mean_beam_power=_parse_floats(header["descriptor.beam_power"]),
                doppler_estimate=float(header["descriptor.doppler"]),
                mean_snr_db=float(header["descriptor.snr_db"]),
                window_len=int(header["descriptor.window_len"]),
            ),
            flops_per_inference=int(header["flops_per_inference"]),
            storage_bytes=int(header["storage_bytes"]),
        )
    except (KeyError, ValueError) as exc:
        raise IntegrityError(f"bad model header: {exc}") from None
    extra = _ReadExtra(
        (key[len("extra."):], value) for key, value in header.items() if key.startswith("extra.")
    )
    return ModelPackage(descriptor=descriptor, kind=kind, parameters=matrices,
                        extra=extra)


# --------------------------------------------------------------------------
# ridge helper

def _normal_equations(features: np.ndarray, targets: np.ndarray):
    """The ridge's Gram ``features^H features`` and right side ``features^H targets``."""
    features_h = features.conj().T
    return features_h @ features, features_h @ targets


def _solve_normal(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve (gram + lam I) C = rhs, adding lam I to ``gram`` in place, with
    the package ridge convention lam = RIDGE_SCALE * trace(gram) / dim."""
    dim = gram.shape[0]
    tr = float(np.trace(gram).real)
    if tr <= 0:
        raise DegenerateInputError("degenerate training data (zero energy)")
    # gram + lam * I, in place: adding 0.0 first turns each -0.0 into
    # +0.0, as adding the identity's zeros does.
    gram += 0.0
    gram.flat[:: dim + 1] += RIDGE_SCALE * tr / dim
    return np.linalg.solve(gram, rhs)


def _ridge_solve(features: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Solve min |features @ C - targets|^2 + lam |C|^2."""
    return _solve_normal(*_normal_equations(features, targets))


# --------------------------------------------------------------------------
# CSI predictor

def stack_windows(rows: np.ndarray, order: int, newest) -> np.ndarray:
    """Row i concatenates ``rows[newest[i]]``, ``rows[newest[i] - 1]``, ...,
    ``order`` rows newest first: the predictor's input for each slot."""
    at = np.asarray(newest)
    return rows[at[:, np.newaxis] - np.arange(order)].reshape(len(at), -1)


def train_predictor(
    history: CsiMeasurements,
    cfg: PredictorConfig,
    beam_powers: np.ndarray | None = None,
) -> ModelPackage:
    """Fit the linear CSI predictor.

    Regresses the measurement at t + horizon onto the ``order`` most
    recent measurements stacked newest-first, via ridge least squares.
    The training window also yields the package's input descriptor.
    """
    cfg.validate()
    vectors = history.precoders
    if len(vectors) < cfg.min_history:
        raise DegenerateInputError(
            f"history of {len(vectors)} too short for order {cfg.order} "
            f"and horizon {cfg.horizon_slots}"
        )
    n_ant = vectors[0].size
    first, horizon = cfg.order - 1, cfg.horizon_slots
    features = stack_windows(vectors, cfg.order, np.arange(first, len(vectors) - horizon))
    model_id = stable_id("pred", features, repr(cfg))
    # Row i's target is row first + i + horizon: a view, not a copy, of a
    # C-contiguous history.
    gram, rhs = _normal_equations(features, np.ascontiguousarray(vectors[first + horizon :]))
    del features  # the solve (and its copy of the Gram) need not sit beside the stack
    coeff = _solve_normal(gram, rhs)  # (order*n, n)
    # Free the Gram before the taps, which outlive the fit: allocated
    # above it on the heap, they would keep its pages resident.
    del gram, rhs
    taps = coeff.T.copy()  # (n, order*n), prediction = taps @ stacked

    descriptor_stats = derive_input_descriptor(history, beam_powers)
    extra = {
        "order": str(cfg.order),
        "horizon_slots": str(cfg.horizon_slots),
        "num_antennas": str(n_ant),
    }
    return new_package(
        ModelKind.CSI_PREDICTOR, [("taps", taps)], extra, model_id,
        predictor_tag(cfg.horizon_slots), descriptor_stats,
    )


def predictor_config(pkg: ModelPackage) -> PredictorConfig:
    return PredictorConfig(
        order=int(pkg.extra["order"]),
        horizon_slots=int(pkg.extra["horizon_slots"]),
    )


@dataclass(frozen=True)
class CsiPredictor:
    """A CSI predictor package resolved once for repeated inference:
    its order, taps and, if it carries a correction, the delta terms
    (``delta_right_h`` is the conjugate transpose of ``delta_right``)."""

    order: int
    taps: np.ndarray
    delta_left: np.ndarray | None = None
    delta_right_h: np.ndarray | None = None
    delta_bias: np.ndarray | None = None

    @classmethod
    def of(cls, model: ModelPackage) -> "CsiPredictor":
        if model.kind is not ModelKind.CSI_PREDICTOR:
            raise ValueError(f"not a CSI predictor: {model.kind}")
        predictor = cls(int(model.extra["order"]), model.param("taps"))
        if not model.has_param("delta_left"):
            return predictor
        return replace(
            predictor,
            delta_left=model.param("delta_left"),
            delta_right_h=model.param("delta_right").conj().T,
            delta_bias=model.param("delta_bias").ravel(),
        )


def predict_csi_rows(predictor: CsiPredictor, measured: np.ndarray, newest) -> np.ndarray:
    """:func:`predict_csi` on the window of ``measured`` that ends at each row
    in ``newest``, bit for bit: ``np.matmul`` on a stack makes one gemv per row."""
    order = predictor.order
    newest = np.asarray(newest)
    if newest.min() < order - 1:
        raise ValueError(f"need {order} measurements, got {newest.min() + 1}")
    stacked = stack_windows(measured, order, newest)[:, :, np.newaxis]
    taps = predictor.taps
    if taps.shape[1] != stacked.shape[1]:
        raise ValueError("measurement length does not match the model")
    out = np.matmul(taps, stacked)
    left = predictor.delta_left
    if left is not None:
        correction = np.matmul(left, np.matmul(predictor.delta_right_h, out))
        out = out + correction + predictor.delta_bias[:, np.newaxis]
    out = out[:, :, 0]
    norms = row_norms(out)
    if np.any(norms < 1e-12):
        raise DegenerateInputError("predictor produced a zero vector")
    return out / norms[:, np.newaxis]


def predict_csi(predictor: CsiPredictor, recent: np.ndarray) -> np.ndarray:
    """Predict the precoder ``horizon_slots`` ahead of the newest
    measurement. ``recent`` holds measured precoders as rows, oldest to
    newest; the last ``order`` rows are used."""
    return predict_csi_rows(predictor, np.asarray(recent), [len(recent) - 1])[0]


# --------------------------------------------------------------------------
# two-sided CSI autoencoder

def _canonical_columns(basis: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest entry is real positive; removes
    the SVD phase ambiguity without changing the subspace."""
    out = basis.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        i = int(np.argmax(np.abs(col)))
        pivot = col[i]
        if abs(pivot) > 0:
            out[:, j] = col * (abs(pivot) / pivot)
    return out


def train_autoencoder_joint(
    targets: np.ndarray,
    cfg: AutoencoderConfig,
    model_id_prefix: str | None = None,
) -> tuple[ModelPackage, ModelPackage]:
    """Jointly train encoder and decoder.

    The encoder projects onto the top-``latent_dim`` left singular
    vectors of the sample matrix; the decoder is the conjugate
    transpose (the same basis applied back). With ``bits_per_dim`` > 0,
    each real latent component is midrise-quantized over a learned
    symmetric range. Both packages carry one fresh associated id.
    """
    cfg.validate()
    samples = np.asarray(targets, dtype=np.complex128)
    if samples.ndim != 2 or samples.shape[1] != cfg.input_dim:
        raise ValueError(f"targets must be (samples, {cfg.input_dim})")
    if samples.shape[0] < cfg.latent_dim:
        raise ValueError("need at least latent_dim training samples")

    u, _, _ = np.linalg.svd(samples.T, full_matrices=False)
    basis = _canonical_columns(u[:, : cfg.latent_dim])
    ranges = None
    if cfg.bits_per_dim > 0:
        latents = samples @ basis.conj()
        ranges = np.maximum(np.abs(latents).max(axis=0), 1e-12)

    associated = stable_id("ae", samples, repr(cfg))
    prefix = model_id_prefix or associated
    return tuple(
        codec_package(kind, cfg, [("", basis, ranges)], samples, associated, f"{prefix}-{suffix}")
        for kind, suffix in ((ModelKind.CSI_ENCODER, "enc"), (ModelKind.CSI_DECODER, "dec"))
    )


def codec_config(pkg: ModelPackage) -> AutoencoderConfig:
    """The sizes an encoder or decoder package records in its extra settings."""
    return AutoencoderConfig(
        *(int(pkg.extra[key]) for key in ("latent_dim", "bits_per_dim", "input_dim"))
    )


def codec_package(
    kind: ModelKind,
    cfg: AutoencoderConfig,
    blocks: Sequence[tuple[str, np.ndarray, np.ndarray | None]],
    targets: np.ndarray,
    associated_id: str,
    model_id: str | None = None,
    id_prefix: str = "",
    **extra: str,
) -> ModelPackage:
    """Version 1 of an encoder or decoder: per block ``(suffix, basis, ranges)``
    the parameter ``basis<suffix>`` and, if ``cfg`` quantizes, the column
    ``quant_ranges<suffix>``; ``cfg``'s sizes and ``extra`` as extra settings;
    the descriptor of ``targets``, the precoders it was trained on. The id is
    ``model_id``, else ``stable_id`` of ``id_prefix``, ``associated_id`` and
    every parameter."""
    params = []
    for suffix, basis, ranges in blocks:
        params.append((f"basis{suffix}", basis.copy()))
        if cfg.bits_per_dim > 0:
            params.append((f"quant_ranges{suffix}", ranges.reshape(-1, 1).copy()))
    if model_id is None:
        model_id = stable_id(id_prefix, associated_id, *(m for _, m in params))
    settings = {key: str(value) for key, value in vars(cfg).items()}
    pseudo = CsiMeasurements(unit_norm(targets), np.full(len(targets), math.inf))
    return new_package(
        kind, params, {**settings, **extra}, model_id, CSI_COMPRESS_TAG,
        derive_input_descriptor(pseudo), associated_id,
    )


def _quantize(x: np.ndarray, rng: np.ndarray, bits: int) -> np.ndarray:
    levels = 1 << bits
    step = 2.0 * rng / levels
    code = np.floor((x + rng) / step)
    return np.clip(code, 0, levels - 1).astype(np.int64)


def feedback_latents(feedback: np.ndarray, bits: int, ranges: np.ndarray | None) -> np.ndarray:
    """Complex latents from feedback messages: the messages themselves when
    ``bits`` is 0, else their codes dequantized over ``ranges``, one range
    per latent dimension. In the last axis of quantized feedback, entry 2k
    holds the real code of latent dimension k and entry 2k + 1 its imaginary one."""
    feedback = np.asarray(feedback)
    if bits == 0:
        return feedback.astype(np.complex128)
    if ranges is None:
        raise IntegrityError("quantized feedback comes without quantizer ranges")
    ranges = ranges.ravel()
    if feedback.shape[-1] != 2 * ranges.size:
        raise ValueError("feedback length does not match the quantizer ranges")
    step = 2.0 * ranges / (1 << bits)
    re, im = (-ranges + (feedback[..., k::2].astype(np.float64) + 0.5) * step for k in (0, 1))
    return re + 1j * im


def encode_csi(encoder: ModelPackage, target: np.ndarray) -> np.ndarray:
    """Compress a precoder, or each row of a stack, into its latent feedback message.

    Returns a complex vector of length latent_dim when unquantized, or
    an int64 code vector of length 2*latent_dim (re, im interleaved per
    dimension, bits_per_dim bits each) when quantized; for a stack, one per
    row, bit for bit as row by row (``np.matmul`` makes one gemv per row).
    """
    if encoder.kind is not ModelKind.CSI_ENCODER:
        raise ValueError(f"not an encoder: {encoder.kind}")
    w = np.asarray(target)
    basis = encoder.param("basis")
    if w.shape[-1] != basis.shape[0]:
        raise ValueError("target length does not match the encoder")
    z = np.matmul(basis.conj().T, w[..., np.newaxis])[..., 0]
    bits = int(encoder.extra["bits_per_dim"])
    if bits == 0:
        return z
    ranges = encoder.param("quant_ranges").ravel()
    codes = np.empty(z.shape[:-1] + (2 * z.shape[-1],), dtype=np.int64)
    codes[..., 0::2] = _quantize(z.real, ranges, bits)
    codes[..., 1::2] = _quantize(z.imag, ranges, bits)
    return codes


def decode_csi(
    decoder: ModelPackage,
    feedback: np.ndarray,
    vendor_index: int | None = None,
) -> np.ndarray:
    """Reconstruct a unit-norm precoder from a feedback message, or one
    per row of a stack of messages, bit for bit as row by row.

    Multi-vendor decoders select the reconstruction block named by
    ``vendor_index``. An all-zero feedback is refused as degenerate.
    """
    if decoder.kind is not ModelKind.CSI_DECODER:
        raise ValueError(f"not a decoder: {decoder.kind}")
    suffix = ""
    if decoder.extra.get("multivendor") == "1":
        if vendor_index is None:
            raise ValueError("multi-vendor decoder needs a vendor_index")
        suffix = f"_v{vendor_index}"
        if not decoder.has_param(f"basis{suffix}"):
            raise ValueError(f"unknown vendor index {vendor_index}")
    basis = decoder.param(f"basis{suffix}")
    bits = int(decoder.extra["bits_per_dim"])
    z = feedback_latents(feedback, bits, decoder.param(f"quant_ranges{suffix}") if bits else None)
    if z.shape[-1] != basis.shape[1]:
        raise ValueError("latent length does not match the decoder")
    out = np.matmul(basis, z[..., np.newaxis])[..., 0]
    norms = row_norms(out)
    if np.any(norms < 1e-12):
        raise DegenerateInputError("zero feedback vector")
    return out / norms[..., np.newaxis]


# --------------------------------------------------------------------------
# adaptation deltas

def fit_adaptation_delta(
    base: ModelPackage, predicted: np.ndarray, truth: np.ndarray, rank: int
) -> DeltaPackage:
    """Fit a rank-limited affine correction from recent pairs: row i of the
    (pairs, n) arrays ``predicted`` and ``truth`` is one pair.

    Solves the least-squares map predicted -> truth restricted to the
    directions the pairs actually excite (singular values below
    ``DELTA_RCOND`` of the largest are dropped), then keeps the best
    rank-``rank`` approximation of its deviation from identity plus the
    fitted bias. Monitoring windows are short and heavily correlated, so
    unexcited directions are left uncorrected rather than extrapolated.

    If ``base`` already carries a correction, the new fit is composed
    with it so the returned delta always maps the raw model output.
    Matching pairs therefore reproduce the base behaviour exactly.
    """
    if base.kind is not ModelKind.CSI_PREDICTOR:
        raise ValueError("deltas apply to CSI predictors")
    if rank < 1:
        raise ValueError("rank must be >= 1")
    if len(predicted) < rank + 5:
        raise DegenerateInputError(
            f"need at least rank + 5 = {rank + 5} pairs, got {len(predicted)}"
        )
    dim = predicted.shape[1]
    if rank > dim:
        raise DegenerateInputError(f"rank {rank} exceeds output dimension {dim}")
    if dim != base.param("taps").shape[0]:
        raise ValueError(
            f"pairs have dimension {dim}, model outputs {base.param('taps').shape[0]}"
        )

    p_mean = predicted.mean(axis=0)
    g_mean = truth.mean(axis=0)
    centered = predicted - p_mean
    coeff, _, _, _ = np.linalg.lstsq(centered, (truth - g_mean) - centered, rcond=DELTA_RCOND)
    new_corr = coeff.T
    new_map = np.eye(dim) + new_corr
    new_bias = g_mean - new_map @ p_mean

    if base.has_param("delta_left"):
        old_corr = base.param("delta_left") @ base.param("delta_right").conj().T
        old_bias = base.param("delta_bias").ravel()
        correction = old_corr + new_corr + new_corr @ old_corr
        bias = new_map @ old_bias + new_bias
    else:
        correction = new_corr
        bias = new_bias

    u, s, vh = np.linalg.svd(correction)
    left = u[:, :rank] * s[:rank]
    right = vh[:rank].conj().T
    delta = DeltaPackage(
        base_model_id=base.descriptor.model_id,
        base_model_version=base.descriptor.model_version,
        left=left,
        right=right,
        bias=bias,
    )
    if delta.size_bytes >= base.descriptor.storage_bytes:
        raise DegenerateInputError(
            "delta would not be smaller than the base package; lower the rank"
        )
    return delta


def apply_delta(base: ModelPackage, delta: DeltaPackage) -> ModelPackage:
    """Return a new package with the correction attached and the version
    bumped. The base package is left untouched.

    The result is a delta version over the base's root (the base itself
    when it is a full package): its payload checksum names the delta
    container, so the root's parameters are not serialized again.
    """
    if (
        delta.base_model_id != base.descriptor.model_id
        or delta.base_model_version != base.descriptor.model_version
    ):
        raise ValueError(
            f"delta targets {delta.base_model_id} v{delta.base_model_version}, "
            f"base is {base.descriptor.model_id} v{base.descriptor.model_version}"
        )
    root = base.root
    if root is None:
        if base.descriptor.payload_checksum is None:
            raise ValueError("base package has no payload checksum")
        root = RootRef(base.descriptor.model_id, base.descriptor.model_version,
                       base.descriptor.payload_checksum)
    return finalize_package(_corrected(base, delta, root))


def rebuild_delta_version(root: ModelPackage, delta: DeltaPackage) -> ModelPackage:
    """The delta version ``delta`` stores, rebuilt over its full ``root``
    package: bit for bit the package :func:`apply_delta` returned.

    Raises IntegrityError unless ``root`` is the package the delta names,
    by id, version and payload checksum.
    """
    d = root.descriptor
    if delta.root != (d.model_id, d.model_version, d.payload_checksum):
        raise IntegrityError(
            f"{d.model_id} v{d.model_version} as read is not the root that the delta "
            f"for {delta.base_model_id} v{delta.base_model_version + 1} names"
        )
    return finalize_package(_corrected(root, delta, delta.root))


def _corrected(base: ModelPackage, delta: DeltaPackage, root: RootRef) -> ModelPackage:
    """``base``'s parameters, less any correction, plus ``delta``'s, as the
    version after the delta's base; costs and checksum not yet filled."""
    params = [
        (name, m.copy())
        for name, m in base.parameters
        if not name.startswith("delta_")
    ]
    params += [
        ("delta_left", delta.left.copy()),
        ("delta_right", delta.right.copy()),
        ("delta_bias", delta.bias.reshape(-1, 1).copy()),
    ]
    return ModelPackage(
        descriptor=replace(base.descriptor, model_version=delta.base_model_version + 1),
        kind=base.kind,
        parameters=params,
        extra=dict(base.extra),
        root=root,
    )
