"""Two-sided model interoperability across vendors.

Covers both training directions for split CSI compression: training an
encoder against a frozen reference decoder (direction one), and
training a decoder from an exchanged {target CSI, feedback CSI}
dataset (direction two), plus the multi-vendor indexed variant, a
cross-pairing evaluation grid, and the four-step reference-model
derivation procedure with explicit performance, complexity, and
robustness criteria.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import container
from .channel import ChannelRegime, generate_trace
from .errors import IntegrityError, PairingError
from .kpi import sgcs_rows
from .models import (
    AutoencoderConfig,
    ModelKind,
    ModelPackage,
    _ridge_solve,
    codec_config,
    codec_package,
    decode_csi,
    encode_csi,
    feedback_latents,
    train_autoencoder_joint,
)
from .streams import stable_id


@dataclass
class CsiDataset:
    """A {target CSI, feedback CSI} exchange set from one encoder.

    Feedback rows are complex latents when unquantized and int64 code
    vectors when quantized; quantized sets also carry the quantizer
    ranges so the receiving side can reconstruct latents.
    """

    targets: np.ndarray
    feedbacks: np.ndarray
    associated_id: str
    latent_dim: int
    bits_per_dim: int
    quant_ranges: np.ndarray | None = None
    vendor_index: int | None = None

    def __len__(self) -> int:
        return self.targets.shape[0]

    @property
    def is_empty(self) -> bool:
        return len(self) == 0

    @property
    def config(self) -> AutoencoderConfig:
        """The sizes of the encoder that made the set."""
        return AutoencoderConfig(self.latent_dim, self.bits_per_dim, self.targets.shape[1])

    def latents(self) -> np.ndarray:
        """Feedback rows as complex latents, dequantized if needed."""
        return feedback_latents(self.feedbacks, self.bits_per_dim, self.quant_ranges)

    def to_bytes(self) -> bytes:
        header = {
            "container": "dataset",
            "kind": "DSET",
            "associated_id": self.associated_id,
            "latent_dim": str(self.latent_dim),
            "bits_per_dim": str(self.bits_per_dim),
            "vendor_index": "" if self.vendor_index is None else str(self.vendor_index),
        }
        feedback = self.feedbacks
        if self.bits_per_dim > 0:
            feedback = feedback.astype(np.float64)
        matrices = [("targets", self.targets), ("feedbacks", feedback)]
        if self.quant_ranges is not None:
            matrices.append(("quant_ranges", self.quant_ranges.reshape(-1, 1)))
        return container.write_container(header, matrices)

    @classmethod
    def from_bytes(cls, data: bytes) -> "CsiDataset":
        header, matrices, _ = container.read_container(data)
        if header.get("kind") != "DSET":
            raise IntegrityError("not a dataset container")
        by_name = dict(matrices)
        try:
            bits = int(header["bits_per_dim"])
            feedbacks = by_name["feedbacks"]
            if bits > 0:
                feedbacks = np.round(feedbacks.real).astype(np.int64)
            ranges = by_name.get("quant_ranges")
            vendor = header.get("vendor_index", "")
            return cls(
                targets=by_name["targets"],
                feedbacks=feedbacks,
                associated_id=header["associated_id"],
                latent_dim=int(header["latent_dim"]),
                bits_per_dim=bits,
                quant_ranges=None if ranges is None else ranges.ravel(),
                vendor_index=int(vendor) if vendor else None,
            )
        except (KeyError, ValueError) as exc:
            raise IntegrityError(f"bad dataset container: {exc!r}") from None


def export_dataset(
    encoder: ModelPackage,
    targets: np.ndarray,
    vendor_index: int | None = None,
) -> CsiDataset:
    """Run the encoder over targets and bundle the exchange set."""
    samples = np.asarray(targets, dtype=np.complex128)
    if samples.ndim != 2:
        raise ValueError("targets must be a (samples, antennas) matrix")
    feedbacks = encode_csi(encoder, samples)
    cfg = codec_config(encoder)
    return CsiDataset(
        targets=samples,
        feedbacks=feedbacks,
        associated_id=encoder.descriptor.associated_id or "",
        latent_dim=cfg.latent_dim,
        bits_per_dim=cfg.bits_per_dim,
        quant_ranges=encoder.param("quant_ranges").ravel().copy() if cfg.bits_per_dim else None,
        vendor_index=vendor_index,
    )


def train_decoder_from_dataset(
    dataset: CsiDataset | list[CsiDataset],
) -> ModelPackage:
    """Direction two: fit the reconstruction map from exchanged data.

    Regularized least squares from (dequantized) latents to targets.
    The result carries the dataset's associated id so pairing checks
    accept exactly the encoders that produced compatible feedback.
    """
    parts = dataset if isinstance(dataset, list) else [dataset]
    if not parts or all(p.is_empty for p in parts):
        raise ValueError("dataset is empty")
    ids = {p.associated_id for p in parts}
    if len(ids) != 1:
        raise PairingError(f"mixed associated ids in dataset: {sorted(ids)}")
    if any(p.vendor_index is not None for p in parts):
        raise ValueError("vendor-indexed datasets need the multi-vendor path")
    targets = np.vstack([p.targets for p in parts])
    latents = np.vstack([p.latents() for p in parts])

    coeff = _ridge_solve(latents, targets)  # (latent, antennas)
    first = parts[0]
    return codec_package(
        ModelKind.CSI_DECODER, first.config, [("", coeff.T, first.quant_ranges)], targets,
        first.associated_id, id_prefix="dec2",
    )


def train_encoder_against_reference(
    reference_decoder: ModelPackage,
    targets: np.ndarray,
) -> ModelPackage:
    """Direction one: fit an encoder through a frozen reference decoder.

    For the linear decoder the least-squares optimum is the decoder's
    pseudoinverse, applied sample-independently, so no iteration is
    needed. Quantizer ranges (when present) are adopted from the
    reference, since they are part of its parameter set.
    """
    if reference_decoder.kind is not ModelKind.CSI_DECODER:
        raise ValueError(f"not a decoder: {reference_decoder.kind}")
    if reference_decoder.extra.get("multivendor") == "1":
        raise ValueError("reference decoder must be single-vendor")
    samples = np.asarray(targets, dtype=np.complex128)
    if samples.ndim != 2 or samples.shape[0] == 0:
        raise ValueError("targets must be a non-empty (samples, antennas) matrix")
    basis_dec = reference_decoder.param("basis")
    if samples.shape[1] != basis_dec.shape[0]:
        raise ValueError("target length does not match the reference decoder")

    basis_enc = np.linalg.pinv(basis_dec).conj().T  # pinv is (latent, antennas)
    cfg = codec_config(reference_decoder)
    ranges = reference_decoder.param("quant_ranges") if cfg.bits_per_dim > 0 else None
    associated = reference_decoder.descriptor.associated_id or ""
    return codec_package(
        ModelKind.CSI_ENCODER, cfg, [("", basis_enc, ranges)], samples, associated,
        stable_id("enc1", associated, basis_enc),
    )


def train_multivendor_decoder(datasets: list[CsiDataset]) -> ModelPackage:
    """One decoder for several vendors' encoders, keyed by dataset index.

    The decoder input is the feedback together with the one-hot vendor
    index; solving the least squares with index interactions gives one
    reconstruction block per vendor, stored side by side in a single
    package. The package lists every source associated id, so pairing
    checks accept each contributing vendor's encoder.
    """
    if len(datasets) < 2:
        raise ValueError("multi-vendor training needs at least two datasets")
    indices = [d.vendor_index for d in datasets]
    if any(i is None for i in indices):
        raise ValueError("every dataset needs a vendor_index")
    if len(set(indices)) != len(indices):
        raise ValueError(f"vendor index collision in {indices}")
    widths = {d.feedbacks.shape[1] for d in datasets}
    if len(widths) != 1:
        raise ValueError(f"feedback lengths differ across vendors: {sorted(widths)}")
    configs = {d.config for d in datasets}
    if len(configs) != 1:
        raise ValueError("latent_dim, bits_per_dim, and input_dim must match")

    ordered = sorted(datasets, key=lambda d: d.vendor_index)
    blocks = []
    for part in ordered:
        if part.is_empty:
            raise ValueError(f"vendor {part.vendor_index} dataset is empty")
        coeff = _ridge_solve(part.latents(), part.targets)
        blocks.append((f"_v{part.vendor_index}", coeff.T, part.quant_ranges))

    return codec_package(
        ModelKind.CSI_DECODER, configs.pop(), blocks, np.vstack([d.targets for d in ordered]),
        ",".join(d.associated_id for d in ordered), id_prefix="mvdec", multivendor="1",
        vendor_indices=",".join(str(d.vendor_index) for d in ordered),
    )


def cross_pairing_matrix(
    encoders: list[ModelPackage],
    decoders: list[ModelPackage],
    eval_targets: np.ndarray,
    vendor_indices: list[int | None] | None = None,
) -> np.ndarray:
    """Mean SGCS of decoder j reconstructing encoder i's feedback.

    Incompatible pairs (mismatched lengths) score NaN rather than
    failing, since the grid is itself the evaluation tool.
    """
    samples = np.asarray(eval_targets, dtype=np.complex128)
    if samples.ndim != 2 or samples.shape[0] == 0:
        raise ValueError("eval_targets must be a non-empty matrix")
    if vendor_indices is None:
        vendor_indices = [None] * len(decoders)
    grid = np.full((len(encoders), len(decoders)), np.nan)
    for i, enc in enumerate(encoders):
        try:
            feedbacks = encode_csi(enc, samples)
        except ValueError:
            continue
        for j, dec in enumerate(decoders):
            try:
                decoded = decode_csi(dec, feedbacks, vendor_index=vendor_indices[j])
                scores = sgcs_rows(decoded, samples)
            except ValueError:
                continue
            grid[i, j] = float(np.mean(scores))
    return grid


# --------------------------------------------------------------------------
# reference model derivation

@dataclass(frozen=True)
class EvalCriteria:
    """Selection gates: performance floor, cost budgets, robustness floor."""

    sgcs_floor: float = 0.7
    flops_budget: int = 10**9
    storage_budget_bytes: int = 10**9
    robustness_floor: float = 0.5

    def validate(self) -> None:
        if self.sgcs_floor <= 0 or self.robustness_floor <= 0:
            raise ValueError("floors must be positive")
        if self.flops_budget <= 0 or self.storage_budget_bytes <= 0:
            raise ValueError("budgets must be positive")


@dataclass(frozen=True)
class DerivationSpec:
    """Step 1 setup: the scenario the reference must serve, plus split sizes."""

    regime: ChannelRegime
    num_antennas: int = 32
    num_train: int = 1024
    num_eval: int = 256

    def validate(self) -> None:
        self.regime.validate(self.num_antennas)
        if self.num_train < 2 or self.num_eval < 1:
            raise ValueError("split sizes too small")


@dataclass(frozen=True)
class CandidateScore:
    index: int
    latent_dim: int
    bits_per_dim: int
    mean_sgcs: float
    flops: int
    storage_bytes: int
    robustness: float
    eligible: bool
    reasons: tuple[str, ...]


@dataclass(frozen=True)
class DerivationReport:
    scores: tuple[CandidateScore, ...]
    selected_index: int | None

    def to_text(self) -> str:
        lines = ["candidate scores (index latent bits sgcs flops storage robustness eligible)"]
        for s in self.scores:
            lines.append(
                f"  {s.index} L={s.latent_dim} B={s.bits_per_dim} "
                f"sgcs={s.mean_sgcs:.6f} flops={s.flops} bytes={s.storage_bytes} "
                f"robust={s.robustness:.6f} eligible={int(s.eligible)}"
                + (f" reasons={';'.join(s.reasons)}" if s.reasons else "")
            )
        if self.selected_index is None:
            lines.append("no reference selected")
        else:
            lines.append(f"selected candidate {self.selected_index}")
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        rows = ["index,latent_dim,bits_per_dim,mean_sgcs,flops,storage_bytes,robustness,eligible"]
        for s in self.scores:
            rows.append(
                f"{s.index},{s.latent_dim},{s.bits_per_dim},{s.mean_sgcs!r},"
                f"{s.flops},{s.storage_bytes},{s.robustness!r},{int(s.eligible)}"
            )
        return "\n".join(rows) + "\n"


def _derivation_targets(spec: DerivationSpec, regime: ChannelRegime, seed: int) -> np.ndarray:
    trace = generate_trace(
        regime_schedule=[(0, regime)],
        num_slots=spec.num_train + spec.num_eval,
        num_tx_antennas=spec.num_antennas,
        seed=seed,
    )
    return trace.true_precoders


def derive_reference_model(
    candidates: list[AutoencoderConfig],
    spec: DerivationSpec,
    criteria: EvalCriteria,
    seed: int,
) -> tuple[ModelPackage | None, DerivationReport]:
    """Steps 1-4 of reference derivation; returns the selected decoder, or
    None when no candidate is eligible, and the report.

    Step 1 generates train/eval data from the declared regime and seed;
    steps 2-3 are the candidate (latent_dim, bits) grid; step 4 scores
    each candidate on eval SGCS, cost, and robustness, then picks the
    best eligible score.  Robustness is the worst pairing SGCS when an
    encoder is refit through the frozen candidate decoder on a
    Doppler-perturbed (+-50%) variant of the scenario and the pair is
    evaluated on that perturbed data.
    """
    if not candidates:
        raise ValueError("need at least one candidate")
    spec.validate()
    criteria.validate()
    for cfg in candidates:
        cfg.validate()
        if cfg.input_dim != spec.num_antennas:
            raise ValueError(
                f"candidate input_dim {cfg.input_dim} != {spec.num_antennas} antennas"
            )

    data = _derivation_targets(spec, spec.regime, seed)
    train, evaluation = data[: spec.num_train], data[spec.num_train :]
    perturbed_sets = []
    for tag, factor in (("lo", 0.5), ("hi", 1.5)):
        regime = replace(
            spec.regime,
            regime_id=f"{spec.regime.regime_id}-perturb-{tag}",
            doppler_norm=min(spec.regime.doppler_norm * factor, 0.5),
        )
        perturbed_sets.append(_derivation_targets(spec, regime, seed))

    scores: list[CandidateScore] = []
    decoders: list[ModelPackage] = []
    for idx, cfg in enumerate(candidates):
        encoder, decoder = train_autoencoder_joint(
            train, cfg, model_id_prefix=f"ref-cand{idx}"
        )
        decoders.append(decoder)
        own = cross_pairing_matrix([encoder], [decoder], evaluation)[0, 0]
        robust_entries = []
        for perturbed in perturbed_sets:
            stressed = train_encoder_against_reference(decoder, perturbed[: spec.num_train])
            robust_entries.append(
                cross_pairing_matrix([stressed], [decoder], perturbed[spec.num_train :])[0, 0]
            )
        robustness = float(min(robust_entries))
        flops = encoder.descriptor.flops_per_inference + decoder.descriptor.flops_per_inference
        storage = encoder.descriptor.storage_bytes + decoder.descriptor.storage_bytes
        reasons = []
        if own < criteria.sgcs_floor:
            reasons.append("sgcs_below_floor")
        if flops > criteria.flops_budget:
            reasons.append("flops_over_budget")
        if storage > criteria.storage_budget_bytes:
            reasons.append("storage_over_budget")
        if robustness < criteria.robustness_floor:
            reasons.append("robustness_below_floor")
        scores.append(
            CandidateScore(
                index=idx,
                latent_dim=cfg.latent_dim,
                bits_per_dim=cfg.bits_per_dim,
                mean_sgcs=float(own),
                flops=flops,
                storage_bytes=storage,
                robustness=robustness,
                eligible=not reasons,
                reasons=tuple(reasons),
            )
        )

    eligible = [s for s in scores if s.eligible]
    if not eligible:
        report = DerivationReport(scores=tuple(scores), selected_index=None)
        return None, report
    best = max(eligible, key=lambda s: (s.mean_sgcs, -s.index))
    report = DerivationReport(scores=tuple(scores), selected_index=best.index)
    return decoders[best.index], report
