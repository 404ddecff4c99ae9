"""Command-line surface.

Exit codes: 0 success, 1 configuration or usage error, 2 runtime
failure (integrity violations, missing registry entries, I/O).
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from pathlib import Path

import numpy as np

from .channel import ChannelRegime, dft_codebook, generate_trace, measure_csi
from .config import load_scenario_config, parse_scenario_config
from .errors import ConfigError, LcmSimError
from .kpi import BeamKpiConfig, beam_topk_accuracy, nmse, sgcs
from .models import (
    AutoencoderConfig,
    CsiPredictor,
    ModelKind,
    ModelPackage,
    PredictorConfig,
    predict_beams,
    predict_csi,
    predictor_config,
    train_autoencoder_joint,
    train_beam_predictor,
    train_predictor,
)
from .registry import ModelRegistry
from .simulation import run_scenario, write_events, write_metrics

OUT_ENV = "LCM_SIM_OUT"


class _Parser(argparse.ArgumentParser):
    """Argument errors are usage errors: print usage, exit 1 (not 2)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


# --------------------------------------------------------------------------
# shared helpers

def _add_trace_args(parser: argparse.ArgumentParser, slots_default: int) -> None:
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--slots", type=int, default=slots_default,
                        help="trace length (also the sample count)")
    parser.add_argument("--antennas", type=int, default=32)
    parser.add_argument("--doppler", type=float, default=0.05)
    parser.add_argument("--paths", type=int, default=6)
    parser.add_argument("--angle-spread", type=float, default=0.9)
    parser.add_argument("--snr-db", type=float, default=math.inf)
    parser.add_argument("--regime-id", default="cli-regime")


def _regime(args) -> ChannelRegime:
    return ChannelRegime(
        regime_id=args.regime_id,
        num_paths=args.paths,
        doppler_norm=args.doppler,
        angle_spread=args.angle_spread,
        mean_snr_db=args.snr_db,
    )


def _make_trace(args):
    codebook = dft_codebook(args.antennas)
    return generate_trace([(0, _regime(args))], args.slots, args.antennas, codebook, args.seed)


def _measure_all(trace, seed: int):
    slots = np.arange(trace.num_slots)
    return measure_csi(trace.true_precoders, trace.snr_db, slots, seed)


def _load_package(path: str) -> ModelPackage:
    return ModelPackage.from_bytes(Path(path).read_bytes())


def _write_bytes(path: str, data: bytes) -> None:
    out = Path(path)
    if out.parent != Path(""):
        out.parent.mkdir(parents=True, exist_ok=True)
    out.write_bytes(data)


def _out_root(explicit: str | None) -> Path:
    if explicit:
        return Path(explicit)
    env = os.environ.get(OUT_ENV)
    return Path(env) if env else Path(".")


def _override_key(text: str, key: str, value: str) -> str:
    """Drop existing assignments to ``key`` and append the new one."""
    kept = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line and "=" in line and line.split("=", 1)[0].strip() == key:
            continue
        kept.append(raw)
    return "\n".join(kept) + f"\n{key} = {value}\n"


# --------------------------------------------------------------------------
# subcommands

def _run_into(config, out: Path):
    """Run one scenario with its registry and outputs under ``out``."""
    out.mkdir(parents=True, exist_ok=True)
    result = run_scenario(config, str(out / config.registry_path))
    write_metrics(result, str(out / config.metrics_path))
    write_events(result, str(out / config.events_path))
    return result


def _cmd_simulate(args) -> int:
    config = load_scenario_config(args.config)
    out = _out_root(args.out)
    result = _run_into(config, out)
    for key, value in result.summary.items():
        print(f"{key} = {value}")
    print(f"metrics = {out / config.metrics_path}")
    print(f"events = {out / config.events_path}")
    return 0


def _cmd_sweep(args) -> int:
    values = [v for v in args.values.split(",") if v]
    if not values:
        raise ConfigError("--values expects a comma-separated list")
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {args.config!r}: {exc.strerror}")
    root = _out_root(args.out)
    print(f"sweep {args.param} over {', '.join(values)}")
    for value in values:
        config = parse_scenario_config(_override_key(text, args.param, value))
        s = _run_into(config, root / f"{args.param}-{value}").summary
        print(
            f"{args.param}={value} evaluations={s['evaluations']} "
            f"overhead_bits={s['monitor_overhead_bits']} "
            f"mean_sgcs={s['mean_sgcs']:.6f} final_state={s['final_state']}"
        )
    return 0


def _cmd_train_predictor(args) -> int:
    trace = _make_trace(args)
    package = train_predictor(
        _measure_all(trace, args.seed),
        PredictorConfig(args.order, args.horizon),
        codebook=trace.beam_codebook,
        beam_powers=trace.per_beam_power,
    )
    _write_bytes(args.out, package.to_bytes())
    d = package.descriptor
    print(f"model_id = {d.model_id}")
    print(f"version = {d.model_version}")
    print(f"functionality_tag = {d.functionality_tag}")
    print(f"out = {args.out}")
    return 0


def _cmd_train_autoencoder(args) -> int:
    trace = _make_trace(args)
    targets = trace.true_precoders
    encoder, decoder = train_autoencoder_joint(
        targets, AutoencoderConfig(args.latent, args.bits, args.antennas)
    )
    _write_bytes(args.out_encoder, encoder.to_bytes())
    _write_bytes(args.out_decoder, decoder.to_bytes())
    print(f"associated_id = {encoder.descriptor.associated_id}")
    print(f"encoder = {args.out_encoder}")
    print(f"decoder = {args.out_decoder}")
    return 0


def _cmd_eval_sgcs(args) -> int:
    package = _load_package(args.model)
    if package.kind is not ModelKind.CSI_PREDICTOR:
        raise ConfigError(f"eval sgcs expects a csi_predictor, got {package.kind.value}")
    cfg = predictor_config(package)
    trace = _make_trace(args)
    if args.slots < cfg.order + cfg.horizon_slots + 1:
        raise ConfigError("--slots too small for the model's order and horizon")
    measured = _measure_all(trace, args.seed).precoders
    predictor = CsiPredictor.of(package)
    scores, errors = [], []
    for t in range(cfg.order - 1, args.slots - cfg.horizon_slots):
        predicted = predict_csi(predictor, measured[t + 1 - cfg.order : t + 1])
        truth = trace.true_precoders[t + cfg.horizon_slots]
        scores.append(sgcs(predicted, truth))
        errors.append(nmse(predicted, truth))
    print(f"predictions = {len(scores)}")
    print(f"mean_sgcs = {float(np.mean(scores)):.6f}")
    print(f"mean_nmse = {float(np.mean(errors)):.6f}")
    return 0


def _cmd_eval_beams(args) -> int:
    trace = _make_trace(args)
    rows = trace.per_beam_power
    subset = [int(s) for s in args.subset.split(",") if s]
    split = rows.shape[0] // 2
    if args.model:
        package = _load_package(args.model)
    else:
        package = train_beam_predictor(rows[:split], subset, rows.shape[1])
    model_subset = [int(s) for s in package.extra["beam_subset"].split(",")]
    history = [
        (predict_beams(package, rows[t][model_subset]), rows[t])
        for t in range(split, rows.shape[0])
    ]
    cfg = BeamKpiConfig(top_k=args.top_k, top_m=args.top_m, window_n=len(history))
    accuracy = beam_topk_accuracy(history, cfg)
    print(f"intervals = {len(history)}")
    print(f"top{args.top_k}_accuracy = {accuracy:.6f}")
    return 0


def _cmd_registry(args) -> int:
    registry = ModelRegistry(args.root)
    if args.registry_cmd == "list":
        entries = registry.entries()
        for e in entries:
            print(
                f"{e.model_id} v{e.version} kind={e.kind} tag={e.functionality_tag} "
                f"status={e.status} stored_at={e.stored_at_slot}"
            )
        print(f"total = {len(entries)}")
        return 0
    if args.registry_cmd == "add":
        package = _load_package(args.package)
        model_id, version = registry.store(package, stored_at_slot=args.slot)
        print(f"stored {model_id} v{version}")
        return 0
    if args.registry_cmd == "verify":
        report = registry.verify_all()
        bad = 0
        for model_id, version, status in report:
            print(f"{model_id} v{version} {status}")
            bad += status != "ok"
        print(f"checked = {len(report)}, corrupt = {bad}")
        return 2 if bad else 0
    removed = registry.gc()
    for model_id, version in removed:
        print(f"removed {model_id} v{version}")
    print(f"collected = {len(removed)}")
    return 0


def _cmd_intervendor(args) -> int:
    from . import intervendor as iv  # here, its only user: other commands skip the import

    if args.iv_cmd == "export-dataset":
        encoder = _load_package(args.encoder)
        trace = _make_trace(args)
        dataset = iv.export_dataset(encoder, trace.true_precoders, args.vendor_index)
        _write_bytes(args.out, dataset.to_bytes())
        print(f"samples = {dataset.targets.shape[0]}")
        print(f"associated_id = {dataset.associated_id}")
        print(f"out = {args.out}")
        return 0

    if args.iv_cmd in ("train-decoder", "multivendor"):
        datasets = [iv.CsiDataset.from_bytes(Path(p).read_bytes()) for p in args.dataset]
        if args.iv_cmd == "train-decoder":
            decoder = iv.train_decoder_from_dataset(
                datasets if len(datasets) > 1 else datasets[0]
            )
        else:
            decoder = iv.train_multivendor_decoder(datasets)
        _write_bytes(args.out, decoder.to_bytes())
        d = decoder.descriptor
        print(f"model_id = {d.model_id}")
        print(f"associated_id = {d.associated_id}")
        print(f"out = {args.out}")
        return 0

    if args.iv_cmd == "train-encoder":
        decoder = _load_package(args.decoder)
        trace = _make_trace(args)
        encoder = iv.train_encoder_against_reference(decoder, trace.true_precoders)
        _write_bytes(args.out, encoder.to_bytes())
        d = encoder.descriptor
        print(f"model_id = {d.model_id}")
        print(f"associated_id = {d.associated_id}")
        print(f"out = {args.out}")
        return 0

    if args.iv_cmd == "crosspair":
        encoders = [_load_package(p) for p in args.encoder]
        decoders = [_load_package(p) for p in args.decoder]
        indices = None
        if args.vendor_indices:
            indices = [
                None if tok == "-" else int(tok)
                for tok in args.vendor_indices.split(",")
            ]
            if len(indices) != len(decoders):
                raise ConfigError("--vendor-indices must list one entry per decoder")
        trace = _make_trace(args)
        grid = iv.cross_pairing_matrix(encoders, decoders, trace.true_precoders, indices)
        print("encoder\\decoder," + ",".join(str(j) for j in range(len(decoders))))
        for i in range(len(encoders)):
            cells = ",".join(
                "nan" if math.isnan(grid[i, j]) else f"{grid[i, j]:.6f}"
                for j in range(len(decoders))
            )
            print(f"{i},{cells}")
        return 0

    # derive-reference
    latents = [int(tok) for tok in args.latents.split(",") if tok]
    bits = [int(tok) for tok in args.bits.split(",") if tok]
    if len(latents) != len(bits):
        raise ConfigError("--latents and --bits must have the same length")
    if not latents:
        raise ConfigError("need at least one candidate")
    candidates = [AutoencoderConfig(l, b, args.antennas) for l, b in zip(latents, bits)]
    spec = iv.DerivationSpec(
        regime=_regime(args),
        num_antennas=args.antennas,
        num_train=args.train_samples,
        num_eval=args.eval_samples,
    )
    criteria = iv.EvalCriteria(
        sgcs_floor=args.sgcs_floor,
        flops_budget=args.flops_budget,
        storage_budget_bytes=args.storage_budget,
        robustness_floor=args.robustness_floor,
    )
    artifact, report = iv.derive_reference_model(candidates, spec, criteria, args.seed)
    sys.stdout.write(report.to_text())
    if args.out_csv:
        _write_bytes(args.out_csv, report.to_csv().encode("utf-8"))
        print(f"scores_csv = {args.out_csv}")
    if args.out_model:
        if artifact is None:
            print("no model written (no reference selected)")
        else:
            _write_bytes(args.out_model, artifact.payload.to_bytes())
            print(f"reference_model = {args.out_model}")
    return 0


# --------------------------------------------------------------------------
# parser assembly

@functools.cache  # one tree per process: building it costs milliseconds per main() call
def build_parser() -> _Parser:
    parser = _Parser(prog="lcmsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("simulate", parents=[], help="run one scenario config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", help=f"output directory (default ${OUT_ENV} or '.')")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", help="rerun a scenario varying one config key")
    p.add_argument("--config", required=True)
    p.add_argument("--param", required=True, help="config key to vary")
    p.add_argument("--values", required=True, help="comma-separated values")
    p.add_argument("--out", help=f"output root (default ${OUT_ENV} or '.')")
    p.set_defaults(func=_cmd_sweep)

    train = sub.add_parser("train", help="train a model outside the loop")
    train_sub = train.add_subparsers(dest="train_cmd", required=True, metavar="kind")
    p = train_sub.add_parser("predictor")
    _add_trace_args(p, slots_default=400)
    p.add_argument("--order", type=int, default=8)
    p.add_argument("--horizon", type=int, default=4)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train_predictor)
    p = train_sub.add_parser("autoencoder")
    _add_trace_args(p, slots_default=1024)
    p.add_argument("--latent", type=int, default=8)
    p.add_argument("--bits", type=int, default=0)
    p.add_argument("--out-encoder", required=True)
    p.add_argument("--out-decoder", required=True)
    p.set_defaults(func=_cmd_train_autoencoder)

    ev = sub.add_parser("eval", help="evaluate a model on a fresh trace")
    ev_sub = ev.add_subparsers(dest="eval_cmd", required=True, metavar="metric")
    p = ev_sub.add_parser("sgcs")
    p.add_argument("--model", required=True)
    _add_trace_args(p, slots_default=400)
    p.set_defaults(func=_cmd_eval_sgcs)
    p = ev_sub.add_parser("beams")
    p.add_argument("--model", help="beam predictor package; trained on the fly if omitted")
    _add_trace_args(p, slots_default=400)
    p.add_argument("--subset", default="0,4,8,12", help="measured beam indices")
    p.add_argument("--top-k", type=int, default=4)
    p.add_argument("--top-m", type=int, default=1)
    p.set_defaults(func=_cmd_eval_beams)

    reg = sub.add_parser("registry", help="inspect or edit a model store")
    reg.add_argument("--root", required=True)
    reg_sub = reg.add_subparsers(dest="registry_cmd", required=True, metavar="verb")
    reg_sub.add_parser("list")
    p = reg_sub.add_parser("add")
    p.add_argument("--package", required=True)
    p.add_argument("--slot", type=int, default=0)
    reg_sub.add_parser("verify")
    reg_sub.add_parser("gc")
    reg.set_defaults(func=_cmd_registry)

    iv = sub.add_parser("intervendor", help="two-sided collaboration flows")
    iv_sub = iv.add_subparsers(dest="iv_cmd", required=True, metavar="verb")
    p = iv_sub.add_parser("export-dataset")
    p.add_argument("--encoder", required=True)
    _add_trace_args(p, slots_default=1024)
    p.add_argument("--vendor-index", type=int, default=None)
    p.add_argument("--out", required=True)
    p = iv_sub.add_parser("train-decoder")
    p.add_argument("--dataset", action="append", required=True)
    p.add_argument("--out", required=True)
    p = iv_sub.add_parser("train-encoder")
    p.add_argument("--decoder", required=True)
    _add_trace_args(p, slots_default=1024)
    p.add_argument("--out", required=True)
    p = iv_sub.add_parser("multivendor")
    p.add_argument("--dataset", action="append", required=True)
    p.add_argument("--out", required=True)
    p = iv_sub.add_parser("crosspair")
    p.add_argument("--encoder", action="append", required=True)
    p.add_argument("--decoder", action="append", required=True)
    p.add_argument("--vendor-indices", help="per-decoder index, '-' for none")
    _add_trace_args(p, slots_default=256)
    p = iv_sub.add_parser("derive-reference")
    p.add_argument("--latents", required=True, help="comma-separated latent dims")
    p.add_argument("--bits", required=True, help="comma-separated bit widths")
    _add_trace_args(p, slots_default=0)
    p.add_argument("--train-samples", type=int, default=1024)
    p.add_argument("--eval-samples", type=int, default=256)
    p.add_argument("--sgcs-floor", type=float, default=0.7)
    p.add_argument("--flops-budget", type=int, default=10**9)
    p.add_argument("--storage-budget", type=int, default=10**9)
    p.add_argument("--robustness-floor", type=float, default=0.5)
    p.add_argument("--out-csv")
    p.add_argument("--out-model")
    iv.set_defaults(func=_cmd_intervendor)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (LcmSimError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
