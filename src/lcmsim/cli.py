"""Command-line surface.

Exit codes: 0 success, 1 configuration or usage error, 2 runtime
failure (integrity violations, missing registry entries, I/O).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import os
import sys
from pathlib import Path

import numpy as np

from .channel import ChannelRegime, check_schedule, generate_trace, measure_csi
from .config import load_scenario_config, parse_scenario_config
from .errors import ConfigError, LcmSimError, config_checked
from .kpi import BeamKpiConfig, beam_topk_accuracy, nmse_rows, sgcs_rows
from .models import (
    AutoencoderConfig,
    CsiPredictor,
    ModelKind,
    ModelPackage,
    PredictorConfig,
    predict_beams,
    predict_csi_rows,
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

def _add_trace_args(parser: argparse.ArgumentParser, slots_default: int | None) -> None:
    parser.add_argument("--seed", type=int, default=0)
    if slots_default is not None:
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
    schedule = [(0, _regime(args))]
    config_checked(check_schedule, schedule, args.slots, args.antennas)
    return generate_trace(schedule, args.slots, args.antennas, args.seed)


def _measure_all(trace, seed: int):
    slots = np.arange(trace.num_slots)
    return measure_csi(trace.true_precoders, trace.snr_db, slots, seed)


def _load_package(path: str, kind: ModelKind | None = None, verb: str = "") -> ModelPackage:
    """The package at ``path``; with ``kind``, any other kind is a usage error."""
    package = ModelPackage.from_bytes(Path(path).read_bytes())
    if kind is not None and package.kind is not kind:
        raise ConfigError(f"{verb} expects a {kind.value}, got {package.kind.value}")
    return package


def _write_bytes(path: str, data: bytes) -> None:
    out = Path(path)
    if out.parent != Path(""):
        out.parent.mkdir(parents=True, exist_ok=True)
    out.write_bytes(data)


def _write_model(path: str, package: ModelPackage) -> int:
    _write_bytes(path, package.to_bytes())
    print(f"model_id = {package.descriptor.model_id}")
    print(f"associated_id = {package.descriptor.associated_id}")
    print(f"out = {path}")
    return 0


def _out_root(explicit: str | None) -> Path:
    if explicit:
        return Path(explicit)
    env = os.environ.get(OUT_ENV)
    return Path(env) if env else Path(".")


def _int_list(none: str | None = None):
    """An argparse ``type`` for comma-separated integers, ``none`` standing
    for None: argparse makes the ValueError of a malformed list a usage error."""
    def int_list(text: str) -> list[int | None]:
        return [None if tok == none else int(tok) for tok in text.split(",") if tok]
    return int_list


def _given(args, cls) -> dict:
    """The flags in ``args`` named after fields of ``cls``. Their parser
    defaults are suppressed, so an absent flag keeps the field's default."""
    names = [f.name for f in dataclasses.fields(cls)]
    return {name: getattr(args, name) for name in names if hasattr(args, name)}


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
    cfg = PredictorConfig(**_given(args, PredictorConfig))
    config_checked(cfg.validate)
    if args.slots < cfg.min_history:
        raise ConfigError(f"--slots must be at least {cfg.min_history} for this order and horizon")
    trace = _make_trace(args)
    package = train_predictor(_measure_all(trace, args.seed), cfg, beam_powers=trace.per_beam_power)
    _write_bytes(args.out, package.to_bytes())
    d = package.descriptor
    print(f"model_id = {d.model_id}")
    print(f"version = {d.model_version}")
    print(f"functionality_tag = {d.functionality_tag}")
    print(f"out = {args.out}")
    return 0


def _cmd_train_autoencoder(args) -> int:
    cfg = AutoencoderConfig(args.latent, args.bits, args.antennas)
    config_checked(cfg.validate)
    encoder, decoder = train_autoencoder_joint(_make_trace(args).true_precoders, cfg)
    _write_bytes(args.out_encoder, encoder.to_bytes())
    _write_bytes(args.out_decoder, decoder.to_bytes())
    print(f"associated_id = {encoder.descriptor.associated_id}")
    print(f"encoder = {args.out_encoder}")
    print(f"decoder = {args.out_decoder}")
    return 0


def _cmd_eval_sgcs(args) -> int:
    package = _load_package(args.model, ModelKind.CSI_PREDICTOR, "eval sgcs")
    cfg = predictor_config(package)
    trace = _make_trace(args)
    if args.slots < cfg.order + cfg.horizon_slots + 1:
        raise ConfigError("--slots too small for the model's order and horizon")
    measured = _measure_all(trace, args.seed).precoders
    newest = np.arange(cfg.order - 1, args.slots - cfg.horizon_slots)
    predicted = predict_csi_rows(CsiPredictor.of(package), measured, newest)
    truth = trace.true_precoders[newest + cfg.horizon_slots]
    print(f"predictions = {len(newest)}")
    print(f"mean_sgcs = {float(np.mean(sgcs_rows(predicted, truth))):.6f}")
    print(f"mean_nmse = {float(np.mean(nmse_rows(predicted, truth))):.6f}")
    return 0


def _cmd_eval_beams(args) -> int:
    # The trace flags first: they set the beam count the KPI flags are checked against.
    config_checked(check_schedule, [(0, _regime(args))], args.slots, args.antennas)
    split = args.slots // 2
    cfg = BeamKpiConfig(top_k=args.top_k, top_m=args.top_m, window_n=args.slots - split)
    config_checked(cfg.validate, args.antennas)
    rows = _make_trace(args).per_beam_power
    if args.model:
        package = _load_package(args.model, ModelKind.BEAM_PREDICTOR, "eval beams")
    else:
        package = train_beam_predictor(rows[:split], args.subset, rows.shape[1])
    model_subset = [int(s) for s in package.extra["beam_subset"].split(",")]
    history = [
        (predict_beams(package, rows[t][model_subset]), rows[t])
        for t in range(split, rows.shape[0])
    ]
    accuracy = beam_topk_accuracy(history, cfg)
    print(f"intervals = {len(history)}")
    print(f"top{args.top_k}_accuracy = {accuracy:.6f}")
    return 0


def _cmd_registry_list(args) -> int:
    with ModelRegistry(args.root) as registry:
        entries = registry.entries()
        for e in entries:
            print(
                f"{e.model_id} v{e.version} kind={e.kind} tag={e.functionality_tag} "
                f"status={e.status} stored_at={e.stored_at_slot}"
            )
        print(f"total = {len(entries)}")
    return 0


def _cmd_registry_add(args) -> int:
    with ModelRegistry(args.root) as registry:
        model_id, version = registry.store(_load_package(args.package), stored_at_slot=args.slot)
        print(f"stored {model_id} v{version}")
    return 0


def _cmd_registry_verify(args) -> int:
    with ModelRegistry(args.root) as registry:
        report = registry.verify_all()
        bad = 0
        for model_id, version, status in report:
            print(f"{model_id} v{version} {status}")
            bad += status != "ok"
        print(f"checked = {len(report)}, corrupt = {bad}")
    return 2 if bad else 0


def _cmd_registry_gc(args) -> int:
    with ModelRegistry(args.root) as registry:
        removed = registry.gc()
        for model_id, version in removed:
            print(f"removed {model_id} v{version}")
        print(f"collected = {len(removed)}")
    return 0


# The intervendor verbs import lcmsim.intervendor when run, so other commands skip it.

def _cmd_export_dataset(args) -> int:
    from .intervendor import export_dataset
    encoder = _load_package(args.encoder)
    trace = _make_trace(args)
    dataset = export_dataset(encoder, trace.true_precoders, args.vendor_index)
    _write_bytes(args.out, dataset.to_bytes())
    print(f"samples = {dataset.targets.shape[0]}")
    print(f"associated_id = {dataset.associated_id}")
    print(f"out = {args.out}")
    return 0


def _cmd_train_decoder(args) -> int:
    """train-decoder and multivendor: ``args.trainer`` names the trainer."""
    from . import intervendor as iv
    datasets = [iv.CsiDataset.from_bytes(Path(p).read_bytes()) for p in args.dataset]
    return _write_model(args.out, getattr(iv, args.trainer)(datasets))


def _cmd_train_encoder(args) -> int:
    from .intervendor import train_encoder_against_reference
    decoder = _load_package(args.decoder)
    trace = _make_trace(args)
    return _write_model(args.out, train_encoder_against_reference(decoder, trace.true_precoders))


def _cmd_crosspair(args) -> int:
    from .intervendor import cross_pairing_matrix
    encoders = [_load_package(p, ModelKind.CSI_ENCODER, "crosspair") for p in args.encoder]
    decoders = [_load_package(p, ModelKind.CSI_DECODER, "crosspair") for p in args.decoder]
    indices = args.vendor_indices or None
    if indices and len(indices) != len(decoders):
        raise ConfigError("--vendor-indices must list one entry per decoder")
    trace = _make_trace(args)
    grid = cross_pairing_matrix(encoders, decoders, trace.true_precoders, indices)
    print("encoder\\decoder," + ",".join(str(j) for j in range(len(decoders))))
    for i in range(len(encoders)):
        cells = ",".join(
            "nan" if math.isnan(grid[i, j]) else f"{grid[i, j]:.6f}"
            for j in range(len(decoders))
        )
        print(f"{i},{cells}")
    return 0


def _cmd_derive_reference(args) -> int:
    from . import intervendor as iv
    if len(args.latents) != len(args.bits):
        raise ConfigError("--latents and --bits must have the same length")
    if not args.latents:
        raise ConfigError("need at least one candidate")
    candidates = [AutoencoderConfig(l, b, args.antennas) for l, b in zip(args.latents, args.bits)]
    spec = iv.DerivationSpec(_regime(args), args.antennas, **_given(args, iv.DerivationSpec))
    criteria = iv.EvalCriteria(**_given(args, iv.EvalCriteria))
    for cfg in (spec, criteria, *candidates):
        config_checked(cfg.validate)
    reference, report = iv.derive_reference_model(candidates, spec, criteria, args.seed)
    sys.stdout.write(report.to_text())
    if args.out_csv:
        _write_bytes(args.out_csv, report.to_csv().encode("utf-8"))
        print(f"scores_csv = {args.out_csv}")
    if args.out_model:
        if reference is None:
            print("no model written (no reference selected)")
        else:
            _write_bytes(args.out_model, reference.to_bytes())
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
    p.add_argument("--order", type=int, default=argparse.SUPPRESS)
    p.add_argument("--horizon", dest="horizon_slots", type=int, default=argparse.SUPPRESS)
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
    p.add_argument("--subset", type=_int_list(), default="0,4,8,12",
                   help="measured beam indices")
    p.add_argument("--top-k", type=int, default=4)
    p.add_argument("--top-m", type=int, default=1)
    p.set_defaults(func=_cmd_eval_beams)

    reg = sub.add_parser("registry", help="inspect or edit a model store")
    reg.add_argument("--root", required=True)
    reg_sub = reg.add_subparsers(dest="registry_cmd", required=True, metavar="verb")
    reg_sub.add_parser("list").set_defaults(func=_cmd_registry_list)
    p = reg_sub.add_parser("add")
    p.add_argument("--package", required=True)
    p.add_argument("--slot", type=int, default=0)
    p.set_defaults(func=_cmd_registry_add)
    reg_sub.add_parser("verify").set_defaults(func=_cmd_registry_verify)
    reg_sub.add_parser("gc").set_defaults(func=_cmd_registry_gc)

    iv = sub.add_parser("intervendor", help="two-sided collaboration flows")
    iv_sub = iv.add_subparsers(dest="iv_cmd", required=True, metavar="verb")
    p = iv_sub.add_parser("export-dataset")
    p.add_argument("--encoder", required=True)
    _add_trace_args(p, slots_default=1024)
    p.add_argument("--vendor-index", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_export_dataset)
    for verb, trainer in (("train-decoder", "train_decoder_from_dataset"),
                          ("multivendor", "train_multivendor_decoder")):
        p = iv_sub.add_parser(verb)
        p.add_argument("--dataset", action="append", required=True)
        p.add_argument("--out", required=True)
        p.set_defaults(func=_cmd_train_decoder, trainer=trainer)
    p = iv_sub.add_parser("train-encoder")
    p.add_argument("--decoder", required=True)
    _add_trace_args(p, slots_default=1024)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train_encoder)
    p = iv_sub.add_parser("crosspair")
    p.add_argument("--encoder", action="append", required=True)
    p.add_argument("--decoder", action="append", required=True)
    p.add_argument("--vendor-indices", type=_int_list(none="-"),
                   help="per-decoder index, '-' for none")
    _add_trace_args(p, slots_default=256)
    p.set_defaults(func=_cmd_crosspair)
    p = iv_sub.add_parser("derive-reference")
    p.add_argument("--latents", type=_int_list(), required=True,
                   help="comma-separated latent dims")
    p.add_argument("--bits", type=_int_list(), required=True, help="comma-separated bit widths")
    _add_trace_args(p, slots_default=None)  # the split sizes set the sample counts
    # Spec and criteria flags default to the fields of DerivationSpec and EvalCriteria.
    p.add_argument("--train-samples", dest="num_train", type=int, default=argparse.SUPPRESS)
    p.add_argument("--eval-samples", dest="num_eval", type=int, default=argparse.SUPPRESS)
    p.add_argument("--sgcs-floor", type=float, default=argparse.SUPPRESS)
    p.add_argument("--flops-budget", type=int, default=argparse.SUPPRESS)
    p.add_argument("--storage-budget", dest="storage_budget_bytes", type=int,
                   default=argparse.SUPPRESS)
    p.add_argument("--robustness-floor", type=float, default=argparse.SUPPRESS)
    p.add_argument("--out-csv")
    p.add_argument("--out-model")
    p.set_defaults(func=_cmd_derive_reference)

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


if __name__ == "__main__":
    raise SystemExit(main())
