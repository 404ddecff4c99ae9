"""Closed-loop scenario runs: output formats, determinism, loop behaviour."""

import re

import numpy as np
import pytest

from lcmsim import channel, controller, simulation
from lcmsim.config import parse_scenario_config
from lcmsim.errors import IntegrityError
from lcmsim.models import PredictorConfig, train_predictor
from lcmsim.monitoring import monitoring_overhead
from lcmsim.simulation import (
    METRICS_HEADER,
    run_scenario,
    simulation_warmup,
    write_events,
    write_metrics,
)
from scenario_configs import FALLBACK_DRIFT, QUIET_SMALL

EVENT_LINE = re.compile(r"^slot=\d+ source=\w+ kind=\w+( \S+=\S+)*$")


@pytest.fixture(scope="module")
def quiet_run(tmp_path_factory):
    cfg = parse_scenario_config(QUIET_SMALL)
    root = tmp_path_factory.mktemp("quiet") / "registry"
    return cfg, run_scenario(cfg, str(root))


@pytest.fixture(scope="module")
def fallback_run(tmp_path_factory):
    cfg = parse_scenario_config(FALLBACK_DRIFT)
    root = tmp_path_factory.mktemp("fb") / "registry"
    return cfg, run_scenario(cfg, str(root))


class TestMetricsFormat:
    def test_header_and_row_count(self, quiet_run):
        cfg, result = quiet_run
        lines = result.metrics_text().splitlines()
        assert lines[0] == METRICS_HEADER
        assert len(lines) == 1 + cfg.num_slots
        assert [int(line.split(",", 1)[0]) for line in lines[1:]] == list(
            range(cfg.num_slots)
        )

    def test_every_row_has_all_columns(self, quiet_run):
        _, result = quiet_run
        width = len(METRICS_HEADER.split(","))
        for line in result.metrics_text().splitlines()[1:]:
            assert len(line.split(",")) == width

    def test_columns_parse_as_declared_types(self, quiet_run):
        _, result = quiet_run
        for row in result.rows:
            if row.sgcs:
                assert 0.0 <= float(row.sgcs) <= 1.0 + 1e-12
            if row.nmse:
                assert float(row.nmse) >= 0.0
            if row.perf_bad:
                assert row.perf_bad in ("0", "1")
            if row.active_model_version:
                assert int(row.active_model_version) >= 1
            if row.monitor_overhead_bits:
                assert int(row.monitor_overhead_bits) >= 1
            assert row.loop_state in (
                "Stable", "Degraded", "Recovering", "Fallback",
            )

    def test_monitor_fields_empty_before_warmup(self, quiet_run):
        cfg, result = quiet_run
        warmup = simulation_warmup(cfg)
        for row in result.rows[:warmup]:
            assert row.perf_bad == ""
            assert row.descriptor_divergence == ""
            assert row.monitor_overhead_bits == ""

    def test_overhead_sum_matches_closed_form(self, quiet_run):
        cfg, result = quiet_run
        total, _ = monitoring_overhead(
            cfg.num_slots, cfg.monitoring, cfg.num_antennas, simulation_warmup(cfg)
        )
        seen = sum(
            int(row.monitor_overhead_bits)
            for row in result.rows
            if row.monitor_overhead_bits
        )
        assert seen == total == result.summary["monitor_overhead_bits"]

    def test_writers_round_trip_bytes(self, quiet_run, tmp_path):
        _, result = quiet_run
        mpath = tmp_path / "metrics.csv"
        epath = tmp_path / "events.log"
        write_metrics(result, str(mpath))
        write_events(result, str(epath))
        assert mpath.read_text(encoding="utf-8") == result.metrics_text()
        assert epath.read_text(encoding="utf-8") == result.events_text()


class TestEventLog:
    def test_line_grammar_and_no_whitespace_values(self, quiet_run):
        _, result = quiet_run
        for line in result.events_text().splitlines():
            assert EVENT_LINE.match(line), line

    def test_slots_non_decreasing(self, quiet_run):
        _, result = quiet_run
        slots = [event.slot for event in result.events]
        assert slots == sorted(slots)

    def test_pretrained_models_announced_before_anything_else(self, quiet_run):
        cfg, result = quiet_run
        kinds = [event.kind for event in result.events]
        assert kinds[: len(cfg.pretrain)] == ["ModelStored"] * len(cfg.pretrain)
        assert kinds[len(cfg.pretrain)] == "ModelActivated"

    def test_alarm_precedes_action_at_same_slot(self, fallback_run):
        _, result = fallback_run
        kinds_by_slot = {}
        for event in result.events:
            kinds_by_slot.setdefault(event.slot, []).append(event.kind)
        for kinds in kinds_by_slot.values():
            if "DriftAlarm" in kinds and "ActionIssued" in kinds:
                assert kinds.index("DriftAlarm") < kinds.index("ActionIssued")


class TestDeterminism:
    def test_same_config_same_bytes(self, tmp_path):
        cfg = parse_scenario_config(QUIET_SMALL)
        a = run_scenario(cfg, str(tmp_path / "ra"))
        b = run_scenario(parse_scenario_config(QUIET_SMALL), str(tmp_path / "rb"))
        assert a.metrics_text() == b.metrics_text()
        assert a.events_text() == b.events_text()
        assert a.summary == b.summary

    def test_reused_registry_root_rejected(self, tmp_path):
        cfg = parse_scenario_config(QUIET_SMALL)
        root = str(tmp_path / "registry")
        run_scenario(cfg, root)
        with pytest.raises(IntegrityError, match="already stored"):
            run_scenario(cfg, root)


class TestMeasureOnce:
    def counting(self, monkeypatch, owner, name, log):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            log.append((name, args))
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    def test_run_measures_all_slots_in_one_call(self, tmp_path, monkeypatch):
        calls = []
        self.counting(monkeypatch, simulation, "measure_csi", calls)
        self.counting(monkeypatch, channel, "substream", calls)
        cfg = parse_scenario_config(FALLBACK_DRIFT)
        run_scenario(cfg, str(tmp_path / "registry"))
        stacked = [args for name, args in calls if name == "measure_csi"]
        assert len(stacked) == 1
        assert stacked[0][0].shape == (cfg.num_slots, cfg.num_antennas)
        # Per-slot streams come from the batched kernel, never substream().
        assert {args[1] for name, args in calls if name == "substream"} <= {
            "chan.angles.urban-a", "chan.angles.urban-b",
            "chan.rates.urban-a", "chan.rates.urban-b",
        }

    def test_run_builds_the_legacy_beams_once(self, tmp_path, monkeypatch):
        calls = []
        self.counting(monkeypatch, simulation, "legacy_beams", calls)
        self.counting(monkeypatch, controller, "legacy_beams", calls)
        self.counting(monkeypatch, simulation, "legacy_csi_reports", calls)
        loop = simulation._Loop(parse_scenario_config(FALLBACK_DRIFT), str(tmp_path / "registry"))
        result = loop.run()
        assert [name for name, _ in calls].count("legacy_beams") == 1
        # Every fallback slot is reported, once and in order, with the rows
        # the run built.
        fallback_slot = next(
            event.slot for event in result.events
            if event.kind == "ActionIssued" and dict(event.payload)["action"] == "Fallback"
        )
        reports = [args for name, args in calls if name == "legacy_csi_reports"]
        assert reports and all(args[1] is loop.beams for args in reports)
        reported = np.concatenate([args[0] for args in reports])
        assert len(reported) > 100
        assert reported.tobytes() == loop.measured[fallback_slot + 1 :].tobytes()

    def test_pretraining_slices_the_run_measurements(self, tmp_path, monkeypatch):
        cfg = parse_scenario_config(QUIET_SMALL)
        loop = simulation._Loop(cfg, str(tmp_path / "registry"))
        calls = []
        self.counting(monkeypatch, simulation, "measure_csi", calls)
        self.counting(monkeypatch, channel, "measure_csi", calls)
        self.counting(monkeypatch, channel, "substream_normals", calls)
        (package,) = simulation._pretrain_models(cfg, loop.trace, loop.measurements, loop.registry)
        assert calls == []
        # Same model as one trained on per-slot measurements of the window.
        spec = cfg.pretrain[0]
        monkeypatch.undo()
        slots = range(spec.start_slot, spec.end_slot)
        trace = loop.trace
        history = channel.CsiMeasurements(
            slots,
            [
                channel.measure_csi(trace.true_precoders[t : t + 1], trace.snr_db[t : t + 1], [t], cfg.seed).precoders[0]
                for t in slots
            ],
            trace.snr_db[spec.start_slot : spec.end_slot],
        )
        reference = train_predictor(
            history,
            PredictorConfig(cfg.predictor_order, cfg.predictor_horizon),
            codebook=loop.codebook,
            beam_powers=loop.trace.per_beam_power[spec.start_slot : spec.end_slot],
        )
        assert package.descriptor.model_id == reference.descriptor.model_id
        assert package.descriptor.payload_checksum == reference.descriptor.payload_checksum
        assert np.array_equal(package.param("taps"), reference.param("taps"))


class TestQuietLoop:
    def test_stays_stable_with_no_actions(self, quiet_run):
        _, result = quiet_run
        assert result.summary["final_state"] == "Stable"
        assert result.summary["alarms"] == 0
        assert result.summary["actions"] == {}
        assert all(row.loop_state == "Stable" for row in result.rows)

    def test_monitoring_disabled_means_no_reports(self, tmp_path):
        text = QUIET_SMALL.replace(
            "monitoring.eval_period_slots = 20", "monitoring.eval_period_slots = inf"
        )
        cfg = parse_scenario_config(text)
        result = run_scenario(cfg, str(tmp_path / "registry"))
        assert result.summary["evaluations"] == 0
        assert result.summary["monitor_overhead_bits"] == 0
        kinds = {event.kind for event in result.events}
        assert "MonitoringReport" not in kinds
        assert all(row.perf_bad == "" for row in result.rows)

    def test_prediction_quality_reported(self, quiet_run):
        cfg, result = quiet_run
        filled = [float(row.sgcs) for row in result.rows if row.sgcs]
        # Predictions land from the first full pipeline onward.
        pipeline = cfg.predictor_order - 1 + 2 * cfg.predictor_horizon
        assert len(filled) >= cfg.num_slots - pipeline - 1
        assert sum(filled) / len(filled) > 0.9


class TestFallbackLoop:
    def test_unmatched_shift_ends_in_fallback(self, fallback_run):
        _, result = fallback_run
        assert result.summary["actions"].get("Fallback") == 1
        assert result.summary["final_state"] == "Fallback"
        transitions = [
            dict(event.payload)
            for event in result.events
            if event.kind == "StateTransition"
        ]
        assert {"frm": "Degraded", "to": "Fallback", "on": "ActionIssued"} in transitions

    def test_legacy_route_keeps_reporting(self, fallback_run):
        cfg, result = fallback_run
        fallback_slot = next(
            event.slot for event in result.events if event.kind == "StateTransition"
            and dict(event.payload)["to"] == "Fallback"
        )
        tail = result.rows[fallback_slot + cfg.predictor_horizon + 1 :]
        assert all(row.sgcs for row in tail)
        assert all(row.loop_state == "Fallback" for row in tail)

    def test_no_model_route_while_fallen_back(self, fallback_run):
        cfg, result = fallback_run
        fallback_slot = next(
            event.slot for event in result.events
            if event.kind == "ActionIssued" and dict(event.payload)["action"] == "Fallback"
        )
        # Pending model predictions are discarded on fallback, so no
        # model-attributed monitoring happens afterwards.
        for event in result.events:
            if event.kind == "MonitoringReport":
                assert event.slot <= fallback_slot
