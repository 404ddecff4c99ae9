"""Closed-loop scenario runs: output formats, determinism, loop behaviour."""

import gc
import re
import weakref

import numpy as np
import pytest

from lcmsim import channel, controller, kpi, monitoring, simulation
from lcmsim.config import parse_scenario_config
from lcmsim.errors import ConfigError
from lcmsim.models import train_predictor
from lcmsim.monitoring import evaluation_slots, report_overhead_bits
from lcmsim.simulation import (
    METRICS_HEADER,
    run_scenario,
    simulation_warmup,
    write_events,
    write_metrics,
)
from reference_loop import reference_run
from scenario_configs import CANONICAL_DRIFT, FALLBACK_DRIFT, MILD_DRIFT, QUIET_SMALL

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

    @pytest.mark.parametrize("mode", ["Type1", "Type2", "Type3"])
    def test_overhead_sum_matches_closed_form(self, mode, tmp_path):
        cfg = parse_scenario_config(
            QUIET_SMALL.replace("monitoring.mode = Type1", f"monitoring.mode = {mode}")
        )
        assert cfg.monitoring.mode.value == mode
        result = run_scenario(cfg, str(tmp_path / "registry"))
        mon = cfg.monitoring
        total = report_overhead_bits(mon.mode, cfg.num_antennas, mon.quant_bits) * len(
            evaluation_slots(cfg.num_slots, mon, simulation_warmup(cfg))
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

    def test_reused_registry_root_rejected(self, tmp_path, monkeypatch):
        # Refused by name before any work, and the registry is left as it was.
        cfg = parse_scenario_config(QUIET_SMALL)
        root = tmp_path / "registry"
        run_scenario(cfg, str(root))
        index = (root / "index.txt").read_bytes()

        def no_trace(*args):
            raise AssertionError("built a trace for a used registry")

        monkeypatch.setattr(simulation, "generate_trace", no_trace)
        with pytest.raises(ConfigError, match=re.escape(f"registry {root} already holds models")):
            run_scenario(cfg, str(root))
        assert (root / "index.txt").read_bytes() == index


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
        spec = cfg.pretrain[0]
        package = loop._train(spec.start_slot, spec.end_slot)
        assert calls == []
        # Same model as one trained on per-slot measurements of the window.
        monkeypatch.undo()
        slots = range(spec.start_slot, spec.end_slot)
        trace = loop.trace
        history = channel.CsiMeasurements(
            [
                channel.measure_csi(trace.true_precoders[t : t + 1], trace.snr_db[t : t + 1], [t], cfg.seed).precoders[0]
                for t in slots
            ],
            trace.snr_db[spec.start_slot : spec.end_slot],
        )
        reference = train_predictor(
            history,
            cfg.predictor,
            beam_powers=loop.trace.per_beam_power[spec.start_slot : spec.end_slot],
        )
        assert package.descriptor.model_id == reference.descriptor.model_id
        assert package.descriptor.payload_checksum == reference.descriptor.payload_checksum
        assert np.array_equal(package.param("taps"), reference.param("taps"))

    def test_pretraining_and_retraining_train_the_same_way(self, tmp_path, monkeypatch):
        cfg = parse_scenario_config(QUIET_SMALL)
        loop = simulation._Loop(cfg, str(tmp_path / "registry"))
        calls = []
        original = simulation.train_predictor

        def spy(history, pcfg, **kwargs):
            calls.append((history, pcfg, kwargs))
            return original(history, pcfg, **kwargs)

        monkeypatch.setattr(simulation, "train_predictor", spy)
        with loop.registry:
            loop.run()
            loop._retrain(250)
        spec = cfg.pretrain[0]
        windows = [(spec.start_slot, spec.end_slot), (max(0, 251 - loop.history_window), 251)]
        assert len(calls) == len(windows)
        for (history, pcfg, kwargs), (lo, hi) in zip(calls, windows):
            assert history.precoders.tobytes() == loop.measured[lo:hi].tobytes()
            assert pcfg is cfg.predictor
            assert set(kwargs) == {"beam_powers"}
            assert kwargs["beam_powers"].tobytes() == loop.trace.per_beam_power[lo:hi].tobytes()


class TestPretraining:
    def test_each_package_is_freed_once_stored_but_the_first(self, tmp_path, monkeypatch):
        windows = [(100, 200), (200, 300), (50, 250)]
        cfg = parse_scenario_config(QUIET_SMALL + "".join(
            f"pretrain.{i}.start_slot = {lo}\npretrain.{i}.end_slot = {hi}\n"
            for i, (lo, hi) in enumerate(windows, start=1)
        ))
        assert len(cfg.pretrain) == 4
        loop = simulation._Loop(cfg, str(tmp_path / "registry"))
        stored, alive_at_store = [], []
        original = loop.registry.store

        def store(package, stored_at_slot=0):
            gc.collect()
            alive_at_store.append([ref() is not None for ref in stored])
            stored.append(weakref.ref(package))
            return original(package, stored_at_slot)

        monkeypatch.setattr(loop.registry, "store", store)
        with loop.registry:
            loop.run()
        # Store k sees the first package and no other earlier one alive.
        for k, alive in enumerate(alive_at_store[: len(cfg.pretrain)]):
            assert alive == [True] * min(k, 1) + [False] * max(k - 1, 0)

    def test_windows_with_identical_measurements_store_one_model(self, tmp_path):
        # A frozen channel (zero Doppler, one path, no noise) measures one
        # precoder in every slot, so two different windows fit one model id.
        cfg = parse_scenario_config(FROZEN_TWO_WINDOWS)
        result = run_scenario(cfg, str(tmp_path / "registry"))
        stored = [e for e in result.events if e.kind == "ModelStored"]
        assert len(stored) == 1 and result.summary["final_state"] == "Stable"
        want = reference_run(cfg, str(tmp_path / "reference"))
        assert result.events_text() == want.events_text()
        assert result.metrics_text() == want.metrics_text()


FROZEN_TWO_WINDOWS = """
seed = 0
num_slots = 200
channel.num_antennas = 12
channel.regime.0.start_slot = 0
channel.regime.0.regime_id = frozen
channel.regime.0.num_paths = 1
channel.regime.0.doppler_norm = 0.0
pretrain.0.start_slot = 3
pretrain.0.end_slot = 18
pretrain.1.start_slot = 0
pretrain.1.end_slot = 15
predictor.order = 2
predictor.horizon_slots = 1
"""


class TestNoReferenceCycle:
    @pytest.mark.parametrize("text", [CANONICAL_DRIFT, MILD_DRIFT],
                             ids=["CANONICAL_DRIFT", "MILD_DRIFT"])
    def test_a_finished_run_frees_its_loop_without_the_collector(
        self, tmp_path, monkeypatch, text
    ):
        # A cycle through the loop (say, an ExecutionContext stored on it,
        # whose capabilities are the loop's bound methods) would keep each
        # finished run's trace and measurements alive until a full collection.
        loops = []

        class Watched(simulation._Loop):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                loops.append(weakref.ref(self))

        monkeypatch.setattr(simulation, "_Loop", Watched)
        gc.collect()
        gc.disable()
        try:
            result = run_scenario(parse_scenario_config(text), str(tmp_path / "registry"))
            alive = [ref() is not None for ref in loops]
        finally:
            gc.enable()
        assert alive == [False]
        assert result.summary["actions"]  # the run did repair through execute()


class TestDivergenceScoring:
    @pytest.mark.parametrize("text, calls", [(MILD_DRIFT, 1), (CANONICAL_DRIFT, 2)],
                             ids=["MILD_DRIFT", "CANONICAL_DRIFT"])
    def test_every_evaluation_is_scored_once_per_active_descriptor(
        self, tmp_path, monkeypatch, text, calls
    ):
        # MILD_DRIFT's DeltaUpdate keeps the descriptor, CANONICAL_DRIFT's Switch does not.
        loop = simulation._Loop(parse_scenario_config(text), str(tmp_path / "registry"))
        scored, active = [], []
        original, divergences = kpi.DescriptorRows.divergences, loop.divergences

        def spy(rows, other):
            result = original(rows, other)
            if rows is loop.descriptors:
                scored.append((other, [len(a) for a in result]))
            return result

        def loop_spy(index):
            active.append(loop.agent.active_model.descriptor.input_descriptor)
            return divergences(index)

        monkeypatch.setattr(kpi.DescriptorRows, "divergences", spy)
        monkeypatch.setattr(loop, "divergences", loop_spy)
        with loop.registry:
            result = loop.run()
        distinct = list(dict.fromkeys(id(d) for d in active))  # active holds them all
        assert len(distinct) == calls
        assert [id(other) for other, _ in scored] == distinct
        assert all(sizes == [result.summary["evaluations"]] * 2 for _, sizes in scored)


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
        pipeline = cfg.predictor.order - 1 + 2 * cfg.predictor.horizon_slots
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
        tail = result.rows[fallback_slot + cfg.predictor.horizon_slots + 1 :]
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


class TestMonitoringPath:
    @pytest.mark.parametrize("n_recover", [2, 3, 4])
    def test_kpi_recovered_after_exactly_n_recover_clean_evaluations(self, tmp_path, n_recover):
        cfg = parse_scenario_config(CANONICAL_DRIFT + f"policy.n_recover = {n_recover}\n")
        result = run_scenario(cfg, str(tmp_path / "registry"))
        gamma = cfg.monitoring.threshold_gamma
        # Replay the log: an action restarts the clean run, a breach ends it.
        state, clean, expected = "Stable", 0, []
        for event in result.events:
            payload = dict(event.payload)
            if event.kind == "StateTransition":
                state = payload["to"]
            elif event.kind == "ActionIssued":
                clean = 0
            elif event.kind == "MonitoringReport":
                clean = clean + 1 if float(payload["value"]) >= gamma else 0
                if state == "Recovering" and clean == n_recover:
                    expected.append((event.slot, str(n_recover)))
                    clean = 0
        recovered = [
            (event.slot, dict(event.payload)["streak"])
            for event in result.events
            if event.kind == "KpiRecovered"
        ]
        # The Switch at the slot-840 alarm, then one clean evaluation every 20 slots.
        assert recovered[0] == (840 + 20 * n_recover, str(n_recover))
        assert recovered == expected

    def test_type2_evaluation_computes_sgcs_once(self, tmp_path, monkeypatch):
        calls = []

        def count(owner):
            original = owner.sgcs

            def counted(*args):
                calls.append(owner.__name__)
                return original(*args)

            monkeypatch.setattr(owner, "sgcs", counted)

        for owner in (simulation, monitoring, controller):  # the traced sgcs sites
            count(owner)
        cfg = parse_scenario_config(
            QUIET_SMALL.replace("monitoring.mode = Type1", "monitoring.mode = Type2")
        )
        result = run_scenario(cfg, str(tmp_path / "registry"))
        reports = [event for event in result.events if event.kind == "MonitoringReport"]
        assert reports and all(dict(event.payload)["mode"] == "Type2" for event in reports)
        assert calls == ["lcmsim.monitoring"] * len(reports)
