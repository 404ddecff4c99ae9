"""The block-stepped loop against the per-slot reference loop, byte for byte.

Differential testing (McKeeman, "Differential Testing for Software", 1998):
the shared scenarios and generated scenario texts run through both
``run_scenario`` and ``reference_loop.reference_run``; metrics.csv and
events.log must agree on every line, and the run summaries on every value. A generated text either fails to
parse with ConfigError or runs.
"""

import tempfile

import pytest
from hypothesis import given, settings, strategies as st

import scenario_configs
from lcmsim.config import parse_scenario_config
from lcmsim.errors import ConfigError
from lcmsim.simulation import run_scenario
from reference_loop import reference_run


def assert_matches_reference(config):
    with tempfile.TemporaryDirectory() as tmp:
        got = run_scenario(config, f"{tmp}/loop")
        want = reference_run(config, f"{tmp}/reference")
    for name in ("metrics_text", "events_text"):
        lines, reference = getattr(got, name)().splitlines(), getattr(want, name)().splitlines()
        if lines != reference:
            at = next((i for i, pair in enumerate(zip(lines, reference)) if len(set(pair)) > 1),
                      min(len(lines), len(reference)))
            pytest.fail(f"{name} line {at}: loop {lines[at:at + 1]}, "
                        f"reference {reference[at:at + 1]}")
    # repr, so that a NaN mean_sgcs (a run that applied nothing) equals itself
    assert {k: repr(v) for k, v in got.summary.items()} == {
        k: repr(v) for k, v in want.summary.items()}


@pytest.mark.parametrize("name", scenario_configs.SCENARIOS)
def test_shared_scenarios_match_the_reference(name):
    assert_matches_reference(parse_scenario_config(getattr(scenario_configs, name)))


@pytest.mark.parametrize("key", ["monitoring.gt_slot_offset", "policy.min_train_samples"])
def test_a_lag_longer_than_the_run_still_runs(key):
    # 10**12 slots of lag would be a ring of 233 TiB at 16 antennas, past
    # any address space; no read reaches back past slot 0, so none is needed.
    text = scenario_configs.QUIET_SMALL + f"{key} = {10**12}\n"
    assert_matches_reference(parse_scenario_config(text))


@st.composite
def scenario_texts(draw):
    """A small scenario: regimes, SNR overrides, pretrain windows and the
    monitoring, predictor and policy keys, some of them out of range."""
    slots = draw(st.integers(200, 700))
    lines = [f"seed = {draw(st.integers(0, 2**31))}", f"num_slots = {slots}",
             f"channel.num_antennas = {draw(st.integers(8, 16))}"]
    starts = draw(st.sets(st.integers(1, slots - 1), max_size=2))
    for i, start in enumerate([0, *sorted(starts)]):
        lines += [
            f"channel.regime.{i}.start_slot = {start}",
            f"channel.regime.{i}.regime_id = r{draw(st.integers(0, 2))}",
            f"channel.regime.{i}.num_paths = {draw(st.integers(1, 6))}",
            f"channel.regime.{i}.doppler_norm = "
            f"{draw(st.sampled_from([0.0, 0.005, 0.01, 0.05, 0.15, 0.3]))}",
        ]
        snr = draw(st.sampled_from([None, "inf", "0", "10", "25"]))
        if snr is not None:
            lines.append(f"channel.regime.{i}.mean_snr_db = {snr}")
    overrides = draw(st.sets(st.integers(0, slots - 1), max_size=2))
    for i, start in enumerate(sorted(overrides)):
        lines += [f"channel.snr_override.{i}.start_slot = {start}",
                  f"channel.snr_override.{i}.mean_snr_db = "
                  f"{draw(st.sampled_from(['-5', '0', '10', '30', 'inf']))}"]
    for i in range(draw(st.integers(1, 3))):
        start = draw(st.integers(0, slots - 20))
        lines += [f"pretrain.{i}.start_slot = {start}",
                  f"pretrain.{i}.end_slot = {min(slots, start + draw(st.integers(15, 250)))}"]
    lines += [
        f"monitoring.mode = {draw(st.sampled_from(['Type1', 'Type2', 'Type3']))}",
        f"monitoring.threshold_gamma = {draw(st.sampled_from([0.5, 0.8, 0.95, 0.995]))}",
        f"monitoring.n_consec = {draw(st.integers(1, 4))}",
        f"monitoring.quant_bits = {draw(st.integers(1, 16))}",
        f"monitoring.eval_period_slots = {draw(st.sampled_from(['3', '7', '20', '40', 'inf']))}",
        f"monitoring.gt_slot_offset = "
        f"{draw(st.one_of(st.integers(0, 4), st.integers(120, 200)))}",
        f"predictor.order = {draw(st.integers(1, 8))}",
        f"predictor.horizon_slots = {draw(st.integers(1, 6))}",
        f"policy.descriptor_window_slots = {draw(st.sampled_from([2, 10, 25, 40]))}",
        f"policy.min_train_samples = {draw(st.sampled_from([16, 64, 200]))}",
        f"policy.delta_rank = {draw(st.integers(1, 8))}",
        f"policy.delta_match = {(match := draw(st.sampled_from([0.05, 0.1, 0.25])))}",
        f"policy.delta_delta = "
        f"{draw(st.sampled_from([d for d in (0.1, 0.25, 0.5) if d >= match]))}",
        f"policy.cooldown_evals = {draw(st.integers(1, 3))}",
        f"policy.n_recover = {draw(st.integers(1, 3))}",
    ]
    return "\n".join(lines) + "\n"


@settings(max_examples=25, deadline=None, derandomize=True)
@given(scenario_texts())
def test_generated_scenarios_match_the_reference(text):
    try:
        config = parse_scenario_config(text)
    except ConfigError:
        return
    assert_matches_reference(config)
