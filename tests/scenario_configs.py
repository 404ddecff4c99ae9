"""Canonical scenario config texts shared by the behavioural tests.

Each constant is a complete config file body; tests parse them with
``parse_scenario_config`` and run them against a fresh registry root.
``SCENARIOS`` names, in order, the ones that both the reference-loop test
and the digest gate (``tools/output_digests.py``) run.
"""

# Abrupt Doppler shift with a second pretrained model covering the new
# regime, so the controller can switch instead of degrading.
CANONICAL_DRIFT = """
seed = 42
num_slots = 2000
channel.num_antennas = 32
channel.regime.0.start_slot = 0
channel.regime.0.regime_id = urban-a
channel.regime.0.num_paths = 6
channel.regime.0.doppler_norm = 0.01
channel.regime.1.start_slot = 800
channel.regime.1.regime_id = urban-b
channel.regime.1.num_paths = 6
channel.regime.1.doppler_norm = 0.15
pretrain.0.start_slot = 0
pretrain.0.end_slot = 400
pretrain.1.start_slot = 800
pretrain.1.end_slot = 1200
monitoring.mode = Type1
monitoring.threshold_gamma = 0.8
monitoring.n_consec = 3
monitoring.eval_period_slots = 20
"""

# Link quality collapses at slot 800 while the channel process itself
# is untouched; the controller must keep the model. The divergence
# thresholds are widened because the Doppler estimate inside the input
# descriptor gets noisy at 0 dB measurement SNR.
SNR_DROP = """
seed = 42
num_slots = 2000
channel.num_antennas = 32
channel.regime.0.start_slot = 0
channel.regime.0.regime_id = urban-a
channel.regime.0.num_paths = 6
channel.regime.0.doppler_norm = 0.01
channel.regime.0.mean_snr_db = 20
channel.snr_override.0.start_slot = 800
channel.snr_override.0.mean_snr_db = 0
pretrain.0.start_slot = 0
pretrain.0.end_slot = 400
monitoring.mode = Type1
monitoring.threshold_gamma = 0.8
monitoring.n_consec = 3
monitoring.eval_period_slots = 20
policy.delta_low = 0.2
policy.delta_match = 0.2
"""

# Mild Doppler increase within the same geometry and an otherwise empty
# registry: the only sensible repair is a low-rank delta on the active
# model. The tight threshold catches the small degradation; the larger
# sample budget gives the delta fit a well-excited window.
MILD_DRIFT = """
seed = 42
num_slots = 2000
channel.num_antennas = 32
channel.regime.0.start_slot = 0
channel.regime.0.regime_id = urban-a
channel.regime.0.num_paths = 6
channel.regime.0.doppler_norm = 0.01
channel.regime.1.start_slot = 800
channel.regime.1.regime_id = urban-a
channel.regime.1.num_paths = 6
channel.regime.1.doppler_norm = 0.02
pretrain.0.start_slot = 0
pretrain.0.end_slot = 400
monitoring.mode = Type1
monitoring.threshold_gamma = 0.995
monitoring.n_consec = 3
monitoring.eval_period_slots = 20
policy.min_train_samples = 320
"""

# Same shift as the canonical drift but with no second model available
# and no room for a delta, so the only safe action is legacy fallback.
FALLBACK_DRIFT = """
seed = 42
num_slots = 1000
channel.num_antennas = 16
channel.regime.0.start_slot = 0
channel.regime.0.regime_id = urban-a
channel.regime.0.num_paths = 6
channel.regime.0.doppler_norm = 0.01
channel.regime.1.start_slot = 400
channel.regime.1.regime_id = urban-b
channel.regime.1.num_paths = 6
channel.regime.1.doppler_norm = 0.15
pretrain.0.start_slot = 0
pretrain.0.end_slot = 200
monitoring.mode = Type1
monitoring.threshold_gamma = 0.8
monitoring.n_consec = 3
monitoring.eval_period_slots = 20
"""

# Small single-regime run used by the format and determinism tests.
QUIET_SMALL = """
seed = 7
num_slots = 300
channel.num_antennas = 16
channel.regime.0.start_slot = 0
channel.regime.0.regime_id = calm
channel.regime.0.num_paths = 4
channel.regime.0.doppler_norm = 0.02
pretrain.0.start_slot = 0
pretrain.0.end_slot = 100
monitoring.mode = Type1
monitoring.threshold_gamma = 0.8
monitoring.n_consec = 3
monitoring.eval_period_slots = 20
"""

SCENARIOS = ("CANONICAL_DRIFT", "SNR_DROP", "MILD_DRIFT", "FALLBACK_DRIFT", "QUIET_SMALL")
