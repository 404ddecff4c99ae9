"""Cross-vendor training flows, pairing ids, and reference derivation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lcmsim import container
from lcmsim.channel import ChannelRegime, generate_trace
from lcmsim.errors import IntegrityError, PairingError
from lcmsim.intervendor import (
    CsiDataset,
    DerivationSpec,
    EvalCriteria,
    cross_pairing_matrix,
    derive_reference_model,
    export_dataset,
    train_decoder_from_dataset,
    train_encoder_against_reference,
    train_multivendor_decoder,
)
from lcmsim.kpi import sgcs
from lcmsim.models import (
    AutoencoderConfig,
    ModelKind,
    decode_csi,
    encode_csi,
    feedback_latents,
    train_autoencoder_joint,
)
from lcmsim.registry import verify_pairing


def regime_targets(regime_id, doppler, n_ant, n_samples, seed, num_paths=4, spread=0.9):
    regime = ChannelRegime(regime_id, num_paths, doppler, spread, float("inf"))
    trace = generate_trace([(0, regime)], n_samples, n_ant, seed)
    return trace.true_precoders


def mean_pair_sgcs(encoder, decoder, targets, vendor_index=None):
    scores = [
        sgcs(decode_csi(decoder, encode_csi(encoder, w), vendor_index=vendor_index), w)
        for w in targets
    ]
    return float(np.mean(scores))


class TestExportDataset:
    def test_records_match_direct_encode_oracle(self):
        targets = regime_targets("ex-a", 0.02, 16, 60, seed=1)
        enc, _ = train_autoencoder_joint(targets, AutoencoderConfig(6, 0, 16))
        ds = export_dataset(enc, targets)
        assert len(ds) == 60
        for i in range(len(ds)):
            np.testing.assert_array_equal(ds.targets[i], targets[i])
            np.testing.assert_array_equal(ds.feedbacks[i], encode_csi(enc, targets[i]))
        assert ds.associated_id == enc.descriptor.associated_id

    def test_empty_dataset_valid_and_flagged(self):
        targets = regime_targets("ex-a", 0.02, 16, 60, seed=1)
        enc, _ = train_autoencoder_joint(targets, AutoencoderConfig(6, 0, 16))
        empty = export_dataset(enc, targets[:0])
        assert empty.is_empty
        round_tripped = CsiDataset.from_bytes(empty.to_bytes())
        assert round_tripped.is_empty
        with pytest.raises(ValueError):
            train_decoder_from_dataset(empty)

    def test_re_export_is_deterministic(self):
        targets = regime_targets("ex-a", 0.02, 16, 40, seed=2)
        enc, _ = train_autoencoder_joint(targets, AutoencoderConfig(4, 5, 16))
        assert export_dataset(enc, targets).to_bytes() == export_dataset(enc, targets).to_bytes()

    def test_encoder_kind_required(self):
        targets = regime_targets("ex-a", 0.02, 16, 40, seed=2)
        _, dec = train_autoencoder_joint(targets, AutoencoderConfig(4, 0, 16))
        with pytest.raises(ValueError):
            export_dataset(dec, targets)

    def test_container_round_trip_and_integrity(self):
        targets = regime_targets("ex-a", 0.02, 16, 40, seed=3)
        enc, _ = train_autoencoder_joint(targets, AutoencoderConfig(4, 6, 16))
        ds = export_dataset(enc, targets, vendor_index=2)
        data = ds.to_bytes()
        back = CsiDataset.from_bytes(data)
        np.testing.assert_array_equal(back.targets, ds.targets)
        np.testing.assert_array_equal(back.feedbacks, ds.feedbacks)
        np.testing.assert_allclose(back.quant_ranges, ds.quant_ranges)
        assert back.vendor_index == 2 and back.bits_per_dim == 6
        corrupted = bytearray(data)
        corrupted[len(corrupted) // 3] ^= 0x10
        with pytest.raises(IntegrityError):
            CsiDataset.from_bytes(bytes(corrupted))

    def test_checksummed_container_missing_a_field_is_damage(self):
        targets = regime_targets("ex-a", 0.02, 16, 40, seed=3)
        header = {"container": "dataset", "kind": "DSET", "associated_id": "ae-1"}
        with pytest.raises(IntegrityError):
            CsiDataset.from_bytes(container.write_container(header, [("targets", targets)]))
        header.update(latent_dim="4", bits_per_dim="x")
        matrices = [("targets", targets), ("feedbacks", targets[:, :4])]
        with pytest.raises(IntegrityError):
            CsiDataset.from_bytes(container.write_container(header, matrices))


class TestCodecRows:
    @pytest.mark.parametrize("n", [8, 16, 32, 64])
    @pytest.mark.parametrize("bits", [0, 3, 4])
    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(st.sampled_from([1, 500]), st.booleans(), st.integers(0, 2**32 - 1))
    def test_stacks_equal_the_per_row_calls(self, n, bits, rows, multivendor, seed):
        rng = np.random.default_rng(seed)

        def unit_rows(count):
            x = rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))
            return x / np.linalg.norm(x, axis=1, keepdims=True)

        latent = int(rng.integers(1, n + 1))
        cfg = AutoencoderConfig(latent, bits, n)
        enc, dec = train_autoencoder_joint(unit_rows(2 * n), cfg, model_id_prefix="a")
        vendor, ranges = None, "quant_ranges"
        if multivendor:
            enc_b, _ = train_autoencoder_joint(unit_rows(2 * n), cfg, model_id_prefix="b")
            dec = train_multivendor_decoder(
                [export_dataset(enc, unit_rows(2 * n), 0), export_dataset(enc_b, unit_rows(2 * n), 1)]
            )
            vendor, ranges = 0, "quant_ranges_v0"
        targets = unit_rows(rows)

        feedbacks = encode_csi(enc, targets)
        per_row = [encode_csi(enc, t) for t in targets]
        assert feedbacks.tobytes() == np.stack(per_row).tobytes()
        assert feedbacks.dtype == per_row[0].dtype and per_row[0].ndim == 1
        quant = dec.param(ranges) if bits else None
        latents = feedback_latents(feedbacks, bits, quant)
        per_row_latents = [feedback_latents(fb, bits, quant) for fb in per_row]
        assert latents.tobytes() == np.stack(per_row_latents).tobytes()
        decoded = decode_csi(dec, feedbacks, vendor_index=vendor)
        per_row_decoded = [decode_csi(dec, fb, vendor_index=vendor) for fb in per_row]
        assert decoded.tobytes() == np.stack(per_row_decoded).tobytes()
        assert per_row_decoded[0].ndim == 1
        # A row is the one-vector arithmetic: one gemv each way, np.linalg.norm.
        if bits == 0:
            assert per_row[0].tobytes() == (enc.param("basis").conj().T @ targets[0]).tobytes()
        basis = dec.param("basis" if vendor is None else "basis_v0")
        out = basis @ per_row_latents[0]
        assert per_row_decoded[0].tobytes() == (out / np.linalg.norm(out)).tobytes()

        empty = export_dataset(enc, targets[:0])
        assert empty.feedbacks.shape == (0, 2 * latent if bits else latent)
        assert empty.feedbacks.dtype == (np.int64 if bits else np.complex128)


class TestDirectionTwo:
    def test_separate_decoder_matches_joint_training(self):
        targets = regime_targets("d2", 0.03, 32, 400, seed=5, num_paths=6)
        enc, dec_joint = train_autoencoder_joint(targets, AutoencoderConfig(8, 0, 32))
        dec_sep = train_decoder_from_dataset(export_dataset(enc, targets))
        joint = mean_pair_sgcs(enc, dec_joint, targets)
        separate = mean_pair_sgcs(enc, dec_sep, targets)
        assert separate >= 0.999
        assert abs(separate - joint) < 1e-3
        assert dec_sep.kind is ModelKind.CSI_DECODER
        assert dec_sep.descriptor.associated_id == enc.descriptor.associated_id

    def test_rank_one_targets_reconstruct_exactly(self):
        rng = np.random.default_rng(7)
        base = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        base /= np.linalg.norm(base)
        scales = rng.standard_normal(50) + 1j * rng.standard_normal(50)
        targets = np.outer(scales, base)
        enc, _ = train_autoencoder_joint(targets, AutoencoderConfig(1, 0, 8))
        dec = train_decoder_from_dataset(export_dataset(enc, targets))
        assert mean_pair_sgcs(enc, dec, targets) == pytest.approx(1.0, abs=1e-6)

    def test_mixed_associated_ids_rejected(self):
        t1 = regime_targets("d2-a", 0.02, 16, 60, seed=8)
        t2 = regime_targets("d2-b", 0.02, 16, 60, seed=9)
        e1, _ = train_autoencoder_joint(t1, AutoencoderConfig(4, 0, 16))
        e2, _ = train_autoencoder_joint(t2, AutoencoderConfig(4, 0, 16))
        with pytest.raises(PairingError):
            train_decoder_from_dataset([export_dataset(e1, t1), export_dataset(e2, t2)])

    def test_vendor_indexed_dataset_rejected(self):
        targets = regime_targets("d2", 0.02, 16, 60, seed=8)
        enc, _ = train_autoencoder_joint(targets, AutoencoderConfig(4, 0, 16))
        with pytest.raises(ValueError):
            train_decoder_from_dataset(export_dataset(enc, targets, vendor_index=0))

    def test_quantized_dataset_trains_close_decoder(self):
        targets = regime_targets("d2q", 0.03, 16, 300, seed=11, num_paths=4)
        enc, dec_joint = train_autoencoder_joint(targets, AutoencoderConfig(6, 6, 16))
        dec_sep = train_decoder_from_dataset(export_dataset(enc, targets))
        joint = mean_pair_sgcs(enc, dec_joint, targets)
        separate = mean_pair_sgcs(enc, dec_sep, targets)
        assert separate > joint - 0.02


class TestDirectionOne:
    def test_encoder_through_frozen_decoder_matches_joint(self):
        targets = regime_targets("d1", 0.03, 32, 400, seed=13, num_paths=6)
        enc_joint, dec_ref = train_autoencoder_joint(targets, AutoencoderConfig(8, 0, 32))
        enc_fit = train_encoder_against_reference(dec_ref, targets)
        joint = mean_pair_sgcs(enc_joint, dec_ref, targets)
        fitted = mean_pair_sgcs(enc_fit, dec_ref, targets)
        assert abs(fitted - joint) < 1e-6

    def test_full_latent_dimension_is_lossless(self):
        targets = regime_targets("d1", 0.03, 8, 100, seed=13)
        _, dec_ref = train_autoencoder_joint(targets, AutoencoderConfig(8, 0, 8))
        enc_fit = train_encoder_against_reference(dec_ref, targets)
        assert mean_pair_sgcs(enc_fit, dec_ref, targets) == pytest.approx(1.0, abs=1e-9)

    def test_associated_id_propagates_from_reference(self):
        targets = regime_targets("d1", 0.03, 16, 80, seed=14)
        _, dec_ref = train_autoencoder_joint(targets, AutoencoderConfig(4, 0, 16))
        enc_fit = train_encoder_against_reference(dec_ref, targets)
        assert enc_fit.descriptor.associated_id == dec_ref.descriptor.associated_id
        assert verify_pairing(enc_fit.descriptor, dec_ref.descriptor)

    def test_empty_targets_rejected(self):
        targets = regime_targets("d1", 0.03, 16, 80, seed=14)
        _, dec_ref = train_autoencoder_joint(targets, AutoencoderConfig(4, 0, 16))
        with pytest.raises(ValueError):
            train_encoder_against_reference(dec_ref, targets[:0])


class TestMultiVendor:
    def test_identical_vendors_match_single_vendor_decoder(self):
        targets = regime_targets("mv", 0.03, 16, 200, seed=17)
        enc, _ = train_autoencoder_joint(targets, AutoencoderConfig(4, 0, 16))
        ds0 = export_dataset(enc, targets, vendor_index=0)
        ds1 = export_dataset(enc, targets, vendor_index=1)
        single = train_decoder_from_dataset(export_dataset(enc, targets))
        multi = train_multivendor_decoder([ds0, ds1])
        for w in targets[:20]:
            fb = encode_csi(enc, w)
            np.testing.assert_allclose(
                decode_csi(multi, fb, vendor_index=0),
                decode_csi(single, fb),
                atol=1e-6,
            )

    def test_orthogonal_vendors_within_tolerance_of_dedicated(self):
        t0 = regime_targets("mv-a", 0.02, 32, 300, seed=19, num_paths=4)
        t1 = regime_targets("mv-b", 0.02, 32, 300, seed=23, num_paths=4)
        e0, _ = train_autoencoder_joint(t0, AutoencoderConfig(6, 0, 32))
        e1, _ = train_autoencoder_joint(t1, AutoencoderConfig(6, 0, 32))
        d0 = train_decoder_from_dataset(export_dataset(e0, t0))
        d1 = train_decoder_from_dataset(export_dataset(e1, t1))
        multi = train_multivendor_decoder(
            [export_dataset(e0, t0, vendor_index=0), export_dataset(e1, t1, vendor_index=1)]
        )
        for enc, dedicated, targets, vendor in ((e0, d0, t0, 0), (e1, d1, t1, 1)):
            multi_score = mean_pair_sgcs(enc, multi, targets, vendor_index=vendor)
            dedicated_score = mean_pair_sgcs(enc, dedicated, targets)
            assert abs(multi_score - dedicated_score) < 0.02

    def test_pairing_accepts_every_source_vendor(self):
        t0 = regime_targets("mv-a", 0.02, 16, 80, seed=19)
        t1 = regime_targets("mv-b", 0.02, 16, 80, seed=23)
        e0, _ = train_autoencoder_joint(t0, AutoencoderConfig(4, 0, 16))
        e1, _ = train_autoencoder_joint(t1, AutoencoderConfig(4, 0, 16))
        t2 = regime_targets("mv-c", 0.02, 16, 80, seed=29)
        e2, _ = train_autoencoder_joint(t2, AutoencoderConfig(4, 0, 16))
        multi = train_multivendor_decoder(
            [export_dataset(e0, t0, vendor_index=0), export_dataset(e1, t1, vendor_index=1)]
        )
        assert verify_pairing(e0.descriptor, multi.descriptor)
        assert verify_pairing(e1.descriptor, multi.descriptor)
        assert not verify_pairing(e2.descriptor, multi.descriptor)

    def test_single_dataset_rejected(self):
        targets = regime_targets("mv", 0.03, 16, 80, seed=17)
        enc, _ = train_autoencoder_joint(targets, AutoencoderConfig(4, 0, 16))
        with pytest.raises(ValueError):
            train_multivendor_decoder([export_dataset(enc, targets, vendor_index=0)])

    def test_missing_or_colliding_indices_rejected(self):
        targets = regime_targets("mv", 0.03, 16, 80, seed=17)
        enc, _ = train_autoencoder_joint(targets, AutoencoderConfig(4, 0, 16))
        plain = export_dataset(enc, targets)
        v0 = export_dataset(enc, targets, vendor_index=0)
        with pytest.raises(ValueError):
            train_multivendor_decoder([plain, v0])
        with pytest.raises(ValueError):
            train_multivendor_decoder([v0, export_dataset(enc, targets, vendor_index=0)])

    def test_feedback_length_mismatch_rejected(self):
        targets = regime_targets("mv", 0.03, 16, 80, seed=17)
        e4, _ = train_autoencoder_joint(targets, AutoencoderConfig(4, 0, 16))
        e6, _ = train_autoencoder_joint(targets, AutoencoderConfig(6, 0, 16))
        with pytest.raises(ValueError):
            train_multivendor_decoder(
                [export_dataset(e4, targets, vendor_index=0),
                 export_dataset(e6, targets, vendor_index=1)]
            )

    def test_quantized_multivendor_uses_per_vendor_ranges(self):
        t0 = regime_targets("mv-a", 0.02, 16, 200, seed=19)
        t1 = regime_targets("mv-b", 0.02, 16, 200, seed=23)
        e0, _ = train_autoencoder_joint(t0, AutoencoderConfig(4, 6, 16))
        e1, _ = train_autoencoder_joint(t1, AutoencoderConfig(4, 6, 16))
        multi = train_multivendor_decoder(
            [export_dataset(e0, t0, vendor_index=0), export_dataset(e1, t1, vendor_index=1)]
        )
        d0 = train_decoder_from_dataset(export_dataset(e0, t0))
        score = mean_pair_sgcs(e0, multi, t0, vendor_index=0)
        dedicated = mean_pair_sgcs(e0, d0, t0)
        assert abs(score - dedicated) < 0.02


class TestCrossPairing:
    def test_diagonal_dominates_for_distinct_regimes(self):
        t0 = regime_targets("cp-a", 0.02, 16, 200, seed=31)
        t1 = regime_targets("cp-b", 0.02, 16, 200, seed=37)
        e0, d0 = train_autoencoder_joint(t0, AutoencoderConfig(4, 0, 16))
        e1, d1 = train_autoencoder_joint(t1, AutoencoderConfig(4, 0, 16))
        eval_targets = np.vstack([t0[-50:], t1[-50:]])
        grid = cross_pairing_matrix([e0, e1], [d0, d1], eval_targets)
        assert grid.shape == (2, 2)
        assert np.mean([grid[0, 0], grid[1, 1]]) >= np.mean([grid[0, 1], grid[1, 0]])

    def test_full_latent_collaboration_is_exact_across_flows(self):
        # At full latent dimension, every flow trained from one source
        # composes to the identity, whichever sides are paired.
        targets = regime_targets("cp", 0.03, 8, 120, seed=41)
        enc_joint, dec_joint = train_autoencoder_joint(targets, AutoencoderConfig(8, 0, 8))
        dec_sep = train_decoder_from_dataset(export_dataset(enc_joint, targets))
        enc_fit = train_encoder_against_reference(dec_joint, targets)
        grid = cross_pairing_matrix(
            [enc_joint, enc_fit], [dec_joint, dec_sep], targets[-40:]
        )
        np.testing.assert_allclose(grid, np.ones((2, 2)), atol=1e-9)

    def test_incompatible_pair_scores_nan_not_failure(self):
        targets16 = regime_targets("cp", 0.03, 16, 80, seed=41)
        e4, d4 = train_autoencoder_joint(targets16, AutoencoderConfig(4, 0, 16))
        e8, d8 = train_autoencoder_joint(targets16, AutoencoderConfig(8, 0, 16))
        grid = cross_pairing_matrix([e4, e8], [d4, d8], targets16[-30:])
        assert np.isnan(grid[0, 1]) and np.isnan(grid[1, 0])
        assert grid[0, 0] > 0.5 and grid[1, 1] > 0.5

    def test_identical_lists_give_square_grid(self):
        targets = regime_targets("cp", 0.03, 16, 80, seed=43)
        enc, dec = train_autoencoder_joint(targets, AutoencoderConfig(4, 0, 16))
        grid = cross_pairing_matrix([enc, enc], [dec, dec], targets[-20:])
        assert grid.shape == (2, 2)
        assert np.allclose(grid, grid[0, 0])


def small_spec(num_antennas=16, num_paths=4):
    regime = ChannelRegime("ref-regime", num_paths, 0.05, 0.9, float("inf"))
    return DerivationSpec(regime=regime, num_antennas=num_antennas, num_train=220, num_eval=60)


class TestReferenceDerivation:
    def test_single_candidate_within_budgets_selected(self):
        artifact, report = derive_reference_model(
            [AutoencoderConfig(6, 0, 16)],
            small_spec(),
            EvalCriteria(sgcs_floor=0.5, flops_budget=10**9,
                         storage_budget_bytes=10**9, robustness_floor=0.3),
            seed=51,
        )
        assert report.selected_index == 0
        assert artifact is not None
        assert artifact.kind is ModelKind.CSI_DECODER

    def test_budget_gate_beats_raw_performance(self):
        spec = small_spec(num_paths=8)
        candidates = [AutoencoderConfig(4, 0, 16), AutoencoderConfig(12, 0, 16)]
        loose = EvalCriteria(sgcs_floor=0.3, flops_budget=10**9,
                             storage_budget_bytes=10**9, robustness_floor=0.1)
        artifact, report = derive_reference_model(candidates, spec, loose, seed=51)
        # Unconstrained, the larger latent wins on SGCS.
        assert report.scores[1].mean_sgcs > report.scores[0].mean_sgcs
        assert report.selected_index == 1
        flops_cap = report.scores[0].flops
        tight = EvalCriteria(sgcs_floor=0.3, flops_budget=flops_cap,
                             storage_budget_bytes=10**9, robustness_floor=0.1)
        artifact, report = derive_reference_model(candidates, spec, tight, seed=51)
        assert report.selected_index == 0
        assert "flops_over_budget" in report.scores[1].reasons
        assert artifact.descriptor.model_id.startswith("ref-cand0")

    def test_no_eligible_candidate_reports_honestly(self):
        artifact, report = derive_reference_model(
            [AutoencoderConfig(4, 0, 16)],
            small_spec(num_paths=8),
            EvalCriteria(sgcs_floor=0.999999, flops_budget=10**9,
                         storage_budget_bytes=10**9, robustness_floor=0.1),
            seed=51,
        )
        assert artifact is None
        assert report.selected_index is None
        assert "sgcs_below_floor" in report.scores[0].reasons
        assert "no reference selected" in report.to_text()

    def test_deterministic_given_seed(self):
        candidates = [AutoencoderConfig(4, 0, 16), AutoencoderConfig(6, 4, 16)]
        criteria = EvalCriteria(sgcs_floor=0.4, flops_budget=10**9,
                                storage_budget_bytes=10**9, robustness_floor=0.2)
        a1, r1 = derive_reference_model(candidates, small_spec(), criteria, seed=52)
        a2, r2 = derive_reference_model(candidates, small_spec(), criteria, seed=52)
        assert r1.to_text() == r2.to_text()
        assert r1.to_csv() == r2.to_csv()
        assert a1.to_bytes() == a2.to_bytes()

    def test_selection_matches_independent_rescoring(self):
        spec = small_spec(num_paths=8)
        candidates = [
            AutoencoderConfig(4, 0, 16),
            AutoencoderConfig(6, 0, 16),
            AutoencoderConfig(8, 0, 16),
        ]
        criteria = EvalCriteria(sgcs_floor=0.4, flops_budget=10**9,
                                storage_budget_bytes=10**9, robustness_floor=0.1)
        _, report = derive_reference_model(candidates, spec, criteria, seed=53)

        from dataclasses import replace

        def targets_for(regime):
            trace = generate_trace([(0, regime)], spec.num_train + spec.num_eval,
                                   spec.num_antennas, 53)
            return trace.true_precoders

        data = targets_for(spec.regime)
        train, evaluation = data[: spec.num_train], data[spec.num_train:]
        best_idx, best_sgcs = None, -1.0
        for idx, cfg in enumerate(candidates):
            enc, dec = train_autoencoder_joint(train, cfg, model_id_prefix=f"ref-cand{idx}")
            own = float(np.mean([sgcs(decode_csi(dec, encode_csi(enc, w)), w) for w in evaluation]))
            robust = []
            for tag, factor in (("lo", 0.5), ("hi", 1.5)):
                perturbed = replace(spec.regime,
                                    regime_id=f"{spec.regime.regime_id}-perturb-{tag}",
                                    doppler_norm=min(spec.regime.doppler_norm * factor, 0.5))
                stress_data = targets_for(perturbed)
                stress_enc = train_encoder_against_reference(dec, stress_data[: spec.num_train])
                robust.append(float(np.mean(
                    [sgcs(decode_csi(dec, encode_csi(stress_enc, w)), w)
                     for w in stress_data[spec.num_train:]]
                )))
            flops = enc.descriptor.flops_per_inference + dec.descriptor.flops_per_inference
            storage = enc.descriptor.storage_bytes + dec.descriptor.storage_bytes
            ok = (own >= criteria.sgcs_floor and flops <= criteria.flops_budget
                  and storage <= criteria.storage_budget_bytes
                  and min(robust) >= criteria.robustness_floor)
            assert report.scores[idx].mean_sgcs == pytest.approx(own, abs=1e-9)
            assert report.scores[idx].robustness == pytest.approx(min(robust), abs=1e-9)
            assert report.scores[idx].eligible == ok
            if ok and own > best_sgcs:
                best_idx, best_sgcs = idx, own
        assert report.selected_index == best_idx

    def test_candidate_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            derive_reference_model(
                [AutoencoderConfig(4, 0, 32)], small_spec(16), EvalCriteria(), seed=1
            )
