"""Package store: round trips, integrity, retrieval, and status lifecycle."""

import math
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lcmsim.errors import IntegrityError, NotFoundError, PairingError
from lcmsim.kpi import InputDescriptor, descriptor_divergence
from lcmsim.models import ModelDescriptor, ModelKind, ModelPackage, finalize_package
from lcmsim.registry import ModelRegistry, pairing_ids, verify_pairing

N_ANT = 4


def make_package(
    model_id="m-a",
    version=1,
    tag="csi-pred-h4",
    doppler=0.05,
    snr=20.0,
    beam=None,
    kind=ModelKind.CSI_PREDICTOR,
    associated=None,
    seed=0,
):
    rng = np.random.default_rng((seed, version, len(model_id)))
    taps = rng.standard_normal((N_ANT, N_ANT)) + 1j * rng.standard_normal((N_ANT, N_ANT))
    if beam is None:
        beam = np.full(N_ANT, 1.0 / N_ANT)
    descriptor = ModelDescriptor(
        model_id=model_id,
        model_version=version,
        functionality_tag=tag,
        associated_id=associated,
        input_descriptor=InputDescriptor(
            mean_beam_power=np.asarray(beam, dtype=float),
            doppler_estimate=doppler,
            mean_snr_db=snr,
            window_len=40,
        ),
    )
    pkg = ModelPackage(
        descriptor=descriptor,
        kind=kind,
        parameters=[("taps", taps)],
        extra={"order": "1", "horizon_slots": "4", "num_antennas": str(N_ANT)},
    )
    return finalize_package(pkg)


def query_descriptor(doppler=0.05, snr=20.0, beam=None):
    if beam is None:
        beam = np.full(N_ANT, 1.0 / N_ANT)
    return InputDescriptor(
        mean_beam_power=np.asarray(beam, dtype=float),
        doppler_estimate=doppler,
        mean_snr_db=snr,
        window_len=40,
    )


class TestStoreFetch:
    def test_round_trip_is_byte_identical(self, tmp_path):
        reg = ModelRegistry(tmp_path)
        pkg = make_package()
        key = reg.store(pkg)
        assert key == ("m-a", 1)
        fetched = reg.fetch_by_id("m-a", 1)
        assert fetched.to_bytes() == pkg.to_bytes()

    def test_duplicate_store_rejected(self, tmp_path):
        reg = ModelRegistry(tmp_path)
        reg.store(make_package())
        with pytest.raises(IntegrityError):
            reg.store(make_package())

    def test_corrupted_file_detected_on_fetch(self, tmp_path):
        reg = ModelRegistry(tmp_path)
        reg.store(make_package())
        path = reg.package_path("m-a", 1)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0x40
        path.write_bytes(bytes(data))
        with pytest.raises(IntegrityError):
            reg.fetch_by_id("m-a", 1)

    def test_random_byte_flips_never_fetch_silently(self, tmp_path):
        reg = ModelRegistry(tmp_path)
        reg.store(make_package())
        path = reg.package_path("m-a", 1)
        clean = path.read_bytes()
        rng = np.random.default_rng(17)
        for _ in range(30):
            pos = int(rng.integers(0, len(clean)))
            bit = 1 << int(rng.integers(0, 8))
            data = bytearray(clean)
            data[pos] ^= bit
            path.write_bytes(bytes(data))
            with pytest.raises(IntegrityError):
                reg.fetch_by_id("m-a", 1)
        path.write_bytes(clean)
        reg.fetch_by_id("m-a", 1)

    def test_index_survives_reopening(self, tmp_path):
        first = ModelRegistry(tmp_path)
        first.store(make_package(), stored_at_slot=12)
        first.store(make_package(version=2))
        first.store(make_package(model_id="m-b", doppler=0.2, snr=15.0))
        second = ModelRegistry(tmp_path)
        assert [(e.model_id, e.version) for e in second.entries()] == [
            ("m-a", 1), ("m-a", 2), ("m-b", 1)]
        assert second.entries()[0].stored_at_slot == 12
        assert second.fetch_by_id("m-a").descriptor.model_version == 2
        # The reopened registry holds no descriptors in memory and reads
        # them from disk; its lookups must rank exactly as the writer's.
        query = query_descriptor(doppler=0.15, snr=18.0)
        looked_up = []
        for reg in (first, second):
            pkg, div = reg.fetch_by_descriptor(query, ModelKind.CSI_PREDICTOR, 10.0)
            looked_up.append((pkg.descriptor.model_id, pkg.descriptor.model_version, div))
        assert looked_up[0] == looked_up[1]
        assert looked_up[0][:2] == ("m-b", 1)

    def test_reopened_registry_reads_each_entry_once(self, tmp_path, monkeypatch):
        first = ModelRegistry(tmp_path)
        for pkg in (make_package(), make_package(version=2),
                    make_package(model_id="m-b", doppler=0.2, snr=15.0)):
            first.store(pkg)
        reopened = ModelRegistry(tmp_path)
        reads = []
        original = ModelRegistry._read_package

        def counting(self, model_id, version):
            reads.append((model_id, version))
            return original(self, model_id, version)

        monkeypatch.setattr(ModelRegistry, "_read_package", counting)
        query = query_descriptor(doppler=0.15, snr=18.0)
        results = []
        for _ in range(2):
            pkg, div = reopened.fetch_by_descriptor(query, ModelKind.CSI_PREDICTOR, 10.0)
            results.append((pkg.descriptor.model_id, pkg.descriptor.model_version, div))
        # First lookup: every entry once to rank it, then the winner.
        # Second lookup: the winner only.
        assert reads == [("m-a", 1), ("m-a", 2), ("m-b", 1), ("m-b", 1), ("m-b", 1)]
        assert results[0] == results[1]
        assert all(e.input_descriptor is not None for e in reopened.entries())

    def test_checksum_required_before_store(self, tmp_path):
        reg = ModelRegistry(tmp_path)
        pkg = make_package()
        pkg.parameters[0] = ("taps", pkg.parameters[0][1] * 2.0)
        with pytest.raises(IntegrityError):
            reg.store(pkg)


class TestVersioning:
    def test_omitted_version_fetches_newest(self, tmp_path):
        reg = ModelRegistry(tmp_path)
        reg.store(make_package(version=1))
        reg.store(make_package(version=2))
        assert reg.fetch_by_id("m-a").descriptor.model_version == 2
        assert reg.fetch_by_id("m-a", 1).descriptor.model_version == 1

    def test_unknown_id_not_found(self, tmp_path):
        reg = ModelRegistry(tmp_path)
        with pytest.raises(NotFoundError):
            reg.fetch_by_id("nope")

    def test_previous_version(self, tmp_path):
        reg = ModelRegistry(tmp_path)
        for v in (1, 2, 3):
            reg.store(make_package(version=v))
        assert reg.previous_version("m-a", 3) == 2
        assert reg.previous_version("m-a", 1) is None

    def test_previous_version_skips_retired(self, tmp_path):
        reg = ModelRegistry(tmp_path)
        for v in (1, 2, 3):
            reg.store(make_package(version=v))
        reg.retire("m-a", 2)
        assert reg.previous_version("m-a", 3) == 1


class TestDescriptorLookup:
    def test_exact_match_has_zero_divergence(self, tmp_path):
        reg = ModelRegistry(tmp_path)
        reg.store(make_package(doppler=0.01))
        reg.store(make_package(model_id="m-b", doppler=0.2))
        got = reg.fetch_by_descriptor(query_descriptor(doppler=0.2), ModelKind.CSI_PREDICTOR, 0.5)
        assert got is not None
        pkg, div = got
        assert pkg.descriptor.model_id == "m-b"
        assert div == pytest.approx(0.0, abs=1e-12)

    def test_empty_registry_returns_none(self, tmp_path):
        reg = ModelRegistry(tmp_path)
        assert reg.fetch_by_descriptor(query_descriptor(), ModelKind.CSI_PREDICTOR, 10.0) is None

    def test_threshold_excludes_distant_models(self, tmp_path):
        reg = ModelRegistry(tmp_path)
        reg.store(make_package(doppler=0.4))
        assert reg.fetch_by_descriptor(query_descriptor(doppler=0.01), ModelKind.CSI_PREDICTOR, 0.05) is None

    def test_matches_linear_scan_oracle(self, tmp_path):
        rng = np.random.default_rng(23)
        for trial in range(20):
            reg = ModelRegistry(tmp_path / f"t{trial}")
            stored = []
            for i in range(int(rng.integers(1, 12))):
                pkg = make_package(
                    model_id=f"m-{i:02d}",
                    version=int(rng.integers(1, 4)),
                    doppler=float(rng.uniform(0.0, 0.5)),
                    snr=float(rng.uniform(0.0, 30.0)),
                    beam=rng.dirichlet(np.ones(N_ANT)),
                    seed=trial,
                )
                reg.store(pkg)
                stored.append(pkg)
            query = query_descriptor(
                doppler=float(rng.uniform(0.0, 0.5)),
                snr=float(rng.uniform(0.0, 30.0)),
                beam=rng.dirichlet(np.ones(N_ANT)),
            )
            # Independent scan: smallest divergence, newest version,
            # then lowest model id.
            scored = [
                (descriptor_divergence(query, p.descriptor.input_descriptor),
                 -p.descriptor.model_version,
                 p.descriptor.model_id)
                for p in stored
            ]
            want_div, want_negv, want_id = min(scored)
            got = reg.fetch_by_descriptor(query, ModelKind.CSI_PREDICTOR, max_divergence=10.0)
            assert got is not None
            pkg, div = got
            assert (pkg.descriptor.model_id, pkg.descriptor.model_version) == (want_id, -want_negv)
            assert div == pytest.approx(want_div, abs=1e-12)

    def test_kind_filter(self, tmp_path):
        reg = ModelRegistry(tmp_path)
        reg.store(make_package(kind=ModelKind.CSI_PREDICTOR))
        assert reg.fetch_by_descriptor(query_descriptor(), ModelKind.CSI_DECODER, 10.0) is None

    def test_corrupt_entry_not_picked_leaves_lookup_intact(self, tmp_path):
        reg = ModelRegistry(tmp_path)
        reg.store(make_package(doppler=0.01))
        reg.store(make_package(model_id="m-b", doppler=0.2))
        path = reg.package_path("m-a", 1)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0x01
        path.write_bytes(bytes(data))
        pkg, div = reg.fetch_by_descriptor(query_descriptor(doppler=0.2), ModelKind.CSI_PREDICTOR, 0.5)
        assert (pkg.descriptor.model_id, div) == ("m-b", pytest.approx(0.0, abs=1e-12))
        # The winner itself is still read and verified from disk.
        with pytest.raises(IntegrityError):
            reg.fetch_by_descriptor(query_descriptor(doppler=0.01), ModelKind.CSI_PREDICTOR, 0.5)

    def test_lookup_builds_only_the_winner(self, tmp_path, monkeypatch):
        reg = ModelRegistry(tmp_path)
        for i in range(12):
            reg.store(make_package(model_id=f"m-{i:02d}", doppler=0.02 * i))
        built = []
        from_bytes = ModelPackage.from_bytes

        def counting(cls, data):
            built.append(len(data))
            return from_bytes(data)

        monkeypatch.setattr(ModelPackage, "from_bytes", classmethod(counting))
        got = reg.fetch_by_descriptor(query_descriptor(doppler=0.1), ModelKind.CSI_PREDICTOR, 0.5)
        assert got is not None and got[0].descriptor.model_id == "m-05"
        assert len(built) <= 1
        built.clear()
        far = query_descriptor(doppler=0.5, snr=0.0)
        assert reg.fetch_by_descriptor(far, ModelKind.CSI_PREDICTOR, 0.01) is None
        assert built == []


def draw_descriptor(data, beams):
    """A random descriptor: profile with some zero powers, SNR maybe +inf."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    power = rng.dirichlet(np.ones(beams)) * data.draw(st.sampled_from([1.0, 3.5]))
    if data.draw(st.integers(0, 4)) == 0:  # zero powers take the scalar path
        power[data.draw(st.lists(st.integers(0, beams - 1), min_size=1, max_size=3))] = 0.0
    return query_descriptor(
        doppler=data.draw(st.sampled_from([0.0, 0.05]) | st.floats(0.0, 0.5)),
        snr=data.draw(st.sampled_from([math.inf, 20.0]) | st.floats(-10.0, 40.0)),
        beam=power,
    )


class TestRankingProperty:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data(), beams=st.sampled_from([8, 32, 64]), reopen=st.booleans())
    def test_winner_is_the_scalar_minimum_bit_for_bit(self, data, beams, reopen):
        descriptors, live = [], []  # live: the non-retired predictors, the candidates
        with tempfile.TemporaryDirectory() as root:
            reg = ModelRegistry(root)
            for _ in range(data.draw(st.integers(0, 16))):
                key = (data.draw(st.sampled_from(["m-a", "m-b", "m-c", "m-d"])),
                       data.draw(st.integers(1, 3)))
                if key in {(e.model_id, e.version) for e in reg.entries()}:
                    continue
                # Reusing a descriptor under another id or version makes exact ties.
                if descriptors and data.draw(st.booleans()):
                    desc = data.draw(st.sampled_from(descriptors))
                else:
                    desc = draw_descriptor(data, beams)
                    descriptors.append(desc)
                kind = data.draw(st.sampled_from([ModelKind.CSI_PREDICTOR] * 3
                                                 + [ModelKind.CSI_DECODER]))
                reg.store(make_package(model_id=key[0], version=key[1], kind=kind,
                                       doppler=desc.doppler_estimate, snr=desc.mean_snr_db,
                                       beam=desc.mean_beam_power))
                if data.draw(st.integers(0, 4)) == 0:
                    reg.retire(*key)
                elif kind is ModelKind.CSI_PREDICTOR:
                    live.append((desc, key))
            if descriptors and data.draw(st.booleans()):
                query = data.draw(st.sampled_from(descriptors))
            else:
                query = draw_descriptor(data, beams)
            if reopen:
                reg = ModelRegistry(root)
            got = reg.fetch_by_descriptor(query, ModelKind.CSI_PREDICTOR, math.inf)
        if not live:
            assert got is None
            return
        want_div, want_negv, want_id = min(
            (descriptor_divergence(query, desc), -version, model_id)
            for desc, (model_id, version) in live
        )
        pkg, div = got
        assert (pkg.descriptor.model_id, pkg.descriptor.model_version) == (want_id, -want_negv)
        assert div.hex() == want_div.hex()


class TestActivation:
    def test_single_active_per_tag(self, tmp_path):
        reg = ModelRegistry(tmp_path)
        reg.store(make_package(model_id="m-a"))
        reg.store(make_package(model_id="m-b"))
        reg.activate("m-a", 1)
        reg.activate("m-b", 1)
        statuses = {e.model_id: e.status for e in reg.entries()}
        assert statuses == {"m-a": "available", "m-b": "active"}
        active = reg.active_entry("csi-pred-h4")
        assert active is not None and active.model_id == "m-b"

    def test_activate_retired_rejected(self, tmp_path):
        reg = ModelRegistry(tmp_path)
        reg.store(make_package())
        reg.retire("m-a", 1)
        with pytest.raises(IntegrityError):
            reg.activate("m-a", 1)

    def test_deactivate(self, tmp_path):
        reg = ModelRegistry(tmp_path)
        reg.store(make_package())
        reg.activate("m-a", 1)
        reg.deactivate("m-a", 1)
        assert reg.entries()[0].status == "available"

    def test_activate_unknown_not_found(self, tmp_path):
        reg = ModelRegistry(tmp_path)
        with pytest.raises(NotFoundError):
            reg.activate("m-a", 1)


class TestPairing:
    def test_equal_ids_accepted(self):
        enc = make_package(kind=ModelKind.CSI_ENCODER, associated="ref-1").descriptor
        dec = make_package(kind=ModelKind.CSI_DECODER, associated="ref-1").descriptor
        assert verify_pairing(enc, dec) is True

    def test_different_ids_refused(self):
        enc = make_package(kind=ModelKind.CSI_ENCODER, associated="ref-1").descriptor
        dec = make_package(kind=ModelKind.CSI_DECODER, associated="ref-2").descriptor
        assert verify_pairing(enc, dec) is False

    def test_missing_id_is_an_error(self):
        enc = make_package(kind=ModelKind.CSI_ENCODER, associated=None).descriptor
        dec = make_package(kind=ModelKind.CSI_DECODER, associated="ref-1").descriptor
        with pytest.raises(PairingError):
            verify_pairing(enc, dec)

    def test_multi_source_decoder_accepts_each_vendor(self):
        dec = make_package(kind=ModelKind.CSI_DECODER, associated="ref-1,ref-2").descriptor
        enc1 = make_package(kind=ModelKind.CSI_ENCODER, associated="ref-1").descriptor
        enc2 = make_package(kind=ModelKind.CSI_ENCODER, associated="ref-2").descriptor
        enc3 = make_package(kind=ModelKind.CSI_ENCODER, associated="ref-3").descriptor
        assert verify_pairing(enc1, dec) is True
        assert verify_pairing(enc2, dec) is True
        assert verify_pairing(enc3, dec) is False

    def test_pairing_ids_split(self):
        assert pairing_ids("a,b") == {"a", "b"}
        assert pairing_ids("a") == {"a"}
        assert pairing_ids("") == set()


class TestGcAndVerify:
    def test_gc_removes_retired_files(self, tmp_path):
        reg = ModelRegistry(tmp_path)
        reg.store(make_package(version=1))
        reg.store(make_package(version=2))
        reg.retire("m-a", 1)
        removed = reg.gc()
        assert removed == [("m-a", 1)]
        assert not reg.package_path("m-a", 1).exists()
        assert reg.package_path("m-a", 2).exists()
        assert [e.version for e in reg.entries()] == [2]

    def test_verify_all_reports_ok_and_corruption(self, tmp_path):
        reg = ModelRegistry(tmp_path)
        reg.store(make_package(version=1))
        reg.store(make_package(version=2))
        path = reg.package_path("m-a", 2)
        data = bytearray(path.read_bytes())
        data[-1] ^= 0x01
        path.write_bytes(bytes(data))
        report = reg.verify_all()
        assert report[0] == ("m-a", 1, "ok")
        assert report[1][0:2] == ("m-a", 2) and report[1][2] != "ok"

    def test_verify_all_rechecks_the_round_trip(self, tmp_path, monkeypatch):
        reg = ModelRegistry(tmp_path)
        reg.store(make_package())
        # A checksum-valid file that re-serializes to other bytes passes
        # every read; only verify_all's round trip reports it.
        monkeypatch.setattr("lcmsim.registry.verify_package", lambda pkg: False)
        assert reg.fetch_by_id("m-a", 1).descriptor.model_id == "m-a"
        assert reg.verify_all() == [("m-a", 1, "checksum mismatch reading m-a v1")]
