"""Package store: round trips, integrity, retrieval, and status lifecycle."""

import math
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from lcmsim.cli import main
from lcmsim.errors import IntegrityError, NotFoundError, PairingError
from lcmsim.kpi import InputDescriptor, descriptor_divergence
from lcmsim.models import (
    DeltaPackage,
    ModelDescriptor,
    ModelKind,
    ModelPackage,
    apply_delta,
    finalize_package,
    verify_package,
)
from lcmsim.registry import ModelRegistry, pairing_ids, verify_pairing

N_ANT = 4

_OPENED = []


def open_registry(root):
    """A registry that ``close_registries`` closes when the test ends."""
    reg = ModelRegistry(root)
    _OPENED.append(reg)
    return reg


@pytest.fixture(autouse=True)
def close_registries():
    yield
    while _OPENED:
        _OPENED.pop().close()


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


def active_entry(registry, functionality_tag):
    """The one active entry of ``functionality_tag`` in ``registry``, or None."""
    active = [e for e in registry.entries()
              if e.status == "active" and e.functionality_tag == functionality_tag]
    assert len(active) <= 1, active
    return active[0] if active else None


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
        reg = open_registry(tmp_path)
        pkg = make_package()
        key = reg.store(pkg)
        assert key == ("m-a", 1)
        fetched = reg.fetch_by_id("m-a", 1)
        assert fetched.to_bytes() == pkg.to_bytes()

    def test_duplicate_store_rejected(self, tmp_path):
        reg = open_registry(tmp_path)
        reg.store(make_package())
        with pytest.raises(IntegrityError):
            reg.store(make_package())

    def test_corrupted_file_detected_on_fetch(self, tmp_path):
        reg = open_registry(tmp_path)
        reg.store(make_package())
        path = reg.package_path("m-a", 1)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0x40
        path.write_bytes(bytes(data))
        with pytest.raises(IntegrityError):
            reg.fetch_by_id("m-a", 1)

    def test_random_byte_flips_never_fetch_silently(self, tmp_path):
        reg = open_registry(tmp_path)
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
        first = open_registry(tmp_path)
        first.store(make_package(), stored_at_slot=12)
        first.store(make_package(version=2))
        first.store(make_package(model_id="m-b", doppler=0.2, snr=15.0))
        second = open_registry(tmp_path)
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
        first = open_registry(tmp_path)
        for pkg in (make_package(), make_package(version=2),
                    make_package(model_id="m-b", doppler=0.2, snr=15.0)):
            first.store(pkg)
        reopened = open_registry(tmp_path)
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
        reg = open_registry(tmp_path)
        pkg = make_package()
        pkg.parameters[0] = ("taps", pkg.parameters[0][1] * 2.0)
        with pytest.raises(IntegrityError):
            reg.store(pkg)


class TestVersioning:
    def test_omitted_version_fetches_newest(self, tmp_path):
        reg = open_registry(tmp_path)
        reg.store(make_package(version=1))
        reg.store(make_package(version=2))
        assert reg.fetch_by_id("m-a").descriptor.model_version == 2
        assert reg.fetch_by_id("m-a", 1).descriptor.model_version == 1

    def test_unknown_id_not_found(self, tmp_path):
        reg = open_registry(tmp_path)
        with pytest.raises(NotFoundError):
            reg.fetch_by_id("nope")

    def test_previous_version(self, tmp_path):
        reg = open_registry(tmp_path)
        for v in (1, 2, 3):
            reg.store(make_package(version=v))
        assert reg.previous_version("m-a", 3) == 2
        assert reg.previous_version("m-a", 1) is None

    def test_previous_version_skips_retired(self, tmp_path):
        reg = open_registry(tmp_path)
        for v in (1, 2, 3):
            reg.store(make_package(version=v))
        reg.retire("m-a", 2)
        assert reg.previous_version("m-a", 3) == 1


class TestDescriptorLookup:
    def test_exact_match_has_zero_divergence(self, tmp_path):
        reg = open_registry(tmp_path)
        reg.store(make_package(doppler=0.01))
        reg.store(make_package(model_id="m-b", doppler=0.2))
        got = reg.fetch_by_descriptor(query_descriptor(doppler=0.2), ModelKind.CSI_PREDICTOR, 0.5)
        assert got is not None
        pkg, div = got
        assert pkg.descriptor.model_id == "m-b"
        assert div == pytest.approx(0.0, abs=1e-12)

    def test_empty_registry_returns_none(self, tmp_path):
        reg = open_registry(tmp_path)
        assert reg.fetch_by_descriptor(query_descriptor(), ModelKind.CSI_PREDICTOR, 10.0) is None

    def test_threshold_excludes_distant_models(self, tmp_path):
        reg = open_registry(tmp_path)
        reg.store(make_package(doppler=0.4))
        assert reg.fetch_by_descriptor(query_descriptor(doppler=0.01), ModelKind.CSI_PREDICTOR, 0.05) is None

    def test_matches_linear_scan_oracle(self, tmp_path):
        rng = np.random.default_rng(23)
        for trial in range(20):
            reg = open_registry(tmp_path / f"t{trial}")
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
        reg = open_registry(tmp_path)
        reg.store(make_package(kind=ModelKind.CSI_PREDICTOR))
        assert reg.fetch_by_descriptor(query_descriptor(), ModelKind.CSI_DECODER, 10.0) is None

    def test_corrupt_entry_not_picked_leaves_lookup_intact(self, tmp_path):
        reg = open_registry(tmp_path)
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
        reg = open_registry(tmp_path)
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
            reg = open_registry(root)
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
                reg = open_registry(root)
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
        reg = open_registry(tmp_path)
        reg.store(make_package(model_id="m-a"))
        reg.store(make_package(model_id="m-b"))
        reg.activate("m-a", 1)
        reg.activate("m-b", 1)
        statuses = {e.model_id: e.status for e in reg.entries()}
        assert statuses == {"m-a": "available", "m-b": "active"}
        active = active_entry(reg, "csi-pred-h4")
        assert active is not None and active.model_id == "m-b"

    def test_activate_retired_rejected(self, tmp_path):
        reg = open_registry(tmp_path)
        reg.store(make_package())
        reg.retire("m-a", 1)
        with pytest.raises(IntegrityError):
            reg.activate("m-a", 1)

    def test_deactivate(self, tmp_path):
        reg = open_registry(tmp_path)
        reg.store(make_package())
        reg.activate("m-a", 1)
        reg.deactivate("m-a", 1)
        assert reg.entries()[0].status == "available"

    def test_activate_unknown_not_found(self, tmp_path):
        reg = open_registry(tmp_path)
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
        reg = open_registry(tmp_path)
        reg.store(make_package(version=1))
        reg.store(make_package(version=2))
        reg.retire("m-a", 1)
        removed = reg.gc()
        assert removed == [("m-a", 1)]
        assert not reg.package_path("m-a", 1).exists()
        assert reg.package_path("m-a", 2).exists()
        assert [e.version for e in reg.entries()] == [2]

    def test_verify_all_reports_ok_and_corruption(self, tmp_path):
        reg = open_registry(tmp_path)
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
        reg = open_registry(tmp_path)
        reg.store(make_package())
        # A checksum-valid file that re-serializes to other bytes passes
        # every read; only verify_all's round trip reports it.
        monkeypatch.setattr("lcmsim.registry.verify_package", lambda pkg: False)
        assert reg.fetch_by_id("m-a", 1).descriptor.model_id == "m-a"
        assert reg.verify_all() == [("m-a", 1, "checksum mismatch reading m-a v1")]


def make_delta(base, seed=0, rank=1):
    """A random rank-``rank`` correction fitted, nominally, on ``base``."""
    rng = np.random.default_rng(seed)
    cplx = lambda *shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    desc = base.descriptor
    return DeltaPackage(desc.model_id, desc.model_version,
                        cplx(N_ANT, rank), cplx(N_ANT, rank), cplx(N_ANT))


def flip_byte(path, at=None):
    data = bytearray(path.read_bytes())
    data[len(data) // 2 if at is None else at] ^= 0x01
    path.write_bytes(bytes(data))


def verify_exit_code(root, capsys):
    rc = main(["registry", "--root", str(root), "verify"])
    capsys.readouterr()
    return rc


class TestDeltaVersions:
    """A delta version is stored as its DeltaPackage and rebuilt over its root."""

    def stored_chain(self, reg):
        v1 = make_package()
        v2 = apply_delta(v1, make_delta(v1, seed=1))
        v3 = apply_delta(v2, make_delta(v2, seed=2))
        for pkg in (v1, v2, v3):
            reg.store(pkg)
        return v1, v2, v3

    def test_stored_as_a_delta_over_its_root(self, tmp_path):
        reg = open_registry(tmp_path)
        v1, v2, v3 = self.stored_chain(reg)
        for pkg in (v2, v3):  # one deep: both name v1, the full package
            stored = DeltaPackage.from_bytes(reg.package_path("m-a", pkg.descriptor.model_version).read_bytes())
            assert stored.root == ("m-a", 1, v1.descriptor.payload_checksum)
            assert stored.base_model_version == pkg.descriptor.model_version - 1
            assert pkg.descriptor.payload_checksum == reg.package_path(
                "m-a", pkg.descriptor.model_version).read_bytes()[-32:]
        assert [e.root_version for e in reg.entries()] == [0, 1, 1]

    @pytest.mark.parametrize("reopen", [False, True])
    def test_fetch_rebuilds_the_applied_package_bit_for_bit(self, tmp_path, reopen):
        reg = open_registry(tmp_path)
        chain = self.stored_chain(reg)
        if reopen:
            reg = open_registry(tmp_path)
        for want in chain:
            got = reg.fetch_by_id("m-a", want.descriptor.model_version)
            assert [name for name, _ in got.parameters] == [name for name, _ in want.parameters]
            for (_, a), (_, b) in zip(got.parameters, want.parameters):
                assert a.tobytes() == b.tobytes() and a.shape == b.shape
            assert got.to_bytes() == want.to_bytes()
            assert got.root == want.root
            assert got.descriptor.payload_checksum == want.descriptor.payload_checksum
            assert verify_package(got) and verify_package(want)
        assert [status for *_, status in reg.verify_all()] == ["ok"] * 3

    def test_apply_and_store_serialize_no_root_parameters(self, tmp_path, monkeypatch):
        reg = open_registry(tmp_path)
        v1 = make_package()
        reg.store(v1)
        full = []  # full serializations, the root's taps included
        real = ModelPackage.to_bytes
        monkeypatch.setattr(ModelPackage, "to_bytes", lambda pkg: full.append(pkg) or real(pkg))
        reg.store(apply_delta(v1, make_delta(v1)))
        assert full == []

    @pytest.mark.parametrize("victim", [1, 2], ids=["root", "delta"])
    def test_flipped_byte_in_either_file_raises(self, tmp_path, capsys, victim):
        reg = open_registry(tmp_path)
        self.stored_chain(reg)
        flip_byte(reg.package_path("m-a", victim))
        with pytest.raises(IntegrityError):
            reg.fetch_by_id("m-a", 2)
        report = {version: status for _, version, status in reg.verify_all()}
        assert report[2] != "ok"
        assert (report[1] == "ok") == (victim == 2)
        assert verify_exit_code(tmp_path, capsys) == 2

    def test_root_replaced_by_another_valid_package_raises(self, tmp_path):
        reg = open_registry(tmp_path)
        self.stored_chain(reg)
        # A checksum-valid file with other taps: only the delta's named
        # root checksum tells it apart.
        reg.package_path("m-a", 1).write_bytes(make_package(seed=9).to_bytes())
        with pytest.raises(IntegrityError, match="not the root"):
            reg.fetch_by_id("m-a", 3)

    def test_missing_root_fails_the_fetch(self, tmp_path, capsys):
        reg = open_registry(tmp_path)
        self.stored_chain(reg)
        reg.package_path("m-a", 1).unlink()
        with pytest.raises(NotFoundError):
            reg.fetch_by_id("m-a", 2)
        assert all(status != "ok" for *_, status in reg.verify_all())
        assert verify_exit_code(tmp_path, capsys) == 2

    def test_store_needs_the_root_in_the_registry(self, tmp_path):
        v1 = make_package()
        reg = open_registry(tmp_path)
        with pytest.raises(NotFoundError):
            reg.store(apply_delta(v1, make_delta(v1)))
        assert reg.entries() == [] and reg.orphans() == []

    def test_gc_keeps_a_retired_root_while_a_live_delta_needs_it(self, tmp_path):
        reg = open_registry(tmp_path)
        v1, v2, v3 = self.stored_chain(reg)
        reg.retire("m-a", 1)
        reg.retire("m-a", 2)
        assert reg.gc() == [("m-a", 2)]
        assert reg.package_path("m-a", 1).exists()
        assert reg.fetch_by_id("m-a", 3).to_bytes() == v3.to_bytes()
        assert open_registry(tmp_path).fetch_by_id("m-a", 3).to_bytes() == v3.to_bytes()
        reg.retire("m-a", 3)
        assert reg.gc() == [("m-a", 1), ("m-a", 3)]
        assert reg.entries() == [] and not (tmp_path / "m-a").exists()


# index.txt as the writer before the journal left it: one line per
# entry, sorted, written whole through a temp file and a rename.
PARENT_INDEX = (
    "model_id=m-a version=1 kind=csi_predictor functionality_tag=csi-pred-h4 "
    "associated_id=None status=available stored_at_slot=0\n"
    "model_id=m-a version=2 kind=csi_predictor functionality_tag=csi-pred-h4 "
    "associated_id=None status=active stored_at_slot=12\n"
    "model_id=m-b version=1 kind=csi_predictor functionality_tag=csi-pred-h4 "
    "associated_id=None status=retired stored_at_slot=0\n"
)


class TestJournal:
    def index(self, root):
        return (root / ModelRegistry.INDEX_NAME).read_text(encoding="utf-8")

    def parent_store(self, root):
        for pkg in (make_package(), make_package(version=2), make_package(model_id="m-b")):
            path = root / pkg.descriptor.model_id / f"{pkg.descriptor.model_version}.lcmp"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(pkg.to_bytes())
        (root / ModelRegistry.INDEX_NAME).write_text(PARENT_INDEX, encoding="utf-8")

    def test_an_index_written_by_the_parent_loads(self, tmp_path):
        self.parent_store(tmp_path)
        reg = open_registry(tmp_path)
        assert [(e.model_id, e.version, e.status, e.stored_at_slot) for e in reg.entries()] == [
            ("m-a", 1, "available", 0), ("m-a", 2, "active", 12), ("m-b", 1, "retired", 0)]
        assert self.index(tmp_path) == PARENT_INDEX  # loading writes nothing
        assert [status for *_, status in reg.verify_all()] == ["ok"] * 3
        reg.activate("m-a", 1)
        reopened = open_registry(tmp_path)
        assert active_entry(reopened, "csi-pred-h4").version == 1
        assert self.index(tmp_path).startswith(PARENT_INDEX + "commit\n")

    def test_each_operation_appends_its_changed_lines_and_a_marker(self, tmp_path):
        reg = open_registry(tmp_path)
        reg.store(make_package())
        reg.store(make_package(model_id="m-b"))
        reg.activate("m-a", 1)
        before = self.index(tmp_path)
        reg.activate("m-b", 1)
        group = self.index(tmp_path)[len(before):].splitlines()
        assert group[-1] == "commit"
        assert [line.split()[:2] + line.split()[5:6] for line in group[:-1]] == [
            ["model_id=m-a", "version=1", "status=available"],
            ["model_id=m-b", "version=1", "status=active"]]
        reg.activate("m-b", 1)  # changes nothing, journals nothing
        reg.retire("m-a", 1)
        reg.retire("m-a", 1)
        assert self.index(tmp_path).count("commit\n") == 6  # 5 groups and the seal

    @pytest.mark.parametrize("cut", [1, 20, -8, -1])
    def test_a_torn_tail_is_dropped_and_cut_off(self, tmp_path, cut):
        reg = open_registry(tmp_path)
        reg.store(make_package())
        committed = len(self.index(tmp_path))
        reg.store(make_package(model_id="m-b"))
        reg.close()
        path = tmp_path / ModelRegistry.INDEX_NAME
        data = path.read_bytes()
        path.write_bytes(data[: committed + cut if cut > 0 else len(data) + cut])
        reg = open_registry(tmp_path)
        assert [e.model_id for e in reg.entries()] == ["m-a"]
        assert len(self.index(tmp_path)) == committed
        assert reg.orphans() == [("m-b", 1)]  # its file was written before its line
        reg.store(make_package(model_id="m-c"))
        assert [e.model_id for e in open_registry(tmp_path).entries()] == ["m-a", "m-c"]

    def test_a_torn_first_write_leaves_an_empty_registry(self, tmp_path):
        reg = open_registry(tmp_path)
        reg.store(make_package())
        reg.close()
        path = tmp_path / ModelRegistry.INDEX_NAME
        path.write_bytes(path.read_bytes()[:-3])  # the line survives, its marker does not
        assert open_registry(tmp_path).entries() == []

    def test_an_orphan_file_is_ignored_listed_and_collected(self, tmp_path, capsys):
        reg = open_registry(tmp_path)
        reg.store(make_package())
        orphan = make_package(model_id="m-b")
        path = reg.package_path("m-b", 1)
        path.parent.mkdir()
        path.write_bytes(orphan.to_bytes())
        reopened = open_registry(tmp_path)
        assert [e.model_id for e in reopened.entries()] == ["m-a"]
        assert reopened.fetch_by_descriptor(query_descriptor(), ModelKind.CSI_PREDICTOR, 10.0)[0] \
            .descriptor.model_id == "m-a"
        assert reopened.verify_all() == [("m-a", 1, "ok"), ("m-b", 1, "orphan: no index entry")]
        assert verify_exit_code(tmp_path, capsys) == 2
        assert reopened.gc() == [("m-b", 1)]
        assert not path.exists() and reopened.verify_all() == [("m-a", 1, "ok")]

    def test_reopen_compacts_a_long_journal(self, tmp_path):
        reg = open_registry(tmp_path)
        reg.store(make_package())
        reg.store(make_package(model_id="m-b"))
        for _ in range(6):
            reg.activate("m-a", 1)
            reg.activate("m-b", 1)
        lines = self.index(tmp_path).splitlines()
        assert len([line for line in lines if line != "commit"]) > 4 * 2
        reopened = open_registry(tmp_path)
        assert [(e.model_id, e.status) for e in reopened.entries()] == [
            ("m-a", "available"), ("m-b", "active")]
        compacted = self.index(tmp_path).splitlines()
        assert len(compacted) == 3 and compacted[-1] == "commit"
        assert "m-a" in compacted[0] and "status=available" in compacted[0]
        assert "m-b" in compacted[1] and "status=active" in compacted[1]


class RegistryMachine(RuleBasedStateMachine):
    """Operations, crashes and reopens against a model of what committed.

    A crash cuts the journal at a random byte of what was appended since
    it was last written whole, or drops the last write or its final byte
    (the marker's newline); reopening must
    then show exactly the state after the last operation whose write
    survived. Package files outlive a dropped journal line as orphans.
    """

    IDS = ("m-a", "m-b")

    def __init__(self):
        super().__init__()
        self.dir = tempfile.TemporaryDirectory()
        self.reg = ModelRegistry(self.dir.name)
        self.state = {}  # key -> (status, root_version)
        self.packages = {}  # key -> the package last stored under it
        self.files = set()  # keys with a package file on disk
        self.checkpoints = [(0, {})]  # (journal size, state) per write since the last rewrite
        self.seed = 0

    def teardown(self):
        self.reg.close()
        self.dir.cleanup()

    def journal_size(self):
        path = self.reg.root / ModelRegistry.INDEX_NAME
        return path.stat().st_size if path.exists() else 0

    def written(self, rewritten=False):
        size = self.journal_size()
        if rewritten:
            self.checkpoints = [(size, dict(self.state))]
        elif size != self.checkpoints[-1][0]:
            self.checkpoints.append((size, dict(self.state)))

    def stored(self, key, package, root_version):
        self.reg.store(package)
        self.state[key] = ("available", root_version)
        self.packages[key] = package
        self.files.add(key)
        self.written()

    @rule(model_id=st.sampled_from(IDS), version=st.integers(1, 2), doppler=st.floats(0.0, 0.5))
    def store_full(self, model_id, version, doppler):
        key = (model_id, version)
        self.seed += 1
        package = make_package(model_id, version, doppler=doppler, seed=self.seed)
        if key in self.state:
            with pytest.raises(IntegrityError):
                self.reg.store(package)
        else:
            self.stored(key, package, 0)

    @precondition(lambda self: self.state)
    @rule(data=st.data())
    def store_delta(self, data):
        base_key = data.draw(st.sampled_from(sorted(self.state)))
        key = (base_key[0], base_key[1] + 1)
        if key in self.state:
            return
        base = self.reg.fetch_by_id(*base_key)
        self.seed += 1
        package = apply_delta(base, make_delta(base, seed=self.seed))
        self.stored(key, package, package.root.version)

    @precondition(lambda self: self.state)
    @rule(data=st.data())
    def activate(self, data):
        key = data.draw(st.sampled_from(sorted(self.state)))
        status, root_version = self.state[key]
        if status == "retired":
            with pytest.raises(IntegrityError):
                self.reg.activate(*key)
            return
        self.reg.activate(*key)
        for other, (other_status, other_root) in self.state.items():
            if other_status == "active":
                self.state[other] = ("available", other_root)
        self.state[key] = ("active", root_version)
        self.written()

    @precondition(lambda self: self.state)
    @rule(data=st.data(), status=st.sampled_from(["available", "retired"]))
    def demote(self, data, status):
        key = data.draw(st.sampled_from(sorted(self.state)))
        before, root_version = self.state[key]
        if status == "retired":
            self.reg.retire(*key)
            self.state[key] = ("retired", root_version)
        else:
            self.reg.deactivate(*key)
            if before == "active":
                self.state[key] = ("available", root_version)
        self.written()

    @rule()
    def gc(self):
        needed = {(mid, root) for (mid, _), (status, root) in self.state.items()
                  if root and status != "retired"}
        gone = sorted({key for key, (status, _) in self.state.items()
                       if status == "retired" and key not in needed}
                      | (self.files - set(self.state)))
        assert self.reg.gc() == gone
        for key in gone:
            self.state.pop(key, None)
            self.files.discard(key)
        self.written(rewritten=True)

    @rule(data=st.data(), how=st.sampled_from(["any byte", "last write", "last byte"]))
    def crash(self, data, how):
        self.reg.close()
        sizes = [size for size, _ in self.checkpoints]
        if how == "any byte" or len(sizes) == 1:
            cut = data.draw(st.integers(sizes[0], sizes[-1]))
        else:  # the whole last write is lost, or only its final byte
            cut = sizes[-2] if how == "last write" else sizes[-1] - 1
        path = self.reg.root / ModelRegistry.INDEX_NAME
        if path.exists():
            path.write_bytes(path.read_bytes()[:cut])
        self.state = dict([state for size, state in self.checkpoints if size <= cut][-1])
        self.reg = ModelRegistry(self.dir.name)
        self.written(rewritten=True)

    @invariant()
    def agrees_with_the_model(self):
        reg = self.reg
        assert {(e.model_id, e.version): (e.status, e.root_version) for e in reg.entries()} \
            == self.state
        for model_id in self.IDS:
            live = [v for (mid, v), (status, _) in self.state.items()
                    if mid == model_id and status != "retired"]
            assert reg.previous_version(model_id, math.inf) == (max(live) if live else None)
        for key in self.state:
            assert reg.fetch_by_id(*key).to_bytes() == self.packages[key].to_bytes()
        orphans = sorted(self.files - set(self.state))
        assert reg.orphans() == orphans
        assert reg.verify_all() == sorted(
            [(*key, "ok") for key in self.state]
            + [(*key, "orphan: no index entry") for key in orphans])
        # Each lookup after the first ranks the rows the first one kept, until
        # an operation changes an entry; each must equal a fresh ranking.
        beam = np.linspace(1.0, 2.0, N_ANT)
        for query in (query_descriptor(doppler=0.2), query_descriptor(0.4, math.inf, beam / beam.sum()),
                      query_descriptor(doppler=0.2)):
            live = [(descriptor_divergence(query, self.packages[key].descriptor.input_descriptor),
                     -key[1], key[0])
                    for key, (status, _) in self.state.items() if status != "retired"]
            match = reg.closest_entry(query, ModelKind.CSI_PREDICTOR, math.inf)
            if not live:
                assert match is None
            else:
                div, negv, model_id = min(live)
                assert (match[0].model_id, match[0].version, match[1]) == (model_id, -negv, div)


TestRegistryMachine = RegistryMachine.TestCase
TestRegistryMachine.settings = settings(max_examples=60, stateful_step_count=20, deadline=None,
                                        derandomize=True)
