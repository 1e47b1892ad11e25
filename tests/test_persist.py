"""Model and snapshot-ring files: bit-exact round trips, corruption errors."""
import json

import numpy as np
import pytest

from advalloc.nets import AdversaryPolicy, AlgorithmPolicy
from advalloc.persist import (
    FORMAT_VERSION,
    PersistError,
    load_model,
    load_ring,
    save_model,
    save_ring,
)
from advalloc.training import SnapshotRing


def seeded_algorithm(seed=3, **kwargs):
    kwargs.setdefault("hidden", (6, 5))
    kwargs.setdefault("encoder_width", 3)
    return AlgorithmPolicy(5, 4, rng=np.random.default_rng(seed), **kwargs)


def seeded_adversary(seed=8):
    return AdversaryPolicy(4, 3, latent_dim=6, hidden=(7, 5),
                           slope=0.05, rng=np.random.default_rng(seed))


def assert_bit_identical(params_a, params_b):
    assert len(params_a) == len(params_b)
    for a, b in zip(params_a, params_b):
        assert a.shape == b.shape
        assert a.tobytes() == b.tobytes()


class TestModelRoundTrip:
    def test_algorithm_parameters_survive(self, tmp_path):
        policy = seeded_algorithm(slope=0.03)
        path = tmp_path / "alg.model"
        save_model(path, policy)
        loaded = load_model(path)
        assert isinstance(loaded, AlgorithmPolicy)
        assert_bit_identical(policy.params, loaded.params)
        assert loaded.slope == policy.slope
        assert loaded.n_users == policy.n_users
        assert loaded.n_prices == policy.n_prices

    def test_adversary_parameters_survive(self, tmp_path):
        policy = seeded_adversary()
        path = tmp_path / "adv.model"
        save_model(path, policy)
        loaded = load_model(path)
        assert isinstance(loaded, AdversaryPolicy)
        assert_bit_identical(policy.params, loaded.params)
        assert loaded.latent_dim == policy.latent_dim

    def test_loaded_policy_reproduces_forward_pass(self, tmp_path):
        policy = seeded_adversary()
        save_model(tmp_path / "m", policy)
        loaded = load_model(tmp_path / "m")
        latents = np.random.default_rng(0).normal(size=(3, policy.latent_dim))
        probs_a, _ = policy.forward(latents)
        probs_b, _ = loaded.forward(latents)
        np.testing.assert_array_equal(probs_a, probs_b)

    def test_save_load_save_is_stable(self, tmp_path):
        save_model(tmp_path / "a", seeded_algorithm())
        save_model(tmp_path / "b", load_model(tmp_path / "a"))
        assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()

    @pytest.mark.parametrize("policy, header", [
        (AlgorithmPolicy(4, 3, hidden=(6, 5), encoder_width=2,
                         rng=np.random.default_rng(1)),
         '{"encoder_width": 2, "format": "advalloc-model", "hidden": [6, 5], '
         '"kind": "algorithm", "n_prices": 3, "n_users": 4, "shapes": [[4, 2], '
         '[3, 2], [10, 6], [6], [6, 5], [5], [5, 3], [3]], "slope": 0.01, '
         '"version": 1}'),
        (AdversaryPolicy(4, 3, latent_dim=6, hidden=(7, 5),
                         rng=np.random.default_rng(2)),
         '{"format": "advalloc-model", "hidden": [7, 5], "kind": "adversary", '
         '"latent_dim": 6, "n_budgets": 3, "n_users": 4, "shapes": [[6, 7], [7], '
         '[7, 5], [5], [5, 12], [12]], "slope": 0.01, "version": 1}'),
    ], ids=["algorithm", "adversary"])
    def test_header_line_is_pinned(self, tmp_path, policy, header):
        path = tmp_path / "m"
        save_model(path, policy)
        assert path.read_bytes().partition(b"\n")[0] == header.encode("ascii")

    def test_rejects_unsupported_object(self, tmp_path):
        with pytest.raises(PersistError, match="cannot save"):
            save_model(tmp_path / "x", object())


def edit_header(path, edit):
    """Rewrite a saved file's JSON header line through edit(header)."""
    head, _, tail = path.read_bytes().partition(b"\n")
    header = json.loads(head)
    edit(header)
    path.write_bytes(json.dumps(header).encode() + b"\n" + tail)


class TestModelCorruption:
    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "m"
        save_model(path, seeded_algorithm())
        data = path.read_bytes()
        path.write_bytes(data[:-16])
        with pytest.raises(PersistError, match="truncated or corrupt"):
            load_model(path)

    def test_trailing_garbage(self, tmp_path):
        path = tmp_path / "m"
        save_model(path, seeded_algorithm())
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(PersistError, match="truncated or corrupt"):
            load_model(path)

    def test_version_mismatch_names_both_versions(self, tmp_path):
        path = tmp_path / "m"
        save_model(path, seeded_algorithm())
        head, _, tail = path.read_bytes().partition(b"\n")
        header = json.loads(head)
        header["version"] = 9
        path.write_bytes(json.dumps(header).encode() + b"\n" + tail)
        with pytest.raises(PersistError) as err:
            load_model(path)
        assert "9" in str(err.value)
        assert str(FORMAT_VERSION) in str(err.value)

    @pytest.mark.parametrize("make", [seeded_algorithm, seeded_adversary])
    @pytest.mark.parametrize("slope", [2.0, -1.0, "NaN"])
    def test_slope_outside_unit_interval(self, tmp_path, make, slope):
        path = tmp_path / "m"
        save_model(path, make())
        head, _, tail = path.read_bytes().partition(b"\n")
        header = json.loads(head)
        header["slope"] = float(slope)
        path.write_bytes(json.dumps(header).encode() + b"\n" + tail)
        with pytest.raises(PersistError, match="slope"):
            load_model(path)

    @pytest.mark.parametrize("make", [seeded_algorithm, seeded_adversary])
    @pytest.mark.parametrize("key", ["hidden", "shapes"])
    def test_missing_key(self, tmp_path, make, key):
        path = tmp_path / "m"
        save_model(path, make())
        edit_header(path, lambda header: header.pop(key))
        with pytest.raises(PersistError, match=f"model header lacks the key '{key}'"):
            load_model(path)

    def test_wrongly_typed_key(self, tmp_path):
        path = tmp_path / "m"
        save_model(path, seeded_algorithm())
        edit_header(path, lambda header: header.update(n_users="3"))
        with pytest.raises(PersistError, match="invalid model"):
            load_model(path)

    def test_not_a_model_file(self, tmp_path):
        path = tmp_path / "m"
        path.write_bytes(b"\x89PNG not json at all\n1234")
        with pytest.raises(PersistError, match="unreadable header"):
            load_model(path)

    def test_ring_file_is_not_a_model(self, tmp_path):
        path = tmp_path / "r"
        save_ring(path, SnapshotRing(2))
        with pytest.raises(PersistError, match="advalloc-model"):
            load_model(path)


class TestNonFiniteParameters:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_model_is_rejected(self, tmp_path, bad):
        policy = seeded_algorithm()
        policy.params[2].flat[1] = bad
        path = tmp_path / "m"
        save_model(path, policy)
        with pytest.raises(PersistError, match="^model holds non-finite parameters$"):
            load_model(path)

    def test_ring_is_rejected(self, tmp_path):
        ring = SnapshotRing(3)
        ring.record(1, [np.arange(4.0)])
        ring.record(2, [np.array([0.0, np.inf, 1.0, 2.0])])
        path = tmp_path / "ring"
        save_ring(path, ring)
        with pytest.raises(PersistError, match="^ring entry holds non-finite parameters$"):
            load_ring(path)


class TestRingRoundTrip:
    def test_entries_survive_in_order(self, tmp_path):
        policy = seeded_adversary()
        ring = SnapshotRing(5)
        for episode in (10, 20, 30):
            policy.step([np.full_like(p, 0.01) for p in policy.params], 1.0)
            ring.record(episode, policy.params)
        path = tmp_path / "ring"
        save_ring(path, ring)
        loaded = load_ring(path)
        assert loaded.capacity == 5
        assert loaded.episodes == (10, 20, 30)
        for original, copy in zip(ring.entries, loaded.entries):
            assert_bit_identical(original.params, copy.params)

    def test_empty_ring(self, tmp_path):
        save_ring(tmp_path / "ring", SnapshotRing(7))
        loaded = load_ring(tmp_path / "ring")
        assert loaded.capacity == 7
        assert len(loaded) == 0

    def test_truncated_ring(self, tmp_path):
        ring = SnapshotRing(2)
        ring.record(1, [np.arange(4.0)])
        path = tmp_path / "ring"
        save_ring(path, ring)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(PersistError, match="truncated or corrupt"):
            load_ring(path)

    def test_overfull_ring_header(self, tmp_path):
        path = tmp_path / "ring"
        header = {"format": "advalloc-ring", "version": FORMAT_VERSION,
                  "capacity": 1, "episodes": [1, 2], "shapes": [[1]]}
        payload = np.zeros(2, dtype="<f8").tobytes()
        path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
        with pytest.raises(PersistError, match="exceed"):
            load_ring(path)


class TestRingHeader:
    @pytest.fixture
    def path(self, tmp_path):
        ring = SnapshotRing(2)
        ring.record(1, [np.arange(4.0)])
        save_ring(tmp_path / "ring", ring)
        return tmp_path / "ring"

    def test_missing_capacity(self, path):
        edit_header(path, lambda header: header.pop("capacity"))
        with pytest.raises(PersistError, match="ring header lacks the key 'capacity'"):
            load_ring(path)

    @pytest.mark.parametrize("key, value", [("capacity", "2"), ("episodes", 5),
                                            ("episodes", [1.5]), ("shapes", [["4"]])])
    def test_wrongly_typed_key(self, path, key, value):
        edit_header(path, lambda header: header.update({key: value}))
        with pytest.raises(PersistError, match="invalid ring"):
            load_ring(path)
