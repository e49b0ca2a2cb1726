import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gapforge
import gapforge.gates
from _oracles import brute_force_net, brute_force_scan, extend_level, pu_distance
from gapforge.bounds import universality_heuristic
from gapforge.errors import DomainError, GateFileError, ResourceLimitError
from gapforge.gates import (
    GateSet,
    _pair_distances,
    _scan_words,
    _trace_overlaps,
    _word_count,
    check_unitary,
    empirical_net,
    haar_random_gateset,
    load_gateset,
    make_gateset,
    save_gateset,
    squared_set,
    _haar_unitaries,
    _haar_unitary,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
S = np.diag([1, 1j])


class TestGateSet:
    def test_members_symmetric(self):
        gs = make_gateset(2, [("x", X)], symmetric=True)
        labs = [lab for lab, _ in gs.members()]
        assert labs == ["x", "x^-1"]
        assert gs.size == 2 and gs.k == 1

    def test_members_asymmetric(self):
        gs = make_gateset(2, [("x", X)], symmetric=False)
        assert gs.size == 1
        assert gs.symmetrized().size == 2

    def test_det_normalized(self):
        gs = make_gateset(2, [("x", X)])  # det X = -1
        U = gs.pairs[0][1]
        assert abs(np.linalg.det(U) - 1.0) < 1e-12
        # projectively the same gate
        assert pu_distance(U, X) < 1e-12

    def test_duplicate_labels_rejected(self):
        with pytest.raises(GateFileError):
            make_gateset(2, [("a", X), ("a", Z)])
        with pytest.raises(GateFileError, match="duplicate"):  # both are stored as "1"
            make_gateset(2, [(1, X), ("1", Z)])

    @pytest.mark.parametrize("symmetric", ["false", 0, 1, None, np.bool_(False)])
    def test_symmetric_must_be_a_bool(self, symmetric):
        with pytest.raises(DomainError, match="symmetric must be True or False"):
            make_gateset(2, [("x", X)], symmetric=symmetric)

    def test_nonunitary_rejected(self):
        with pytest.raises(GateFileError):
            make_gateset(2, [("bad", np.array([[1, 0.1], [0, 1]], dtype=complex))])

    def test_repair_window(self):
        wobble = X + 1e-8 * np.ones((2, 2))
        with pytest.raises(GateFileError):
            make_gateset(2, [("w", wobble)])
        gs = make_gateset(2, [("w", wobble)], repair=True)
        U = gs.pairs[0][1]
        assert np.linalg.norm(U.conj().T @ U - np.eye(2), 2) < 1e-12

    def test_non_finite_not_unitary(self):
        # an explicit raise, not the LinAlgError of the SVD that the norm takes
        for x in (np.nan, np.inf):
            with pytest.raises(DomainError, match="U has a non-finite entry"):
                check_unitary(np.diag([1.0, x]), "U")

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            make_gateset(2, [])

    def test_matrices_read_only(self):
        gs = haar_random_gateset(2, 1, seed=0)
        with pytest.raises(ValueError):
            gs.pairs[0][1][0, 0] = 0.0


class TestFileRoundTrip:
    def test_bitwise_round_trip(self, tmp_path):
        gs = haar_random_gateset(3, 2, seed=5)
        p = tmp_path / "gs.json"
        save_gateset(gs, p)
        gs2 = load_gateset(p)
        assert gs2.d == gs.d and gs2.symmetric == gs.symmetric
        for (la, Ua), (lb, Ub) in zip(gs.pairs, gs2.pairs):
            assert la == lb
            assert np.array_equal(Ua, Ub)  # bit-for-bit

    def test_missing_file(self, tmp_path):
        with pytest.raises(GateFileError):
            load_gateset(tmp_path / "nope.json")

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(GateFileError):
            load_gateset(p)

    def test_missing_fields(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"d": 2}))
        with pytest.raises(GateFileError):
            load_gateset(p)

    @pytest.mark.parametrize("field, value, match", [
        ("symmetric", "false", "symmetric must be true or false"),
        ("symmetric", 0, "symmetric must be true or false"),
        ("d", 2.7, "d must be a JSON integer"),
        ("d", 2.0, "d must be a JSON integer"),
        ("d", True, "d must be a JSON integer"),
        ("d", "2", "d must be a JSON integer"),
    ])
    def test_mistyped_fields_rejected(self, tmp_path, field, value, match):
        p = tmp_path / "gs.json"
        save_gateset(haar_random_gateset(2, 2, seed=1), p)
        doc = json.loads(p.read_text())
        doc[field] = value
        p.write_text(json.dumps(doc))
        with pytest.raises(GateFileError, match=match):
            load_gateset(p)

    @pytest.mark.parametrize("labels", [[[1, 2], "g2"], [1, "1"], ["g1", None]])
    def test_labels_must_be_json_strings(self, tmp_path, labels):
        p = tmp_path / "gs.json"
        save_gateset(haar_random_gateset(2, 2, seed=1), p)
        doc = json.loads(p.read_text())
        for gate, label in zip(doc["gates"], labels):
            gate["label"] = label
        p.write_text(json.dumps(doc))
        with pytest.raises(GateFileError, match="a gate label must be a JSON string"):
            load_gateset(p)

    def test_symmetric_false_loads_one_sided(self, tmp_path):
        p = tmp_path / "gs.json"
        save_gateset(haar_random_gateset(2, 2, seed=1, symmetric=False), p)
        assert json.loads(p.read_text())["symmetric"] is False
        assert load_gateset(p).symmetric is False

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("repair", [False, True])
    def test_non_finite_entry_rejected(self, tmp_path, value, repair):
        # Python's JSON parser reads NaN and Infinity; the SVD of such a gate would raise
        p = tmp_path / "gs.json"
        save_gateset(haar_random_gateset(2, 2, seed=1), p)
        doc = json.loads(p.read_text())
        doc["gates"][1]["matrix"][0][1][1] = value
        p.write_text(json.dumps(doc))
        with pytest.raises(GateFileError, match="gate 'g2' has a non-finite entry"):
            load_gateset(p, repair=repair)

    def test_schema_shape(self, tmp_path):
        gs = haar_random_gateset(2, 1, seed=1)
        p = tmp_path / "gs.json"
        save_gateset(gs, p)
        doc = json.loads(p.read_text())
        assert set(doc) == {"d", "gates", "symmetric"}
        entry = doc["gates"][0]["matrix"][0][0]
        assert isinstance(entry, list) and len(entry) == 2


class TestHaarSampler:
    def test_deterministic(self):
        a = haar_random_gateset(2, 2, seed=9)
        b = haar_random_gateset(2, 2, seed=9)
        for (_, Ua), (_, Ub) in zip(a.pairs, b.pairs):
            assert np.array_equal(Ua, Ub)

    def test_unitary_and_special(self):
        gs = haar_random_gateset(4, 3, seed=2)
        for _, U in gs.pairs:
            assert np.linalg.norm(U.conj().T @ U - np.eye(4), 2) < 1e-12
            assert abs(np.linalg.det(U) - 1.0) < 1e-11

    def test_spectrum_spread(self):
        # crude Haar sanity: eigenphases of a sample are a.s. distinct
        U = _haar_unitary(4, np.random.default_rng(3))
        phases = np.sort(np.angle(np.linalg.eigvals(U)))
        assert np.min(np.diff(phases)) > 1e-6

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_batched_draw_is_the_stream_of_single_draws(self, d):
        def one_draw(rng):  # a Ginibre matrix, its QR and the phase fix
            Z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            Q, R = np.linalg.qr(Z / np.sqrt(2.0))
            return Q * (np.diag(R) / np.abs(np.diag(R)))

        rngs = [np.random.default_rng(40 + d) for _ in range(3)]
        got = _haar_unitaries(d, 17, rngs[0])
        assert np.array_equal(got, np.stack([_haar_unitary(d, rngs[1]) for _ in range(17)]))
        assert np.array_equal(got, np.stack([one_draw(rngs[2]) for _ in range(17)]))
        # the generator is left where single draws leave it
        states = [r.bit_generator.state for r in rngs]
        assert states[0] == states[1] == states[2]
        assert np.array_equal(rngs[0].standard_normal(8), rngs[1].standard_normal(8))


class TestPuDistance:
    def test_self_distance(self):
        assert pu_distance(X, X) == pytest.approx(0.0, abs=1e-12)

    def test_phase_invariance(self):
        U = _haar_unitary(3, np.random.default_rng(7))
        assert pu_distance(U, np.exp(0.71j) * U) == pytest.approx(0.0, abs=1e-9)

    def test_identity_to_x(self):
        # eigenphases of X are {0, pi}: optimal recentering leaves sqrt(2) chords
        assert pu_distance(np.eye(2), X) == pytest.approx(np.sqrt(2), abs=1e-9)

    def test_symmetry(self):
        rng = np.random.default_rng(8)
        g, h = _haar_unitary(3, rng), _haar_unitary(3, rng)
        assert pu_distance(g, h) == pytest.approx(pu_distance(h, g), abs=1e-9)

    def test_left_invariance(self):
        rng = np.random.default_rng(9)
        g, h, w = (_haar_unitary(2, rng) for _ in range(3))
        assert pu_distance(w @ g, w @ h) == pytest.approx(pu_distance(g, h), abs=1e-9)

    def test_small_rotation(self):
        phi = 1e-3
        U = np.diag([np.exp(1j * phi), np.exp(-1j * phi)])
        # eigenphases {phi, -phi}: the covering arc has length 2 phi, the
        # optimal center is 0, and the farthest chord is 2 sin(phi / 2)
        assert pu_distance(np.eye(2), U) == pytest.approx(2 * np.sin(phi / 2), rel=1e-6)

    def test_rejects_nonunitary(self):
        with pytest.raises(DomainError):
            pu_distance(np.eye(2) * 1.01, np.eye(2))

    @settings(max_examples=25)
    @given(st.integers(0, 10_000))
    def test_triangle_inequality(self, seed):
        rng = np.random.default_rng(seed)
        g, h, w = (_haar_unitary(2, rng) for _ in range(3))
        assert pu_distance(g, h) <= pu_distance(g, w) + pu_distance(w, h) + 1e-9


class TestSquaredSet:
    def test_squares(self):
        gs = make_gateset(2, [("h", H)])
        sq = squared_set(gs)
        assert sq.pairs[0][0] == "h^2"
        # H^2 = I, so the squared pair is projectively trivial
        assert pu_distance(sq.pairs[0][1], np.eye(2)) < 1e-9

    def test_haar_squares(self):
        gs = haar_random_gateset(3, 2, seed=13)
        sq = squared_set(gs)
        for (_, U), (_, V) in zip(gs.pairs, sq.pairs):
            assert np.allclose(V, U @ U)


class TestUniversality:
    def test_commuting_diagonal_not_universal(self):
        th = np.exp(1j * np.array([0.3, -0.3]))
        gs = make_gateset(2, [("a", np.diag(th)), ("b", np.diag(th**2))])
        assert universality_heuristic(gs) == "not-universal"

    def test_haar_pair_universal(self, haar_pair_d2):
        assert universality_heuristic(haar_pair_d2) == "universal-likely"

    def test_finite_group_not_universal(self):
        # the Pauli pair generates a finite subgroup
        gs = make_gateset(2, [("x", X), ("z", Z)])
        assert universality_heuristic(gs) == "not-universal"


def test_import_leaves_operator_layers_out():
    # gates sits below irrep and avgop (irrep imports it), so it must not
    # import them back
    script = "import sys, gapforge.gates; print('gapforge.avgop' in sys.modules)"
    src = str(Path(gapforge.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


class TestEmpiricalNet:
    def test_identity_words_cover_everything_at_eps_2(self, haar_pair_d2):
        # D is bounded by 2, so eps = 2 means full coverage at any length
        est = empirical_net(haar_pair_d2, length=1, eps=2.0, samples=10, seed=1)
        assert est.covered_fraction == 1.0

    def test_monotone_in_length(self, haar_pair_d2):
        f = [
            empirical_net(haar_pair_d2, length=l, eps=0.6, samples=40, seed=3).covered_fraction
            for l in (1, 3, 5)
        ]
        assert f[0] <= f[1] <= f[2]

    def test_max_distance_decreases(self, haar_pair_d2):
        a = empirical_net(haar_pair_d2, length=1, eps=0.5, samples=30, seed=4)
        b = empirical_net(haar_pair_d2, length=4, eps=0.5, samples=30, seed=4)
        assert b.max_observed_distance <= a.max_observed_distance + 1e-12

    def test_length_one_matches_pu_distance(self, haar_pair_d2):
        # words of length <= 1 are the identity and the 2k letters; the
        # targets are the same Haar draws empirical_net takes from its seed
        est = empirical_net(haar_pair_d2, length=1, eps=0.5, samples=20, seed=8)
        rng = np.random.default_rng(8)
        targets = [_haar_unitary(2, rng) for _ in range(20)]
        words = [np.eye(2)] + [U for _, U in haar_pair_d2.members()]
        want = max(min(pu_distance(w, T) for w in words) for T in targets)
        assert est.max_observed_distance == pytest.approx(want, abs=1e-12)

    def test_zero_samples_warns(self, haar_pair_d2):
        with pytest.warns(UserWarning, match="samples=0"):
            est = empirical_net(haar_pair_d2, length=2, eps=0.5, samples=0)
        assert est.covered_fraction == 1.0

    def test_word_cap(self, haar_pair_d2):
        with pytest.raises(ResourceLimitError):
            empirical_net(haar_pair_d2, length=30, eps=0.5, samples=1, word_cap=1000)

    def test_huge_length_refused_with_a_short_message(self, haar_pair_d2):
        # 4 * 3^9999 words: the refusal must not format that count in full
        with pytest.raises(ResourceLimitError, match="more than the cap 10000000") as info:
            empirical_net(haar_pair_d2, length=10_000, eps=0.5, samples=10)
        assert len(str(info.value)) < 200

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_word_count_stops_past_the_cap(self, k):
        gs = haar_random_gateset(2, k, seed=k)
        for length in range(5):
            n = _words(gs, length).shape[0]
            assert _word_count(2 * k, length) == n
            assert _word_count(2 * k, length, cap=n) == n
            assert _word_count(2 * k, length, cap=n - 1) > n - 1
        # a length of 10^7 is counted only up to the first level past the cap
        assert 10**7 < _word_count(2 * k, 10**7, cap=10**7) <= 2 * k * 10**7 + 1

    def test_deterministic(self, haar_pair_d2):
        a = empirical_net(haar_pair_d2, length=3, eps=0.7, samples=25, seed=6)
        b = empirical_net(haar_pair_d2, length=3, eps=0.7, samples=25, seed=6)
        assert a == b

    def test_domain_errors(self, haar_pair_d2):
        with pytest.raises(DomainError):
            empirical_net(haar_pair_d2, length=2, eps=0.0, samples=5)
        with pytest.raises(DomainError, match="eps must be positive, got nan"):
            empirical_net(haar_pair_d2, length=2, eps=float("nan"), samples=10)
        with pytest.raises(DomainError, match="eps must be finite, got inf"):
            empirical_net(haar_pair_d2, length=2, eps=float("inf"), samples=10)
        with pytest.raises(DomainError):
            empirical_net(haar_pair_d2, length=-1, eps=0.5, samples=5)
        with pytest.raises(DomainError):
            empirical_net(haar_pair_d2, length=2, eps=0.5, samples=-2)

    def test_negative_seed_and_word_cap_are_domain_errors(self, haar_pair_d2):
        # numpy refuses a negative seed with a ValueError, and a negative cap
        # is no resource limit: both are argument errors
        with pytest.raises(DomainError, match="seed must be >= 0, got -1"):
            empirical_net(haar_pair_d2, length=2, eps=0.5, samples=10, seed=-1)
        with pytest.raises(DomainError, match="word_cap must be >= 0, got -1"):
            empirical_net(haar_pair_d2, length=2, eps=0.5, samples=10, word_cap=-1)
        with pytest.raises(DomainError, match="seed must be >= 0, got -1"):
            haar_random_gateset(2, 2, seed=-1)


def _words(gs, length):
    """Every word of length <= `length` over the symmetric set, in
    empirical_net's order."""
    mem = gs.symmetrized().members()
    mats = np.stack([U for _, U in mem])
    level, last = np.eye(gs.d, dtype=np.complex128)[None], np.array([-1])
    out = [level]
    for _ in range(length):
        level, last = extend_level(level, last, mats, gs.k)
        out.append(level)
    return np.concatenate(out)


def _with_first_target(d, seed):
    # its gate t is, up to phase, the first Haar target of empirical_net(seed)
    t = _haar_unitary(d, np.random.default_rng(seed))
    u = _haar_unitary(d, np.random.default_rng(seed + 1))
    return make_gateset(d, [("t", t), ("u", u)])


NET_SETS = {
    "haar-d2": lambda: haar_random_gateset(2, 2, seed=1729),
    "haar-d2-asym": lambda: haar_random_gateset(2, 2, seed=5, symmetric=False),
    "haar-d3": lambda: haar_random_gateset(3, 2, seed=1729),
    "haar-d3-asym": lambda: haar_random_gateset(3, 2, seed=6, symmetric=False),
    "haar-d4": lambda: haar_random_gateset(4, 2, seed=7),
    "haar-d4-asym": lambda: haar_random_gateset(4, 2, seed=8, symmetric=False),
    "pauli": lambda: make_gateset(2, [("x", X), ("z", Z)]),
    "h-s": lambda: make_gateset(2, [("h", H), ("s", S)]),
    "h-s-asym": lambda: make_gateset(2, [("h", H), ("s", S)], symmetric=False),
    "with-identity": lambda: make_gateset(
        3, [("e", np.eye(3)), ("u", _haar_unitary(3, np.random.default_rng(9)))]),
    "word-is-target-d2": lambda: _with_first_target(2, 12),
    "word-is-target-d3": lambda: _with_first_target(3, 12),
}


class TestNetMatchesBruteForce:
    """The trace-bound prune changes which pairs are eigensolved, never the
    result: every NetEstimate field equals the brute-force scan's."""

    @pytest.mark.parametrize("name", sorted(NET_SETS))
    @pytest.mark.parametrize("length", [0, 1, 2, 6])
    def test_estimate_bit_identical(self, name, length):
        gs = NET_SETS[name]()
        got = empirical_net(gs, length, 0.45, samples=24, seed=12)
        assert got == brute_force_net(gs, length, 0.45, samples=24, seed=12)

    def test_word_equal_to_target_gives_zero(self):
        gs = NET_SETS["word-is-target-d2"]()
        est = empirical_net(gs, 1, 1e-6, samples=24, seed=12)
        assert est.covered_fraction == 1 / 24

    @pytest.mark.parametrize("name", ["pauli", "h-s", "haar-d2", "haar-d3", "with-identity"])
    @pytest.mark.parametrize("batch", [1, 7, 30, 91, 65536])
    def test_per_target_bit_identical_across_chunkings(self, name, batch, monkeypatch):
        # a third of the targets are words themselves (D = 0, and in the
        # finite groups tied with many other words), the rest Haar draws
        gs = NET_SETS[name]()
        words = _words(gs, 5)
        rng = np.random.default_rng(3)
        targets = np.concatenate([
            words[rng.choice(words.shape[0], 10, replace=False)],
            np.stack([_haar_unitary(gs.d, rng) for _ in range(20)]),
        ])
        want = np.full(30, np.inf)
        brute_force_scan(words, targets, want)
        monkeypatch.setattr(gapforge.gates, "_BATCH", batch)
        got = np.full(30, np.inf)
        _scan_words(words, targets, got)
        assert np.array_equal(got, want)

    def test_exact_distances_only_for_words_that_can_win(self, monkeypatch):
        # at d = 2 the bound is D^2 itself, so once each target has the exact
        # D of its smallest-bound word, no other word is within the slack
        gs = haar_random_gateset(2, 2, seed=1729)
        words = _words(gs, 6)
        rng = np.random.default_rng(4)
        targets = np.stack([_haar_unitary(2, rng) for _ in range(40)])
        pairs = []

        def counted(w, t):
            pairs.append(w.shape[0])
            return _pair_distances(w, t)

        monkeypatch.setattr(gapforge.gates, "_pair_distances", counted)
        best = np.full(40, np.inf)
        _scan_words(words, targets, best)
        n_chunks = -(-words.shape[0] // (gapforge.gates._BATCH // 40))
        assert sum(pairs) <= 40 * n_chunks
        want = np.full(40, np.inf)
        brute_force_scan(words, targets, want)
        assert np.array_equal(best, want)

    @pytest.mark.parametrize("d, batch", [(2, 65536), (2, 500), (3, 65536), (3, 500)])
    def test_no_exact_distance_that_cannot_lower_best(self, d, batch, monkeypatch):
        # best is already the minimum: a pair whose bound exceeds best^2 plus
        # the slack cannot lower it and must not be eigensolved
        gs = haar_random_gateset(d, 2, seed=1729)
        words = _words(gs, 5 if d == 2 else 4)
        rng = np.random.default_rng(5)
        targets = np.stack([_haar_unitary(d, rng) for _ in range(30)])
        best = np.full(30, np.inf)
        brute_force_scan(words, targets, best)
        want = best.copy()
        seen = []

        def counted(w, t):
            seen.append((w, t))
            return _pair_distances(w, t)

        monkeypatch.setattr(gapforge.gates, "_pair_distances", counted)
        monkeypatch.setattr(gapforge.gates, "_BATCH", batch)
        _scan_words(words, targets, best)
        assert np.array_equal(best, want)
        W = np.concatenate([w for w, _ in seen])
        T = np.concatenate([t for _, t in seen])
        s = np.array([np.flatnonzero((targets == t).all(axis=(1, 2)))[0] for t in T])
        bound_sq = 2.0 - (2.0 / d) * np.abs(np.einsum("nab,nab->n", W.conj(), T))
        assert np.all(bound_sq <= want[s] ** 2 + gapforge.gates._PRUNE_SLACK)

    def test_deepest_level_never_held(self):
        # words of length 10 alone, held as one array, are 78 732 x 64 bytes
        import tracemalloc

        gs = haar_random_gateset(2, 2, 7)
        tracemalloc.start()
        try:
            empirical_net(gs, 10, 0.3, 100, seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 6.4e6

    def test_one_window_per_level_held(self):
        # length 12 is 1 062 881 words; its level 11 alone, held as one
        # array, is 236 196 x 64 bytes
        import tracemalloc

        gs = haar_random_gateset(2, 2, 7)
        tracemalloc.start()
        try:
            empirical_net(gs, 12, 0.3, 100, seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    def test_long_words_at_k1_match_brute_force(self):
        # 5000 levels of two words each, far past the recursion limit: the
        # traversal must keep one level per stack entry, not per Python frame
        gs = haar_random_gateset(2, 1, seed=3)
        got = empirical_net(gs, 5000, 0.2, samples=4, seed=2)
        assert got == brute_force_net(gs, 5000, 0.2, samples=4, seed=2)

    def test_memory_bounded_by_chunks(self):
        # one unchunked (words x targets) trace block at length 8 and 800
        # targets would be 8748 x 800 complex entries, 112 MB
        import tracemalloc

        gs = haar_random_gateset(2, 2, seed=1729)
        tracemalloc.start()
        try:
            empirical_net(gs, 8, 0.5, samples=800, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8e6


class TestTraceBound:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_lower_bound_on_haar_pairs(self, d):
        rng = np.random.default_rng(d)
        words = np.stack([_haar_unitary(d, rng) for _ in range(60)])
        targets = np.stack([_haar_unitary(d, rng) for _ in range(50)])
        bound_sq = 2.0 - (2.0 / d) * _trace_overlaps(targets, words).T
        bound = np.sqrt(np.maximum(bound_sq, 0.0))
        w, t = np.indices(bound.shape).reshape(2, -1)
        D = _pair_distances(words[w], targets[t]).reshape(bound.shape)
        assert np.all(bound <= D + 1e-13)

    def test_equality_at_d2(self):
        # near pairs too: targets a small rotation exp(i s G) away from a word
        rng = np.random.default_rng(2)
        words = np.stack([_haar_unitary(2, rng) for _ in range(400)])
        near = []
        for W, scale in zip(words, np.geomspace(1e-3, 3.0, 400)):
            G = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            w, V = np.linalg.eigh(G + G.conj().T)
            near.append(W @ (V * np.exp(1j * scale * w / np.abs(w).max())) @ V.conj().T)
        targets = np.stack(near)
        bound = np.sqrt(np.maximum(2.0 - _trace_overlaps(targets, words).diagonal(), 0.0))
        D = _pair_distances(words, targets)
        keep = D >= 1e-3
        assert keep.sum() > 350
        assert np.max(np.abs(bound[keep] - D[keep])) <= 1e-12
