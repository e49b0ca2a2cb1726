"""The traced benchmark run wraps library functions by module attribute
(perfbench/spans.py); a renamed attribute or a changed return shape would
break it without failing any library test."""

import sys
from pathlib import Path

import gapforge.avgop
import gapforge.bounds
import gapforge.irrep
from gapforge.gates import haar_random_gateset
from gapforge.weightlat import enumerate_nontrivial_weights

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import spans  # noqa: E402


def test_traced_ops_match_untraced():
    triple = haar_random_gateset(2, 3, seed=1729)
    pair = haar_random_gateset(2, 2, seed=1729)
    want_g = gapforge.bounds.g_t0(triple, t_override=4)
    want_gap = gapforge.avgop.gap_at_scale(pair, 4)

    recorder = spans.Recorder()
    with spans.installed(recorder):
        # looked up on their modules at call time, as perfbench/workloads.py does
        got_g = gapforge.bounds.g_t0(triple, t_override=4)
        got_gap = gapforge.avgop.gap_at_scale(pair, 4)

    assert got_g == want_g
    assert got_gap == want_gap
    names = {s.name for s in recorder.spans}
    assert {"irrep.image", "avgop.norm", "bounds.g_t0"} <= names
    metrics = spans.layer_metrics([], recorder.spans, 2)
    assert metrics["irrep.image.calls"] > 0


def test_traced_d3_gap_records_images():
    # gap-d3 runs the cosine-sine image path: the gate factors are made once
    # per pass and reach avgop.irrep_matrix(basis, U, ...) by keyword
    pair = haar_random_gateset(3, 2, seed=1729)
    want = gapforge.avgop.gap_at_scale(pair, 3)

    recorder = spans.Recorder()
    with spans.installed(recorder):
        got = gapforge.avgop.gap_at_scale(pair, 3)

    assert got == want
    images = [s for s in recorder.spans if s.name == "irrep.image"]
    weights = {s.attrs["key"].split("/")[0] for s in images}
    canonical = gapforge.avgop._representatives(enumerate_nontrivial_weights(3, 3))
    assert weights == {str(w.entries) for w in canonical}
    metrics = spans.layer_metrics([], recorder.spans, 1)
    # the first gate is diagonal in the pass's normal form and builds none
    assert metrics["irrep.image.calls"] == len(images) == (pair.k - 1) * len(canonical)


def test_cold_builds_record_basis_build_spans():
    # irrep.basis.builds and irrep.basis.s come from these spans: a build
    # that no longer went through irrep.build_basis would read 0
    gapforge.irrep.cached_basis.cache_clear()
    pair = haar_random_gateset(3, 2, seed=1729)
    recorder = spans.Recorder()
    with spans.installed(recorder):
        gapforge.avgop.gap_at_scale(pair, 2)

    builds = [s for s in recorder.spans if s.name == "irrep.basis.build"]
    canonical = gapforge.avgop._representatives(enumerate_nontrivial_weights(3, 2))
    assert len(builds) == len(canonical)
    metrics = spans.layer_metrics(recorder.spans, [], 1)
    assert metrics["irrep.basis.builds"] == len(canonical)
    assert metrics["irrep.basis.s"] > 0


def test_traced_certified_gap_matches_untraced():
    # gap_at_scale certifies the blocks that cannot set the gap; the
    # certificates run in no span, so only the eigensolved blocks are
    # avgop.norm spans (d = 3, t = 4: 2 of 8 computed weights are certified)
    pair = haar_random_gateset(3, 2, seed=1729)
    want = gapforge.avgop.gap_at_scale(pair, 4)

    recorder = spans.Recorder()
    with spans.installed(recorder):
        got = gapforge.avgop.gap_at_scale(pair, 4)

    assert got == want
    canonical = gapforge.avgop._representatives(enumerate_nontrivial_weights(3, 4))
    norms = [s for s in recorder.spans if s.name == "avgop.norm"]
    assert len(canonical) == 8 and len(norms) == 6
    assert [s.name for s in recorder.spans].count("avgop.gap") == 1
