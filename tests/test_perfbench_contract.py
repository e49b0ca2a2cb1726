"""The traced benchmark run wraps library functions by module attribute
(perfbench/spans.py); a renamed attribute or a changed return shape would
break it without failing any library test."""

import sys
from pathlib import Path

import gapforge.avgop
import gapforge.bounds
from gapforge.gates import haar_random_gateset

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
