"""The benchmark's traced pipeline runs against this checkout's library.

`bench/layertrace.py` calls the public API (parse, transform, graph to
triples, Turtle write and read, the three analyses, DOT export, and the
`TripleStore` query methods).  Running it on a small log here makes a
removed or renamed name fail in the test suite rather than in a benchmark
run.  Nothing under `bench/` is changed; its work files go to a temporary
directory.
"""

from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_traced_pingpong_pipeline_is_correct(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import layertrace

    result = layertrace.traced_run("pingpong", 1, 20, tmp_path)
    assert result["correct"]
    assert result["failed"] == 0
