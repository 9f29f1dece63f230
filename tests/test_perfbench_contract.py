"""The verify-paper claim count that the benchmark's workload checks."""

from pathlib import Path

from graded_leibniz.verification import all_claim_thunks

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_claim_count_matches_the_benchmark(monkeypatch):
    # perfbench counts any other claim total as failed operations, so a
    # change to the number of claims must come with a benchmark change
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from workloads import VERIFY_PAPER_CLAIMS

    assert len(all_claim_thunks()) == VERIFY_PAPER_CLAIMS
