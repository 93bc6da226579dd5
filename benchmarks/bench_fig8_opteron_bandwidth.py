"""Fig 8: internode Opteron-to-Opteron bandwidth by core pair."""

import pytest

from benchmarks.conftest import emit
from repro.comm.ib import ib_between_cores
from repro.core.artifacts import ARTIFACTS
from repro.units import to_mb_s
from repro.validation import paper_data


def test_fig8_opteron_bandwidth(benchmark):
    fig8 = ARTIFACTS["fig8"]
    data = benchmark(fig8.data)
    near, far = data["cores_1_3_mb_s"], data["cores_0_2_mb_s"]

    assert near[-1] == pytest.approx(paper_data.OPTERON_NEAR_HCA_MB_S, rel=0.01)
    assert far[-1] == pytest.approx(paper_data.OPTERON_FAR_HCA_MB_S, rel=0.01)
    # A mixed pair is limited by its slower endpoint.
    largest = data["sizes_bytes"][-1]
    assert to_mb_s(ib_between_cores(0, 1).effective_bandwidth(largest)) == far[-1]
    # Near pair beats far pair at every size.
    for n, f in zip(near, far):
        assert n >= f

    emit(fig8.render(data))
