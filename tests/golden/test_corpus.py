"""The golden corpus: every cell replays to its recorded digests.

``corpus.json`` (see :mod:`tests.golden.corpus`) pins per-run metrics and
full event traces across the zoo, the policy families, and the feature
toggles, plus serving and co-scheduling reports.  It is the reference the
hot paths are checked against: a change that moves any cell has changed
what the simulator computes.

Cells that another suite already runs with the identical call are asserted
there instead of being run twice: the plain ``sentinel`` cells in
``test_attribution_differential.py::TestExactSumOnZoo``, the ``always``
cells in ``test_golden_trace.py::TestAdmissionByteIdentity``, the
``insight`` cells in ``test_insight_differential.py``'s ``collected``
fixture, and the dcgan RAS storm in
``test_ras_resilience.py::TestStormDeterminism``.
"""

import pytest

from tests.golden.corpus import CELLS, OBSERVING, SYSTEM_CELLS, Cell, load, run_cell

RECORDED = load()

ASSERTED_ELSEWHERE = {
    cell
    for cell in CELLS
    if cell.variant in OBSERVING
    or (cell.policy == "sentinel" and cell.variant == "plain")
} | {Cell("sentinel", "dcgan", variant="ras")}


class TestCorpusShape:
    def test_every_cell_is_recorded(self):
        assert len(CELLS) == 87
        assert [cell.key for cell in SYSTEM_CELLS] == [
            "serve/steady",
            "serve/overload",
            "serve/failure",
            "serve/blackout",
            "concurrent/ial/dcgan+sentinel/lstm/0.2",
        ]
        assert sorted(RECORDED) == sorted(
            cell.key for cell in CELLS + SYSTEM_CELLS
        )

    def test_every_toggle_moves_the_metrics(self):
        # A toggle whose metrics equal its plain cell's pins nothing new: a
        # disabled config builds no subsystem at all.
        for cell in CELLS:
            if cell.variant == "plain" or cell.variant in OBSERVING:
                continue
            plain = RECORDED[cell.plain().key]
            assert RECORDED[cell.key]["metrics"] != plain["metrics"], cell.key

    def test_always_admit_keeps_the_plain_trace(self):
        for cell in CELLS:
            if cell.variant in OBSERVING and cell.plain().key in RECORDED:
                plain = RECORDED[cell.plain().key]
                assert RECORDED[cell.key]["trace"] == plain["trace"], cell.key


@pytest.mark.parametrize(
    "cell",
    [cell for cell in CELLS if cell not in ASSERTED_ELSEWHERE],
    ids=lambda cell: cell.key,
)
def test_cell_replays_its_recorded_digests(cell):
    assert run_cell(cell) == RECORDED[cell.key]


@pytest.mark.parametrize("cell", SYSTEM_CELLS, ids=lambda cell: cell.key)
def test_system_cell_replays_its_recorded_digests(cell):
    assert cell.digests() == RECORDED[cell.key]
