"""End-to-end acceptance rows.

Each criterion prints its one-line verdict with the measured values so a
bare pytest run doubles as the reproduction log.
"""

import pytest

from sadicsets.acceptance import CRITERIA

# Work a row must report at seed 0: a faster codec must do the same
# roundtrips and compare the same pairs, not fewer.
PINNED_OBSERVED = {
    "codec-bijection": "330000 roundtrips, 15373 distinct pairs",
}


@pytest.mark.parametrize(
    "name,fn", CRITERIA, ids=[name for name, _ in CRITERIA]
)
def test_criterion(name, fn, capsys):
    if "seed" in fn.__code__.co_varnames:
        result = fn(seed=0)
    else:
        result = fn()
    with capsys.disabled():
        print(result.line())
    assert result.passed, result.line()
    if name in PINNED_OBSERVED:
        assert result.observed == PINNED_OBSERVED[name]
