import pytest

from waringsums import budget
from waringsums.budget import Part


@pytest.fixture
def priced(monkeypatch):
    """A second a unit of time and a byte a unit of size, with limits of 10 of each."""
    monkeypatch.setattr(budget, "RATES", {"time": (10**12, 0), "size": (0, 1)})
    monkeypatch.setattr(budget, "SECONDS", 10)
    monkeypatch.setattr(budget, "BYTES", 10)


def test_the_parts_are_returned_up_to_either_limit(priced):
    parts = (Part("time", 4, "a"), Part("time", 6, "b"), Part("size", 10, "c"))
    assert budget.check(*parts) == parts
    assert budget.check() == ()
    for over, total in ((Part("time", 1, "d"), "11 s and 10 bytes"),
                        (Part("size", 1, "d"), "10 s and 11 bytes")):
        # c holds the whole size limit, a larger share than any other part's
        with pytest.raises(ValueError, match=rf"^predicted {total}, .* 10 size \(0 s, 10 "
                                             r"bytes\) for c$"):
            budget.check(*parts, over)


def test_the_largest_part_is_the_largest_share_of_either_limit(priced):
    # 30 s are 300 % of the time limit and 12 bytes 120 % of the size limit
    with pytest.raises(ValueError) as refused:
        budget.check(Part("size", 12, "twelve bytes"), Part("time", 30, "thirty seconds"))
    assert str(refused.value) == (
        "predicted 30 s and 12 bytes, past the budget of 10 s and 10 bytes; the largest "
        "part is 30 time (30 s, 0 bytes) for thirty seconds")
    # and 11 s are 110 %, 20 bytes 200 %
    with pytest.raises(ValueError, match="the largest part is 20 size .* for twenty bytes$"):
        budget.check(Part("time", 11, "eleven seconds"), Part("size", 20, "twenty bytes"))


def test_a_part_past_the_float_range_is_shown_from_its_log(priced):
    with pytest.raises(ValueError, match=r"predicted 3e\+400 s and 0 bytes, .* is 3e\+400 "
                                         r"time \(3e\+400 s, 0 bytes\) for huge$"):
        budget.check(Part("time", 3 * 10**400, "huge"))
