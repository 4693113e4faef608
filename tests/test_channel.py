import math

import pytest

from stegomail import (ChannelSpec, ConfigError, Document, History, RngState,
                       dump_channel_spec, load_channel_spec, min_entropy, prob,
                       sample)

from stegomail.channel import sample_id

from conftest import MARKOV2


def draw_many(spec, h, rng, n):
    return [sample(spec, h, rng).id for _ in range(n)]


def test_uniform_sample_frequencies():
    spec = ChannelSpec.uniform(4)
    ids = draw_many(spec, History(), RngState(1), 10_000)
    for doc_id in range(4):
        assert abs(ids.count(doc_id) / 10_000 - 0.25) <= 0.02


def test_point_mass_always_hits_target():
    spec = ChannelSpec.stationary([1.0, 0.0, 0.0, 0.0])
    ids = draw_many(spec, History(), RngState(2), 1_000)
    assert set(ids) == {0}


def test_markov_row_frequency():
    h = History([Document(0), Document(1)])
    ids = draw_many(MARKOV2, h, RngState(3), 10_000)
    # row for prev=1 is (0.5, 0.5); use prev=0 for the (0.9, 0.1) row
    h0 = History([Document(0)])
    ids0 = draw_many(MARKOV2, h0, RngState(3), 10_000)
    assert abs(ids0.count(0) / 10_000 - 0.9) <= 0.02
    assert abs(ids.count(0) / 10_000 - 0.5) <= 0.02


def test_sample_does_not_mutate_history():
    h = History([Document(1)])
    sample(MARKOV2, h, RngState(4))
    assert h.ids() == [1]


def test_prob_uniform_and_point_mass():
    uniform8 = ChannelSpec.uniform(8)
    for i in range(8):
        assert prob(uniform8, History(), Document(i)) == 0.125
    pm = ChannelSpec.point_mass(2)
    assert prob(pm, History(), Document(0)) == 1.0
    assert prob(pm, History(), Document(1)) == 0.0


def test_prob_markov_reads_conditioning_row():
    spec = ChannelSpec.markov1([[0.5, 0.5, 0.0], [1.0, 0.0, 0.0], [0.3, 0.7, 0.0]],
                               [1.0, 0.0, 0.0])
    h = History([Document(2)])
    assert prob(spec, h, Document(1)) == 0.7
    assert prob(spec, History(), Document(0)) == 1.0


def test_prob_rejects_foreign_document():
    with pytest.raises(ConfigError):
        prob(ChannelSpec.uniform(4), History(), Document(4))


def test_min_entropy_values():
    assert min_entropy(ChannelSpec.uniform(1024), History()) == 10.0
    assert min_entropy(ChannelSpec.point_mass(4), History()) == 0.0
    assert min_entropy(ChannelSpec.stationary([0.5, 0.25, 0.25]), History()) == 1.0


def test_min_entropy_exact_for_powers_of_two():
    for m in range(1, 12):
        assert min_entropy(ChannelSpec.uniform(2 ** m), History()) == float(m)


def test_load_channel_spec_stationary():
    spec = load_channel_spec(
        '{"kind": "stationary", "alphabet_size": 4,'
        ' "probs": ["0.25", "0.25", "0.25", "0.25"]}')
    assert spec.kind == "stationary"
    assert spec.alphabet_size == 4
    assert spec.probs == (0.25, 0.25, 0.25, 0.25)


def test_load_channel_spec_markov():
    spec = load_channel_spec(
        '{"kind": "markov1", "alphabet_size": 2,'
        ' "matrix": [["0.9", "0.1"], ["0.5", "0.5"]], "initial": [0.5, 0.5]}')
    assert spec.kind == "markov1"
    assert spec.matrix[0] == (0.9, 0.1)


def test_load_rejects_bad_row_sum():
    with pytest.raises(ConfigError):
        load_channel_spec('{"kind": "stationary", "alphabet_size": 2, "probs": [0.5, 0.4]}')


def test_load_rejects_negative_probability():
    with pytest.raises(ConfigError):
        load_channel_spec('{"kind": "stationary", "alphabet_size": 2, "probs": [1.5, -0.5]}')


def test_load_rejects_garbage():
    with pytest.raises(ConfigError):
        load_channel_spec("not json")
    with pytest.raises(ConfigError):
        load_channel_spec('{"kind": "quantum", "alphabet_size": 2, "probs": [0.5, 0.5]}')
    with pytest.raises(ConfigError):
        load_channel_spec('{"kind": "stationary", "alphabet_size": 3, "probs": [0.5, 0.5]}')


def test_dump_load_round_trip():
    for spec in (ChannelSpec.stationary([0.5, 0.25, 0.25]), MARKOV2):
        again = load_channel_spec(dump_channel_spec(spec))
        assert again.kind == spec.kind
        assert again.alphabet_size == spec.alphabet_size
        assert again.probs == spec.probs
        assert again.matrix == spec.matrix
        assert again.initial == spec.initial


@pytest.mark.parametrize("spec,h", [
    (ChannelSpec.uniform(4), History()),
    (ChannelSpec.stationary([0.7, 0.2, 0.1]), History()),
    (MARKOV2, History([Document(0)])),
    (MARKOV2, History([Document(1)])),
    (ChannelSpec.point_mass(4), History()),
])
def test_sampling_consistency_against_prob(spec, h):
    n = 100_000
    rng = RngState(5)
    counts = [0] * spec.alphabet_size
    for _ in range(n):
        counts[sample(spec, h, rng).id] += 1
    for doc_id in range(spec.alphabet_size):
        p = prob(spec, h, Document(doc_id))
        bound = 4 * math.sqrt(p * (1 - p) / n)
        assert abs(counts[doc_id] / n - p) <= bound


def test_rng_determinism_and_spawning():
    a = draw_many(ChannelSpec.uniform(64), History(), RngState(9), 1_000)
    b = draw_many(ChannelSpec.uniform(64), History(), RngState(9), 1_000)
    assert a == b
    child1 = draw_many(ChannelSpec.uniform(64), History(), RngState(9).spawn(0), 100)
    child2 = draw_many(ChannelSpec.uniform(64), History(), RngState(9).spawn(1), 100)
    assert child1 != child2
    assert draw_many(ChannelSpec.uniform(64), History(), RngState(9).spawn(0), 100) == child1


def test_history_append_grows_by_one():
    h = History()
    for i in range(5):
        h.append(Document(i))
        assert len(h) == i + 1
        assert h.last == Document(i)
    assert h.ids() == [0, 1, 2, 3, 4]


def test_document_canonical_bytes_distinct():
    assert Document(1).to_bytes() != Document(2).to_bytes()
    assert Document(1, b"x").to_bytes() != Document(1).to_bytes()
    with pytest.raises(ConfigError):
        Document(-1)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_load_rejects_non_finite_probability(bad):
    with pytest.raises(ConfigError, match="non-finite"):
        load_channel_spec(
            '{"kind": "stationary", "alphabet_size": 2, "probs": ["%s", "1.0"]}' % bad)
    with pytest.raises(ConfigError, match="non-finite"):
        ChannelSpec.markov1([[0.5, 0.5], [float(bad), 1.0]], [0.5, 0.5])


class _FixedDraw:
    """Stands in for an RngState whose next draw is `u`."""

    def __init__(self, u: float) -> None:
        self.u = u

    def random(self) -> float:
        return self.u


def test_cdf_short_of_one_never_draws_past_the_alphabet():
    top = 1.0 - 2.0 ** -53  # the largest value random() can return
    spec = ChannelSpec.stationary([0.5, 0.5 - 1e-10])
    assert sample_id(spec, None, _FixedDraw(top)) == 1
    # zero-probability documents after the last positive one stay unreachable
    spec = ChannelSpec.stationary([0.25, 0.75 - 1e-10, 0.0, 0.0])
    assert sample_id(spec, None, _FixedDraw(top)) == 1
    chain = ChannelSpec.markov1([[0.5, 0.5 - 1e-10], [1.0, 0.0]], [1.0 - 1e-10, 0.0])
    assert sample_id(chain, None, _FixedDraw(top)) == 0
    assert sample_id(chain, 0, _FixedDraw(top)) == 1


def test_cdf_pin_keeps_in_range_draws():
    spec = ChannelSpec.stationary([0.5, 0.5 - 1e-10])
    for u in (0.0, 0.25, 0.5 - 1e-12, 0.5, 0.9):
        assert sample_id(spec, None, _FixedDraw(u)) == (0 if u < 0.5 else 1)
