import contextlib
import gc
import math

import pytest

from stegomail import (AddressFrequencyDistinguisher, BitFunction, ChannelSpec,
                       ConfigError, ConstantGuessDistinguisher, Document,
                       DocumentFrequencyDistinguisher,
                       Mail, ProtocolError, RngState, SystemConfig,
                       benchmark_scaling, build_distinguisher, capacity,
                       channel_goodness_of_fit, ct_oracle, embed_message,
                       eval_bit, extract_message, reliability_estimate,
                       run_game, transmission_rate)
from stegomail import security
from stegomail.channel import sample_id
from stegomail.protocols import ADDRESS1, ADDRESS2, P1_ARRAYS
from stegomail.security import address_set_for, make_fn, output_length

from conftest import MARKOV2, find_key_where

UNIFORM_2 = ChannelSpec.uniform(2)
UNIFORM_4 = ChannelSpec.uniform(4)


def test_system_config_validation():
    with pytest.raises(ConfigError):
        SystemConfig("s9")
    assert SystemConfig("s3", copies=4).copies == 4


def test_output_lengths():
    assert output_length(SystemConfig("p1"), 4) == 4
    assert output_length(SystemConfig("s2", repetition=5), 2) == 10
    assert output_length(SystemConfig("s4", copies=3), 1) == 3
    assert output_length(SystemConfig("s3", copies=7), 2) == 14


def test_st_oracle_response_lengths():
    rng = RngState(1)
    for cfg, bits, expected in [
        (SystemConfig("p1"), 4, 4),
        (SystemConfig("s2", repetition=5), 2, 10),
        (SystemConfig("s4", copies=3), 1, 3),
    ]:
        fn = make_fn(cfg, rng.spawn(0))
        out = embed_message(cfg, fn, [1] * bits, UNIFORM_4, rng.spawn(1))
        assert len(out) == expected


def test_ct_matches_st_length_for_every_system():
    rng = RngState(3)
    for name in ("s1", "s2", "s3", "s4", "p1", "p2"):
        cfg = SystemConfig(name, count=8, copies=3, repetition=5)
        fn = make_fn(cfg, rng.spawn(0))
        st = embed_message(cfg, fn, [0, 1] * 6, UNIFORM_4, rng.spawn(1))
        ct = ct_oracle(UNIFORM_4, address_set_for(cfg), output_length(cfg, 12),
                       rng.spawn(2))
        assert len(st) == len(ct)


def test_ct_oracle_addresses_uniform_and_ticks_sequential():
    rng = RngState(5)
    mails = ct_oracle(UNIFORM_4, P1_ARRAYS, 10_000, rng)
    assert [m.sent_at for m in mails] == list(range(10_000))
    hits = sum(1 for m in mails if m.addresses == (ADDRESS1,))
    assert abs(hits / 10_000 - 0.5) <= 0.02


def test_ct_oracle_point_mass():
    out = ct_oracle(ChannelSpec.point_mass(4), None, 100, RngState(7))
    assert all(d == Document(0) for d in out)


def _ct_oracle_per_draw(spec, arrays, n, rng):
    """Reference covertext oracle: one sample_id and one Document per draw."""
    prev = None
    out = []
    for i in range(n):
        doc = Document(sample_id(spec, prev, rng))
        prev = doc.id
        out.append(doc if arrays is None else Mail(doc, arrays[rng.randrange(2)], i))
    return out


@pytest.mark.parametrize("arrays", [None, P1_ARRAYS], ids=["documents", "mails"])
@pytest.mark.parametrize("spec", [UNIFORM_2, MARKOV2, ChannelSpec.uniform(1024)],
                         ids=["uniform2", "markov2", "uniform1024"])
def test_ct_oracle_builds_one_document_per_distinct_id(spec, arrays, documents_built):
    ref_rng, rng = RngState(11), RngState(11)
    ref = _ct_oracle_per_draw(spec, arrays, 500, ref_rng)
    documents_built.clear()
    out = ct_oracle(spec, arrays, 500, rng)
    assert out == ref
    assert rng.random() == ref_rng.random()
    docs = out if arrays is None else [mail.doc for mail in out]
    assert sorted(documents_built) == sorted({d.id for d in docs})
    assert len({id(d) for d in docs}) == len(documents_built)


def test_ct_oracle_document_marginal_fits_channel():
    rng = RngState(9)
    docs = ct_oracle(MARKOV2, None, 100_000, rng)
    gof = channel_goodness_of_fit(MARKOV2, docs)
    assert gof.pvalue >= 0.01


def test_gof_point_mass_degenerate():
    docs = [Document(0)] * 500
    gof = channel_goodness_of_fit(ChannelSpec.point_mass(4), docs)
    assert gof.pvalue == 1.0
    assert gof.statistic == 0.0


def test_gof_impossible_document_rejects_outright():
    gof = channel_goodness_of_fit(ChannelSpec.point_mass(4), [Document(1)])
    assert gof.pvalue == 0.0


@pytest.mark.parametrize("docs", [[Document(5)], [Document(0), Document(5), Document(1)]],
                         ids=["first", "later"])
@pytest.mark.parametrize("spec", [UNIFORM_2, MARKOV2], ids=["stationary", "markov1"])
def test_gof_document_outside_the_alphabet_rejects_outright(spec, docs):
    gof = channel_goodness_of_fit(spec, docs)
    assert (gof.statistic, gof.dof, gof.pvalue) == (math.inf, 1, 0.0)


def test_gof_statistic_hand_computed():
    docs = [Document(0)] * 60 + [Document(1)] * 40
    gof = channel_goodness_of_fit(UNIFORM_2, docs)
    assert gof.dof == 1
    assert math.isclose(gof.statistic, 4.0)
    assert math.isclose(gof.pvalue, 0.04550026, rel_tol=1e-5)


@pytest.mark.parametrize("spec", [UNIFORM_2, MARKOV2])
def test_gof_of_no_documents_is_a_perfect_fit(spec):
    gof = channel_goodness_of_fit(spec, [])
    assert (gof.statistic, gof.dof, gof.pvalue) == (0.0, 0, 1.0)


def test_gof_markov_grouping():
    spec = ChannelSpec.markov1([[0.5, 0.5], [0.5, 0.5]], [1.0, 0.0])
    docs = [Document(0), Document(0), Document(1), Document(0)]
    # first draw conditioned on initial (prob 1, zero cells dropped),
    # remaining three split between the two rows
    gof = channel_goodness_of_fit(spec, docs)
    assert gof.dof == 2
    assert gof.pvalue > 0


def test_run_game_refuses_tiny_trials():
    cfg = SystemConfig("p1")
    with pytest.raises(ConfigError):
        run_game(ConstantGuessDistinguisher(), cfg, UNIFORM_4, 99, RngState(11))


@pytest.mark.parametrize("game", [run_game])
@pytest.mark.parametrize("bits_per_game", [0, -3])
def test_games_refuse_empty_hiddentexts(game, bits_per_game):
    cfg = SystemConfig("s1")
    with pytest.raises(ConfigError):
        game(DocumentFrequencyDistinguisher(UNIFORM_4), cfg, UNIFORM_4, 100,
             RngState(11), bits_per_game)


def test_constant_distinguisher_has_no_advantage():
    cfg = SystemConfig("p1")
    est = run_game(ConstantGuessDistinguisher(), cfg, UNIFORM_4, 200,
                   RngState(13), bits_per_game=8)
    assert est.value <= est.halfwidth
    assert est.value == 0.0


def test_address_frequency_decide_extremes():
    warden = AddressFrequencyDistinguisher(P1_ARRAYS)
    skewed = [Mail(Document(0), (ADDRESS1,), t) for t in range(100)]
    assert warden.decide(skewed) == 1
    balanced = [Mail(Document(0), (ADDRESS1,) if t % 2 else (ADDRESS2,), t)
                for t in range(100)]
    assert warden.decide(balanced) == 0


def test_address_frequency_rejects_foreign_mail():
    warden = AddressFrequencyDistinguisher(P1_ARRAYS)
    with pytest.raises(ProtocolError):
        warden.decide([Mail(Document(0), ("warden",), 0)])
    with pytest.raises(ProtocolError):
        warden.decide([Mail(Document(0), (ADDRESS1,), 0), Document(1)])


def test_address_frequency_blind_against_random_function_embedder():
    cfg = SystemConfig("p1", random_fn=True)
    warden = build_distinguisher("address-frequency", cfg, UNIFORM_4)
    est = run_game(warden, cfg, UNIFORM_4, 2_000, RngState(15), bits_per_game=100)
    assert est.value <= 0.03


def test_address_frequency_keyed_matches_ct_rejection_rate():
    cfg = SystemConfig("p1")
    warden = build_distinguisher("address-frequency", cfg, UNIFORM_4)
    est = run_game(warden, cfg, UNIFORM_4, 400, RngState(17), bits_per_game=100)
    assert est.value <= 0.05 + est.halfwidth


def test_document_frequency_calibration_on_true_channel():
    warden = DocumentFrequencyDistinguisher(UNIFORM_2, significance=0.05)
    rng = RngState(19)
    guesses = []
    for trial in range(400):
        docs = ct_oracle(UNIFORM_2, None, 100, rng.spawn(trial))
        guesses.append(warden.decide(docs))
    assert 0.01 <= sum(guesses) / 400 <= 0.11


def test_document_frequency_detects_separating_key_s1():
    # when the key's bit function separates the two documents, a constant
    # hiddentext drives every output into one class
    key = find_key_where(lambda fn: eval_bit(fn, Document(0)) == 0
                         and eval_bit(fn, Document(1)) == 1)
    cfg = SystemConfig("s1", count=128)
    warden = DocumentFrequencyDistinguisher(UNIFORM_2)
    docs = embed_message(cfg, BitFunction.keyed(key), [0] * 100,
                         UNIFORM_2, RngState(21))
    assert warden.decide(docs) == 1


def test_document_frequency_attack_beats_s1_beyond_binary_alphabet():
    # on a binary alphabet half of all keys make the bit function constant
    # and s1's output exactly channel-distributed, capping the advantage at
    # 0.5 - significance/2; with four documents the invisible-key share
    # drops to 1/8 and the attack is decisive
    cfg = SystemConfig("s1", count=128)
    warden = build_distinguisher("document-frequency", cfg, UNIFORM_4)
    est = run_game(warden, cfg, UNIFORM_4, 300, RngState(24), bits_per_game=100)
    assert est.value >= 0.5
    assert est.p_ct <= 0.12


def test_document_frequency_blind_against_p1():
    cfg = SystemConfig("p1")
    warden = build_distinguisher("document-frequency", cfg, UNIFORM_2)
    est = run_game(warden, cfg, UNIFORM_2, 400, RngState(23), bits_per_game=100)
    assert est.value <= 0.05 + est.halfwidth


@pytest.mark.parametrize("system", ["p1", "p2"])
@pytest.mark.parametrize("warden_name", ["address-frequency", "document-frequency"])
def test_reduction_bounds_stego_advantage(system, warden_name):
    # the reduction's random-function leg: with a truly random function in
    # place of the PRF, p1 and p2 output exact covertext, so no warden has
    # an advantage beyond the estimate's noise.  The halfwidth is a 95%
    # interval, which a zero advantage leaves 1 time in 20, so the bound
    # is twice it (about 4 standard errors).
    cfg = SystemConfig(system, random_fn=True)
    warden = build_distinguisher(warden_name, cfg, UNIFORM_4)
    est = run_game(warden, cfg, UNIFORM_4, 200, RngState(25), bits_per_game=100)
    assert est.value <= 2 * est.halfwidth


def test_transmission_rates_exact():
    rng = RngState(27)
    assert transmission_rate(SystemConfig("p1"), UNIFORM_4, rng.spawn(0)) == 1.0
    assert transmission_rate(SystemConfig("p2"), UNIFORM_4, rng.spawn(1)) == 1.0
    assert transmission_rate(SystemConfig("s2", repetition=5), UNIFORM_4,
                             rng.spawn(2)) == 0.2
    assert transmission_rate(SystemConfig("s3", copies=4), UNIFORM_4,
                             rng.spawn(3), bits=40) == 1 / 4
    assert transmission_rate(SystemConfig("s4", copies=5), UNIFORM_4,
                             rng.spawn(4)) == 1 / 5
    assert transmission_rate(SystemConfig("s1"), UNIFORM_4, rng.spawn(5)) == 1.0


def test_capacity_values():
    assert capacity(0.0) == 1.0
    assert capacity(1.0) == 1.0
    assert capacity(0.5) == 0.0
    assert abs(capacity(0.25) - 0.18872) <= 1e-5
    for p in (0.1, 0.25, 0.4):
        assert math.isclose(capacity(p), capacity(1 - p))
    with pytest.raises(ConfigError):
        capacity(1.5)
    with pytest.raises(ConfigError):
        capacity(-0.1)


def test_reliability_email_protocols_perfect():
    rng = RngState(29)
    for i, system in enumerate(("p1", "p2")):
        report = reliability_estimate(SystemConfig(system), MARKOV2, bits=64,
                                      trials=200, rng=rng.spawn(i))
        assert report.failed_trials == 0
        assert report.bit_error_rate == 0.0


def test_reliability_rows_add_up_to_the_report():
    cfg = SystemConfig("s4", copies=3, random_fn=True)
    report = reliability_estimate(cfg, UNIFORM_4, bits=20, trials=7, rng=RngState(41))
    assert len(report.rows) == 7
    assert sum(r.bit_errors for r in report.rows) == report.bit_errors
    assert sum(r.failed for r in report.rows) == report.failed_trials
    assert sum(r.samples_drawn for r in report.rows) == report.stats.samples_drawn
    assert sum(r.docs_emitted for r in report.rows) == report.stats.docs_emitted
    assert all(r.docs_emitted == 60 and r.wall_s >= 0.0 for r in report.rows)


def test_reliability_with_a_fixed_function():
    fn = make_fn(SystemConfig("s1"), RngState(43))
    fixed = reliability_estimate(SystemConfig("s1"), UNIFORM_4, bits=16, trials=4,
                                 rng=RngState(43), fn=fn)
    fresh = reliability_estimate(SystemConfig("s1"), UNIFORM_4, bits=16, trials=4,
                                 rng=RngState(43))
    assert fixed.stats.bits_embedded == fresh.stats.bits_embedded == 64
    assert fixed.rows != fresh.rows


@pytest.mark.parametrize("bits, trials", [(0, 5), (8, 0)])
def test_reliability_needs_a_bit_and_a_trial(bits, trials):
    with pytest.raises(ConfigError):
        reliability_estimate(SystemConfig("s1"), UNIFORM_4, bits=bits, trials=trials,
                             rng=RngState(45))


def test_reliability_s2_quarter_failure():
    cfg = SystemConfig("s2", repetition=1, random_fn=True)
    report = reliability_estimate(cfg, ChannelSpec.uniform(2 ** 16), bits=100,
                                  trials=100, rng=RngState(31))
    assert abs(report.bit_error_rate - 0.25) <= 0.02


def test_reliability_s4_binomial_tail():
    cfg = SystemConfig("s4", copies=5, random_fn=True)
    report = reliability_estimate(cfg, ChannelSpec.uniform(2 ** 16), bits=100,
                                  trials=100, rng=RngState(33))
    assert abs(report.bit_error_rate - 106 / 1024) <= 0.01


def test_extract_message_round_trips_every_system():
    rng = RngState(35)
    for name in ("s1", "s3", "p1", "p2"):
        cfg = SystemConfig(name, count=128, copies=3)
        fn = make_fn(cfg, rng.spawn(0))
        m = rng.spawn(1).bits(24)
        out = embed_message(cfg, fn, m, ChannelSpec.uniform(256),
                            rng.spawn(2))
        assert extract_message(cfg, fn, out) == m


def test_extract_message_p1_rejects_foreign_mail():
    cfg = SystemConfig("p1")
    fn = make_fn(cfg, RngState(37))
    with pytest.raises(ProtocolError):
        extract_message(cfg, fn, [Mail(Document(0), ("other",), 0)])


def test_extract_message_p1_reads_the_sequence_in_send_order():
    # A sent p1 sequence is read as it was sent, not routed and merged: two
    # neighbours to different addresses, swapped, leave each mailbox sorted
    # but the sequence out of order.
    cfg = SystemConfig("p1")
    fn = make_fn(cfg, RngState(49))
    mails = embed_message(cfg, fn, RngState(51).bits(24), UNIFORM_4, RngState(53))
    i = next(i for i in range(23) if mails[i].addresses != mails[i + 1].addresses)
    mails[i], mails[i + 1] = mails[i + 1], mails[i]
    with pytest.raises(ProtocolError, match="^mail sequence is not sorted by send date$"):
        extract_message(cfg, fn, mails)


@pytest.mark.parametrize("fails", [False, True], ids=["ok", "raises"])
@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_reliability_pauses_and_restores_the_collector(enabled, fails, monkeypatch):
    seen = []
    round_trip = security._round_trip

    def spy(*args):
        seen.append(gc.isenabled())
        if fails and len(seen) == 2:
            raise ProtocolError("injected")
        return round_trip(*args)

    monkeypatch.setattr(security, "_round_trip", spy)
    was_enabled = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        with (pytest.raises(ProtocolError, match="^injected$") if fails
              else contextlib.nullcontext()):
            reliability_estimate(SystemConfig("p1"), UNIFORM_4, bits=8, trials=3,
                                 rng=RngState(47))
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert seen == [False] * (2 if fails else 3)


def test_benchmark_scaling_smoke():
    report = benchmark_scaling(SystemConfig("p1"), UNIFORM_4,
                               [512, 1024, 2048, 4096], RngState(39), repeats=2)
    assert [row.bits for row in report.rows] == [512, 1024, 2048, 4096]
    for row in report.rows:
        assert row.samples_drawn == row.bits
        assert row.prf_evals == row.bits
    assert 0.5 <= report.embed_slope <= 1.5


# (p_st, p_ct) of one 100-trial s1 game; recorded before the game's two
# sides shared one body.
GOLDEN_S1_GAME = (0.44, 0.05)


def test_s1_game_estimates_are_pinned():
    cfg = SystemConfig("s1", count=128)
    warden = DocumentFrequencyDistinguisher(UNIFORM_2)
    est = run_game(warden, cfg, UNIFORM_2, 100, RngState(20260811))
    assert (est.p_st, est.p_ct) == GOLDEN_S1_GAME
