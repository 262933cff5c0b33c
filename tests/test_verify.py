from __future__ import annotations

import gc
import random
import tracemalloc
from datetime import date, datetime, time, timedelta, timezone
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modaudit.aggregate import Period
from modaudit import verify
from modaudit.report import SEVERITY_ORDER, Severity, emit_report
from modaudit.sor import AutomatedDecision, CategoryTaxonomy, ContentType, DecisionType
from modaudit.verify import (
    DEFAULT_RECONSTRUCTED_GROUND,
    KeywordClassifier,
    LinkageError,
    LinkConfig,
    ModerationEvent,
    ReconstructedSor,
    VerificationFinding,
    VerificationFindings,
    VerificationKind,
    VisibilityStatus,
    _finding_key,
    link,
    link_outcomes,
    marker_token,
    reconstruct,
    verify_diff,
)

from .conftest import make_record
from .oracles import (
    CODES,
    SPAN_DAYS,
    SPAN_START,
    _pair_score,
    naive_emit_report,
    naive_link,
    naive_reconstruct,
    naive_verify_diff,
    random_event,
)
from .test_report import FINDING_OBJECTS, TEXT

WINDOW = Period(start=date(2024, 1, 1), end=date(2024, 2, 1))
UTC = timezone.utc


def make_event(**overrides) -> ModerationEvent:
    base = dict(
        content_id="c-0000001",
        puid="p-0000001",
        content_type=ContentType.TEXT,
        content_created=date(2024, 1, 10),
        moderated_at=datetime(2024, 1, 12, 8, 0, 0, tzinfo=UTC),
        visibility_status=VisibilityStatus.REMOVED,
        platform_categories=("hate_speech",),
        automated_detection=False,
        automated_decision=AutomatedDecision.NOT_AUTOMATED,
        annotations=(),
        payload=f"posted text {marker_token('hate_speech')}",
    )
    base.update(overrides)
    return ModerationEvent(**base)


@pytest.fixture
def classifier(taxonomy):
    return KeywordClassifier.from_taxonomy(taxonomy)


class TestClassify:
    def test_marker_hit_names_its_category(self, classifier):
        assert classifier.category(make_event()) == "hate_speech"

    def test_no_marker_names_no_category(self, classifier):
        assert classifier.category(make_event(payload="just some text")) is None

    def test_missing_payload_is_unclassifiable(self, classifier):
        assert classifier.category(make_event(payload=None)) is None
        assert classifier.category(make_event(payload="")) is None

    def test_unsupported_content_type_is_unclassifiable(self, classifier):
        assert classifier.category(make_event(content_type=ContentType.IMAGE)) is None

    def test_rule_order_breaks_ties(self):
        clf = KeywordClassifier({"misinformation": ["viral"], "nudity": ["viral"]})
        assert clf.category(make_event(payload="going viral")) == "misinformation"

    def test_tokens_and_payloads_are_casefolded(self):
        clf = KeywordClassifier({"misinformation": ["Viral"], "nudity": [marker_token("NUDITY")]})
        assert clf.category(make_event(payload="GOING VIRAL")) == "misinformation"
        assert clf.category(make_event(payload=f"clip {marker_token('nudity')}")) == "nudity"

    def test_payloads_of_one_category_share_one_verdict(self, classifier):
        first = classifier.category(make_event(payload=f"clip {marker_token('nudity')}"))
        second = classifier.category(make_event(payload=f"{marker_token('nudity')} again, other words"))
        assert first == second == "nudity"

    def test_an_empty_code_hit_is_taken(self):
        # The fallback keys on None, not on truthiness.
        clf = KeywordClassifier({"": ["hit"]})
        event = make_event(payload="a hit", platform_categories=("nudity",))
        assert clf.category(event) == ""
        assert reconstruct([event], clf, WINDOW)[0].category == ""


class TestReconstruct:
    def test_filters_unmoderated_and_keeps_moderated(self, classifier):
        events = [
            make_event(content_id="c-1", puid="p-1"),
            make_event(content_id="c-2", puid="p-2", visibility_status=VisibilityStatus.DISABLED),
            make_event(content_id="c-3", puid="p-3", visibility_status=VisibilityStatus.DEMOTED),
            make_event(content_id="c-4", puid="p-4", visibility_status=VisibilityStatus.VISIBLE),
        ]
        out = reconstruct(events, classifier, WINDOW)
        assert [r.content_id for r in out] == ["c-1", "c-2", "c-3"]
        assert [r.decision_type for r in out] == [
            DecisionType.VISIBILITY_REMOVAL,
            DecisionType.VISIBILITY_DISABLE,
            DecisionType.VISIBILITY_DEMOTION,
        ]

    def test_items_of_one_moderation_day_share_one_date(self, classifier):
        events = [
            make_event(content_id=f"c-{i}", moderated_at=datetime(2024, 1, 12 + i % 2, i, 0, 0, tzinfo=UTC))
            for i in range(6)
        ]
        out = reconstruct(events, classifier, WINDOW)
        assert [r.application_date for r in out] == [date(2024, 1, 12 + i % 2) for i in range(6)]
        assert len({id(r.application_date) for r in out}) == 2

    def test_account_annotation_on_visible_content_is_moderation(self, classifier):
        event = make_event(
            visibility_status=VisibilityStatus.VISIBLE, annotations=("account_suspension",)
        )
        out = reconstruct([event], classifier, WINDOW)
        assert out[0].decision_type is DecisionType.ACCOUNT_SUSPENSION

    def test_window_is_start_inclusive_end_exclusive_on_timestamp(self, classifier):
        just_before = make_event(
            content_id="c-early",
            content_created=date(2023, 12, 20),
            moderated_at=datetime(2023, 12, 31, 23, 59, 59, tzinfo=UTC),
        )
        at_start = make_event(
            content_id="c-start",
            content_created=date(2023, 12, 20),
            moderated_at=datetime(2024, 1, 1, 0, 0, 0, tzinfo=UTC),
        )
        at_end = make_event(
            content_id="c-end", moderated_at=datetime(2024, 2, 1, 0, 0, 0, tzinfo=UTC)
        )
        out = reconstruct([just_before, at_start, at_end], classifier, WINDOW)
        assert [r.content_id for r in out] == ["c-start"]

    def test_confident_classifier_beats_platform_categories(self, classifier):
        event = make_event(
            payload=f"clip {marker_token('misinformation')}", platform_categories=("nudity",)
        )
        out = reconstruct([event], classifier, WINDOW)
        assert out[0].category == "misinformation"

    def test_unclassifiable_falls_back_to_platform_categories(self, classifier):
        event = make_event(content_type=ContentType.IMAGE, payload=None, platform_categories=("nudity",))
        out = reconstruct([event], classifier, WINDOW)
        assert out[0].category == "nudity"

    def test_no_hit_falls_back_to_platform_categories(self, classifier):
        event = make_event(payload="nothing to see", platform_categories=("nudity", "scam"))
        out = reconstruct([event], classifier, WINDOW)
        assert out[0].category == "nudity"

    def test_any_object_with_a_category_method_classifies(self):
        class ImageModel:
            """Names a category for IMAGE content, and none for the rest."""

            def category(self, event):
                return "deepfake" if event.content_type is ContentType.IMAGE else None

        events = [
            make_event(content_id="c-1", puid="p-1", content_type=ContentType.IMAGE, payload=None),
            make_event(content_id="c-2", puid="p-2", platform_categories=("nudity",)),
            make_event(content_id="c-3", puid="p-3", platform_categories=()),
        ]
        out = reconstruct(events, ImageModel(), WINDOW)
        assert [r.category for r in out] == ["deepfake", "nudity", "other"]

    def test_no_signal_at_all_defaults_to_other(self, classifier):
        event = make_event(payload="nothing to see", platform_categories=())
        out = reconstruct([event], classifier, WINDOW)
        assert out[0].category == "other"

    def test_application_date_is_moderation_date(self, classifier):
        out = reconstruct([make_event()], classifier, WINDOW)
        assert out[0].application_date == date(2024, 1, 12)
        assert out[0].content_date == date(2024, 1, 10)


# The reference classifier, one whose rules are out of marker order, share
# tokens and hold upper-case tokens, and one with an empty category.
CLASSIFIERS = (
    KeywordClassifier.from_taxonomy(CategoryTaxonomy(codes=CODES)),
    KeywordClassifier(
        {
            "nudity": ["win big", marker_token("NUDITY"), marker_token("hate_speech")],
            "hate_speech": [marker_token("hate_speech")],
            "misinformation": ["Viral", marker_token("misinformation")],
        }
    ),
    # An empty category is a hit, not a fallback.
    KeywordClassifier({"": ["text"], "scam": ["win big"]}),
)
PAYLOAD_WORD = st.sampled_from([*map(marker_token, CODES), "win big", "viral", "text"]).flatmap(
    lambda word: st.sampled_from([word, word.upper(), word.title()])
)
PAYLOADS = st.none() | st.just("") | st.lists(PAYLOAD_WORD, max_size=4).map(" ".join)


@st.composite
def reconstruct_inputs(draw):
    """random_event streams, with drawn payloads, for a drawn classifier and a
    window that is None or bounds a drawn span of days."""
    rng = random.Random(draw(st.integers(0, 2**16)))
    events = [random_event(rng, i) for i in range(draw(st.integers(0, 40)))]
    payloads = draw(st.lists(PAYLOADS, min_size=len(events), max_size=len(events)))
    events = [event._replace(payload=payload) for event, payload in zip(events, payloads)]
    window = None
    if draw(st.booleans()):
        start = SPAN_START + timedelta(days=draw(st.integers(-1, SPAN_DAYS)))
        window = Period(start=start, end=start + timedelta(days=draw(st.integers(1, SPAN_DAYS))))
    return events, draw(st.sampled_from(CLASSIFIERS)), window


class TestReconstructMatchesNaiveOracle:
    @settings(max_examples=300, deadline=None)
    @given(reconstruct_inputs())
    def test_same_items_in_same_order(self, inputs):
        events, classifier, window = inputs
        got = reconstruct(iter(events), classifier, window)
        assert got == naive_reconstruct(events, classifier, window)
        assert all(type(r) is ReconstructedSor for r in got)
        # the items of one moderation day share one application_date object
        assert len({id(r.application_date) for r in got}) == len({r.application_date for r in got})


def filed_record(**overrides):
    defaults = dict(
        uuid="sor-0000001",
        puid="p-0000001",
        category="hate_speech",
        application_date=date(2024, 1, 12),
        content_date=date(2024, 1, 10),
        created_at=datetime(2024, 1, 12, 20, 0, 0, tzinfo=UTC),
    )
    defaults.update(overrides)
    return make_record(**defaults)


def rebuild(events, taxonomy):
    return reconstruct(events, KeywordClassifier.from_taxonomy(taxonomy), WINDOW)


class TestLink:
    def test_puid_match_overrides_attribute_divergence(self, taxonomy):
        rec = rebuild([make_event()], taxonomy)
        filed = [filed_record(category="nudity")]
        linkage = link(rec, filed)
        assert len(linkage.pairs) == 1
        assert not linkage.unmatched_reconstructed and not linkage.unmatched_filed

    def test_same_block_same_attributes_same_day_scores_one(self, taxonomy):
        rec = rebuild([make_event(puid=None)], taxonomy)
        filed = [filed_record(puid=None)]
        assert LinkConfig().score(True, True, 0) == Fraction(1)
        assert _pair_score(rec[0], filed[0], LinkConfig()) == Fraction(1)
        linkage = link(rec, filed)
        assert len(linkage.pairs) == 1

    def test_score_formula_components(self, taxonomy):
        config = LinkConfig()
        two_days_late = config.score(True, True, 2)
        assert two_days_late == Fraction(1, 2) + Fraction(3, 10) + Fraction(1, 5) * Fraction(1, 3)
        different_category = config.score(False, True, 0)
        assert different_category == Fraction(3, 10) + Fraction(1, 5)
        assert config.score(True, False, 3) == config.score(True, False, 10**9) == Fraction(1, 2)
        # the same figures as the oracle's per-pair score
        rec = rebuild([make_event(puid=None)], taxonomy)[0]
        late = filed_record(puid=None, created_at=datetime(2024, 1, 14, 8, 0, 0, tzinfo=UTC))
        assert _pair_score(rec, late, config) == two_days_late
        assert _pair_score(rec, filed_record(puid=None, category="nudity"), config) == different_category

    def test_below_threshold_is_not_matched(self, taxonomy):
        rec = rebuild([make_event(puid=None)], taxonomy)
        filed = [filed_record(puid=None, category="nudity")]  # 0.5 score
        linkage = link(rec, filed)
        assert not linkage.pairs
        assert len(linkage.unmatched_reconstructed) == 1
        assert len(linkage.unmatched_filed) == 1

    def test_filed_without_counterpart_stays_unmatched(self, taxonomy):
        rec = rebuild([make_event()], taxonomy)
        extra = filed_record(uuid="sor-extra", puid="p-extra", application_date=date(2024, 1, 20))
        linkage = link(rec, [filed_record(), extra])
        assert [f.uuid for _, f in linkage.pairs] == ["sor-0000001"]
        assert [f.uuid for f in linkage.unmatched_filed] == ["sor-extra"]

    def test_duplicate_puid_is_a_hard_error(self, taxonomy):
        rec = rebuild([make_event()], taxonomy)
        with pytest.raises(LinkageError):
            link(rec, [filed_record(uuid="a"), filed_record(uuid="b")])

    @pytest.mark.parametrize("puid", ["p-0000001", "p-unrebuilt"], ids=["paired", "filed_only"])
    def test_duplicate_filed_puid_in_a_stream_is_found_at_its_second_copy(self, taxonomy, puid):
        rec = rebuild([make_event()], taxonomy)
        read = []

        def filed():
            for uuid in ("a", "b", "c"):
                read.append(uuid)
                yield filed_record(uuid=uuid, puid=puid)

        stream = iter(link_outcomes(rec, filed()))
        if puid == "p-0000001":
            # the puid pair comes out as "a" arrives, before "b" is read
            rebuilt, sor = next(stream)
            assert (rebuilt, sor.uuid, read) == (rec[0], "a", ["a"])
        with pytest.raises(LinkageError, match=f"^duplicate puid '{puid}' among filed statements$"):
            next(stream)
        assert read == ["a", "b"]

    def test_items_with_differing_puids_never_fuzzy_match(self, taxonomy):
        # both sides carry puids; identities are known to differ
        rec = rebuild([make_event(puid="p-AAA")], taxonomy)
        filed = [filed_record(puid="p-BBB")]
        linkage = link(rec, filed)
        assert not linkage.pairs

    def test_one_sided_puid_still_fuzzy_matches(self, taxonomy):
        rec = rebuild([make_event(puid="p-AAA")], taxonomy)
        filed = [filed_record(puid=None)]
        assert len(link(rec, filed).pairs) == 1

    def test_greedy_matching_prefers_higher_score(self, taxonomy):
        rec = rebuild(
            [make_event(puid=None, content_id="c-x")], taxonomy
        )
        close = filed_record(uuid="sor-close", puid=None)
        far = filed_record(
            uuid="sor-far", puid=None, created_at=datetime(2024, 1, 18, 8, 0, 0, tzinfo=UTC)
        )
        linkage = link(rec, [far, close])
        assert [f.uuid for _, f in linkage.pairs] == ["sor-close"]

    def test_permutation_invariance_and_conservation(self, taxonomy):
        rng = random.Random(11)
        events = []
        filed = []
        for i in range(40):
            day = 5 + (i % 10)
            category = ("hate_speech", "misinformation", "nudity")[i % 3]
            events.append(
                make_event(
                    content_id=f"c-{i:03d}",
                    puid=None if i % 4 == 0 else f"p-{i:03d}",
                    moderated_at=datetime(2024, 1, day, 6 + (i % 12), 0, 0, tzinfo=UTC),
                    content_created=date(2024, 1, 2),
                    payload=f"txt {marker_token(category)}",
                    platform_categories=(category,),
                )
            )
            if i % 5 != 4:  # drop some filings
                filed.append(
                    filed_record(
                        uuid=f"sor-{i:03d}",
                        puid=None if i % 4 == 0 else f"p-{i:03d}",
                        category=category,
                        application_date=date(2024, 1, day),
                        content_date=date(2024, 1, 2),
                        created_at=datetime(2024, 1, day, 23, 0, 0, tzinfo=UTC),
                    )
                )
        rec = rebuild(events, taxonomy)
        baseline = link(rec, filed)
        base_pairs = {(r.content_id, f.uuid) for r, f in baseline.pairs}
        assert len(baseline.pairs) + len(baseline.unmatched_reconstructed) == len(rec)
        assert len(baseline.pairs) + len(baseline.unmatched_filed) == len(filed)
        for _ in range(10):
            rec_shuffled = rec[:]
            filed_shuffled = filed[:]
            rng.shuffle(rec_shuffled)
            rng.shuffle(filed_shuffled)
            again = link(rec_shuffled, filed_shuffled)
            assert {(r.content_id, f.uuid) for r, f in again.pairs} == base_pairs

    def test_no_item_appears_in_two_pairs(self, taxonomy):
        rec = rebuild(
            [make_event(puid=None, content_id=f"c-{i}") for i in range(6)], taxonomy
        )
        filed = [filed_record(uuid=f"sor-{i}", puid=None) for i in range(4)]
        linkage = link(rec, filed)
        rec_ids = [r.content_id for r, _ in linkage.pairs]
        filed_ids = [f.uuid for _, f in linkage.pairs]
        assert len(rec_ids) == len(set(rec_ids))
        assert len(filed_ids) == len(set(filed_ids))
        assert len(linkage.pairs) == 4


LINK_CONFIGS = (
    LinkConfig(),
    LinkConfig(max_day_distance=10**9),
    LinkConfig(Fraction(1, 3), Fraction(1, 3), Fraction(1, 3), Fraction(1, 3), max_day_distance=1),
    LinkConfig(Fraction(1, 4), Fraction(1, 4), Fraction(1, 4), Fraction(1, 2), max_day_distance=10**9),
    LinkConfig(Fraction(0), Fraction(0), Fraction(0), Fraction(0), max_day_distance=10**9),
    LinkConfig(threshold=Fraction(0), max_day_distance=1),
)
LINK_DAY = date(2024, 1, 10)


def unique_puids(draws: list[int | None]) -> list[str | None]:
    """One puid per drawn number, None for a repeat: puids are unique per side."""
    seen: set[int] = set()
    out: list[str | None] = []
    for n in draws:
        out.append(None if n is None or n in seen else f"p-{n}")
        if n is not None:
            seen.add(n)
    return out


@st.composite
def tie_dense_link_inputs(draw):
    """Few categories, decision types, days and ids, so that scores, uuids and
    content_ids tie often; moderation days may differ from application dates."""
    categories = ("hate_speech", "misinformation", "nudity")[: draw(st.integers(2, 3))]
    decisions = (
        DecisionType.VISIBILITY_REMOVAL,
        DecisionType.VISIBILITY_DISABLE,
        DecisionType.ACCOUNT_SUSPENSION,
    )[: draw(st.integers(2, 3))]
    days = draw(st.integers(2, 3))
    content_types = (ContentType.TEXT, ContentType.IMAGE)
    day = st.integers(0, days - 1).map(lambda k: LINK_DAY + timedelta(days=k))
    puid = st.none() | st.integers(0, 5)

    rec_draws = draw(
        st.lists(
            st.tuples(
                st.integers(0, 2), puid, st.sampled_from(categories), st.sampled_from(decisions),
                st.sampled_from(content_types), day, st.integers(-1, 1), st.integers(0, 23),
            ),
            max_size=14,
        )
    )
    rebuilt = [
        ReconstructedSor(
            content_id=f"c-{cid}",
            puid=p,
            decision_type=decision,
            decision_ground=DEFAULT_RECONSTRUCTED_GROUND,
            category=category,
            content_type=content_type,
            automated_detection=False,
            automated_decision=AutomatedDecision.NOT_AUTOMATED,
            content_date=date(2024, 1, 1),
            application_date=applied,
            moderated_at=datetime.combine(applied + timedelta(days=shift), time(hour), tzinfo=UTC),
        )
        for (cid, _, category, decision, content_type, applied, shift, hour), p in zip(
            rec_draws, unique_puids([d[1] for d in rec_draws])
        )
    ]
    filed_draws = draw(
        st.lists(
            st.tuples(
                st.integers(0, 2), puid, st.sampled_from(categories), st.sampled_from(decisions),
                st.sampled_from(content_types), day, st.integers(0, 4), st.integers(0, 23),
            ),
            max_size=14,
        )
    )
    filed = [
        make_record(
            uuid=f"sor-{uid}",
            puid=p,
            category=category,
            decision_type=decision,
            content_type=content_type,
            content_date=date(2024, 1, 1),
            application_date=applied,
            created_at=datetime.combine(applied + timedelta(days=lag), time(hour), tzinfo=UTC),
        )
        for (uid, _, category, decision, content_type, applied, lag, hour), p in zip(
            filed_draws, unique_puids([d[1] for d in filed_draws])
        )
    ]
    return rebuilt, filed, draw(st.sampled_from(LINK_CONFIGS))


class TestLinkMatchesNaiveOracle:
    @settings(max_examples=400, deadline=None)
    @given(tie_dense_link_inputs())
    def test_same_objects_in_same_order(self, inputs):
        rebuilt, filed, config = inputs
        got = link(rebuilt, filed, config)
        want = naive_link(rebuilt, filed, config)
        assert [(id(r), id(f)) for r, f in got.pairs] == [(id(r), id(f)) for r, f in want.pairs]
        assert [id(r) for r in got.unmatched_reconstructed] == [
            id(r) for r in want.unmatched_reconstructed
        ]
        assert [id(f) for f in got.unmatched_filed] == [id(f) for f in want.unmatched_filed]

        # The stream: each rebuilt item and each statement in exactly one
        # outcome, and stage counts that agree with the oracle's pairs.
        outcomes = link_outcomes(iter(rebuilt), iter(filed), config)
        streamed = list(outcomes)
        assert sorted(id(r) for r, _ in streamed if r is not None) == sorted(map(id, rebuilt))
        assert sorted(id(f) for _, f in streamed if f is not None) == sorted(map(id, filed))
        by_puid = sum(1 for r, f in want.pairs if r.puid and r.puid == f.puid)
        assert (outcomes.puid_pairs, outcomes.fuzzy_pairs) == (by_puid, len(want.pairs) - by_puid)
        assert outcomes.reconstructed_count == len(want.pairs) + len(want.unmatched_reconstructed)
        assert outcomes.filed_count == len(want.pairs) + len(want.unmatched_filed)


def linkage_ids(linkage):
    return (
        [(id(r), id(f)) for r, f in linkage.pairs],
        [id(r) for r in linkage.unmatched_reconstructed],
        [id(f) for f in linkage.unmatched_filed],
    )


class TestStreamedLink:
    """link_outcomes over one-shot iterators, with verify_diff as the CLI runs
    them, against the list route and the naive oracle."""

    @settings(max_examples=300, deadline=None)
    @given(tie_dense_link_inputs(), st.integers(0, 7))
    def test_cli_composition_gives_the_oracles_findings_in_order(self, inputs, deadline_days):
        rebuilt, filed, config = inputs
        findings = verify_diff(link_outcomes(iter(rebuilt), iter(filed), config), deadline_days)
        assert list(findings) == list(verify_diff(naive_link(rebuilt, filed, config), deadline_days))

    @settings(max_examples=300, deadline=None)
    @given(tie_dense_link_inputs())
    def test_one_shot_generators_link_like_lists(self, inputs):
        rebuilt, filed, config = inputs
        streamed = link((r for r in rebuilt), (f for f in filed), config)
        assert linkage_ids(streamed) == linkage_ids(link(rebuilt, filed, config))
        assert list(streamed) == list(link_outcomes(rebuilt, filed, config))

    @pytest.mark.parametrize(
        "order", [(0, 1, 2), (1, 0, 2), (2, 1, 0), (1, 2, 0)], ids=["filed", "swapped", "reversed", "rotated"]
    )
    def test_findings_sort_by_content_not_by_pair_origin(self, taxonomy, order):
        # Three pairs of content c-0 with statement sor-0, each a WARN field
        # mismatch: two by puid and one fuzzy. By puid, p-1's comes first;
        # by content, "misinformation" sorts before "nudity".
        rebuilt = rebuild(
            [
                make_event(content_id="c-0", puid="p-1"),
                make_event(content_id="c-0", puid="p-2"),
                make_event(content_id="c-0", puid=None),
            ],
            taxonomy,
        )
        filed = [
            filed_record(uuid="sor-0", puid="p-1", category="nudity"),
            filed_record(uuid="sor-0", puid="p-2", category="misinformation"),
            filed_record(uuid="sor-0", puid=None, content_date=date(2024, 1, 9)),
        ]
        arrived = [filed[i] for i in order]
        outcomes = link_outcomes(iter(rebuilt), iter(arrived))
        findings = verify_diff(outcomes, 7)
        assert list(findings) == list(verify_diff(naive_link(rebuilt, arrived)))
        assert [f.mismatched_fields[0][2] for f in findings] == ["misinformation", "nudity", "2024-01-09"]
        assert (outcomes.puid_pairs, outcomes.fuzzy_pairs) == (2, 1)


class TestStrippedPuidRecall:
    def test_omissions_and_phantoms_found_when_blocks_hold_no_partner(self, taxonomy):
        # no puids anywhere; every item sits in its own (content_type, day) block,
        # so a dropped filing or an extra filing has nothing plausible to pair with
        events = []
        filed = []
        for i in range(10):
            day = 3 + i
            events.append(
                make_event(
                    content_id=f"c-{i}",
                    puid=None,
                    moderated_at=datetime(2024, 1, day, 9, 0, 0, tzinfo=UTC),
                    content_created=date(2024, 1, 2),
                )
            )
            if i not in (2, 7):  # two filings dropped
                filed.append(
                    filed_record(
                        uuid=f"sor-{i}",
                        puid=None,
                        application_date=date(2024, 1, day),
                        content_date=date(2024, 1, 2),
                        created_at=datetime(2024, 1, day, 22, 0, 0, tzinfo=UTC),
                    )
                )
        filed.append(  # phantom filing on a day with no moderation at all
            filed_record(
                uuid="sor-phantom",
                puid=None,
                application_date=date(2024, 1, 25),
                content_date=date(2024, 1, 2),
                created_at=datetime(2024, 1, 25, 22, 0, 0, tzinfo=UTC),
            )
        )
        rec = rebuild(events, taxonomy)
        findings = verify_diff(link(rec, filed))
        omitted = {f.content_id for f in findings if f.kind is VerificationKind.OMITTED_SOR}
        phantom = {f.sor_uuid for f in findings if f.kind is VerificationKind.PHANTOM_SOR}
        assert omitted == {"c-2", "c-7"}
        assert phantom == {"sor-phantom"}


@st.composite
def findings_with_near_twins(draw):
    """Findings, some of them copies of another with one field redrawn, so
    that findings which differ in a single field are common."""
    found = draw(st.lists(FINDING_OBJECTS, min_size=1, max_size=6))
    for _ in range(draw(st.integers(0, 4))):
        twin = draw(st.sampled_from(found))
        name = draw(st.sampled_from(VerificationFinding._fields))
        found.append(twin._replace(**{name: getattr(draw(FINDING_OBJECTS), name)}))
    return found


class TestVerifyDiff:
    @settings(max_examples=300, deadline=None)
    @given(findings_with_near_twins().flatmap(lambda found: st.tuples(st.just(found), st.permutations(found))))
    def test_sorted_findings_do_not_depend_on_their_order(self, lists):
        found, shuffled = lists
        assert sorted(shuffled, key=_finding_key) == sorted(found, key=_finding_key)

    def test_moderated_without_filing_is_omitted(self, taxonomy):
        rec = rebuild([make_event()], taxonomy)
        findings = verify_diff(link(rec, []))
        assert [f.kind for f in findings] == [VerificationKind.OMITTED_SOR]
        assert list(findings)[0].severity is Severity.CRITICAL
        assert list(findings)[0].content_id == "c-0000001"
        assert list(findings)[0].sor_uuid is None

    def test_filing_without_action_is_phantom(self, taxonomy):
        findings = verify_diff(link([], [filed_record()]))
        assert [f.kind for f in findings] == [VerificationKind.PHANTOM_SOR]
        assert list(findings)[0].sor_uuid == "sor-0000001"
        assert list(findings)[0].content_id is None

    def test_automation_flip_is_critical_field_mismatch(self, taxonomy):
        rec = rebuild([make_event()], taxonomy)  # NOT_AUTOMATED platform-side
        filed = [filed_record(automated_decision=AutomatedDecision.FULLY)]
        findings = verify_diff(link(rec, filed))
        assert [f.kind for f in findings] == [VerificationKind.FIELD_MISMATCH]
        assert list(findings)[0].severity is Severity.CRITICAL
        assert list(findings)[0].mismatched_fields == (
            ("automated_decision", "NOT_AUTOMATED", "FULLY"),
        )

    def test_category_divergence_is_warn(self, taxonomy):
        rec = rebuild([make_event()], taxonomy)
        findings = verify_diff(link(rec, [filed_record(category="nudity")]))
        assert list(findings)[0].kind is VerificationKind.FIELD_MISMATCH
        assert list(findings)[0].severity is Severity.WARN

    def test_timely_identical_pair_is_consistent(self, taxonomy):
        rec = rebuild([make_event()], taxonomy)
        filed = [filed_record(created_at=datetime(2024, 1, 14, 8, 0, 0, tzinfo=UTC))]
        findings = verify_diff(link(rec, filed), deadline_days=7)
        assert [f.kind for f in findings] == [VerificationKind.CONSISTENT]
        assert list(findings)[0].severity is Severity.INFO

    def test_late_filing_past_deadline_is_flagged(self, taxonomy):
        rec = rebuild([make_event()], taxonomy)
        late = filed_record(created_at=datetime(2024, 1, 20, 8, 0, 1, tzinfo=UTC))
        findings = verify_diff(link(rec, [late]), deadline_days=7)
        assert [f.kind for f in findings] == [VerificationKind.LATE_SUBMISSION]
        assert list(findings)[0].severity is Severity.WARN

    def test_exactly_deadline_days_is_not_late(self, taxonomy):
        rec = rebuild([make_event()], taxonomy)
        on_time = filed_record(created_at=datetime(2024, 1, 19, 8, 0, 0, tzinfo=UTC))
        findings = verify_diff(link(rec, [on_time]), deadline_days=7)
        assert [f.kind for f in findings] == [VerificationKind.CONSISTENT]

    def test_pair_can_raise_mismatch_and_lateness_together(self, taxonomy):
        rec = rebuild([make_event()], taxonomy)
        bad = filed_record(
            category="nudity", created_at=datetime(2024, 1, 25, 8, 0, 0, tzinfo=UTC)
        )
        kinds = {f.kind for f in verify_diff(link(rec, [bad]))}
        assert kinds == {VerificationKind.FIELD_MISMATCH, VerificationKind.LATE_SUBMISSION}

    def test_findings_sorted_critical_first(self, taxonomy):
        events = [make_event(content_id=f"c-{i}", puid=f"p-{i}") for i in range(3)]
        rec = rebuild(events, taxonomy)
        filed = [
            filed_record(uuid="sor-0", puid="p-0"),
            filed_record(uuid="sor-1", puid="p-1", category="nudity"),
        ]
        findings = verify_diff(link(rec, filed))
        assert [f.kind for f in findings] == [
            VerificationKind.OMITTED_SOR,
            VerificationKind.FIELD_MISMATCH,
            VerificationKind.CONSISTENT,
        ]


def consistent_finding(content_id: str, sor_uuid: str) -> VerificationFinding:
    evidence = f"statement {sor_uuid} is consistent with platform data for {content_id}"
    return VerificationFinding(VerificationKind.CONSISTENT, Severity.INFO, content_id, sor_uuid, (), evidence)


def assert_reads_as(got: VerificationFindings, want: list[VerificationFinding]) -> None:
    """`got` reads as the list `want` twice over, has its length, and counts
    its severities."""
    assert list(got) == want
    assert list(got) == want
    assert len(got) == len(want)
    assert got.counts == {s.value: sum(f.severity is s for f in want) for s in SEVERITY_ORDER}


class TestVerifyDiffMatchesNaiveOracle:
    @settings(max_examples=300, deadline=None)
    @given(tie_dense_link_inputs(), st.integers(0, 7))
    def test_same_findings_as_the_naive_list(self, inputs, deadline_days):
        rebuilt, filed, config = inputs
        outcomes = list(naive_link(rebuilt, filed, config))
        assert_reads_as(verify_diff(outcomes, deadline_days), naive_verify_diff(outcomes, deadline_days))

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            FINDING_OBJECTS.filter(
                lambda f: f.kind is not VerificationKind.CONSISTENT and f.severity is not Severity.INFO
            ),
            max_size=8,
        ),
        st.lists(st.tuples(TEXT, TEXT), max_size=8),
    )
    def test_consistent_run_sits_at_its_rank(self, divergences, pairs):
        # Only CRITICAL and WARN divergences, as outcome_findings makes.
        want = sorted([*divergences, *(consistent_finding(*p) for p in pairs)], key=_finding_key)
        assert_reads_as(VerificationFindings(list(divergences), list(pairs)), want)


def test_markdown_builds_each_consistent_finding_once(taxonomy, monkeypatch):
    # The header's counts come from the findings' own tally, so only the row
    # pass builds the consistent findings.
    events = [make_event(content_id=f"c-{i}", puid=f"p-{i}") for i in range(4)]
    filed = [filed_record(uuid=f"sor-{i}", puid=f"p-{i}") for i in range(1, 4)]
    filed.append(filed_record(uuid="sor-0", puid="p-0", category="nudity"))
    findings = verify_diff(link(rebuild(events, taxonomy), filed))
    want = naive_emit_report(list(findings), "markdown")
    built = []

    def counting_consistent_finding(content_id, sor_uuid):
        built.append((content_id, sor_uuid))
        return consistent_finding(content_id, sor_uuid)

    monkeypatch.setattr(verify, "_consistent_finding", counting_consistent_finding)
    assert emit_report(findings, "markdown") == want
    assert built == [(f"c-{i}", f"sor-{i}") for i in range(1, 4)]


def held_bytes(diff, outcomes) -> int:
    """Traced heap that diff(outcomes) allocates and its result still holds."""
    gc.collect()
    tracemalloc.start()
    try:
        result = diff(outcomes, 7)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(result) == len(outcomes)
    return held


def test_consistent_pairs_hold_at_most_half_the_naive_heap(taxonomy):
    # Only the ratio is compared: bytes per object differ between builds.
    n = 5000
    events = [make_event(content_id=f"c-{i:07d}", puid=f"p-{i:07d}") for i in range(n)]
    filed = [filed_record(uuid=f"sor-{i:07d}", puid=f"p-{i:07d}") for i in range(n)]
    outcomes = list(link_outcomes(rebuild(events, taxonomy), filed))
    assert verify_diff(outcomes, 7).counts == {"critical": 0, "warn": 0, "info": n}
    assert held_bytes(verify_diff, outcomes) <= held_bytes(naive_verify_diff, outcomes) / 2
