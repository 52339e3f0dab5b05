import json
import random
import sys

import pytest

from posscore.core import EvaluationSet
from posscore.ingest import (
    AnnotatedResponse,
    ForumAnswer,
    build_forum_sets,
    build_usr_sets,
    load_forum_json,
    load_jsonl,
    load_usr_json,
    reservoir_sample,
    vote_gt_curve,
    write_jsonl,
)


def jsonl_line(set_id, ha, hb, reference="ref text"):
    return json.dumps(
        {
            "id": set_id,
            "context": ["hello"],
            "reference": reference,
            "candidates": [
                {"text": "cand a", "human": ha},
                {"text": "cand b", "human": hb},
            ],
        }
    )


class TestLoadJsonl:
    def test_basic(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text(jsonl_line("s1", 5, 2) + "\n" + jsonl_line("s2", 1, 3) + "\n")
        sets = load_jsonl(p)
        assert [ev.id for ev in sets] == ["s1", "s2"]
        assert sets[0].good_slot == "a" and sets[1].good_slot == "b"

    def test_tie_lines_skipped(self, tmp_path, caplog):
        p = tmp_path / "c.jsonl"
        lines = [jsonl_line("s1", 5, 2), jsonl_line("s2", 3, 3), jsonl_line("s3", 1, 2)]
        p.write_text("\n".join(lines) + "\n")
        with caplog.at_level("WARNING"):
            sets = load_jsonl(p)
        assert [ev.id for ev in sets] == ["s1", "s3"]
        assert "1 tied-score line" in caplog.text

    def test_missing_reference(self, tmp_path):
        p = tmp_path / "c.jsonl"
        obj = json.loads(jsonl_line("s1", 5, 2))
        del obj["reference"]
        p.write_text(jsonl_line("s0", 4, 1) + "\n" + json.dumps(obj) + "\n")
        with pytest.raises(ValueError, match="line 2.*reference"):
            load_jsonl(p)

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text("{not json\n")
        with pytest.raises(ValueError, match="line 1"):
            load_jsonl(p)

    def test_wrong_candidate_count(self, tmp_path):
        p = tmp_path / "c.jsonl"
        obj = json.loads(jsonl_line("s1", 5, 2))
        obj["candidates"].append({"text": "third", "human": 1})
        p.write_text(json.dumps(obj) + "\n")
        with pytest.raises(ValueError, match="exactly 2"):
            load_jsonl(p)

    def test_duplicate_id_names_both_lines(self, tmp_path):
        p = tmp_path / "c.jsonl"
        lines = [jsonl_line("s1", 5, 2), jsonl_line("s2", 1, 3), jsonl_line("s1", 2, 5)]
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"line 3: duplicate set id 's1' \(first on line 1\)"):
            load_jsonl(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text("")
        with pytest.raises(ValueError, match="no evaluation sets"):
            load_jsonl(p)

    def test_blank_lines_ignored(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text("\n" + jsonl_line("s1", 5, 2) + "\n\n")
        assert len(load_jsonl(p)) == 1

    def test_round_trip(self, tmp_path):
        sets = [
            EvaluationSet("a1", ("q",), "r", "x", "y", 4.0, 2.0),
            EvaluationSet("a2", (), "r2", "x2", "y2", 1.0, 3.0),
        ]
        p = tmp_path / "out.jsonl"
        write_jsonl(sets, p)
        assert load_jsonl(p) == sets

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"candidates": ["text", "text"]}, "candidates[0]: expected a JSON object"),
            ({"candidates": [{"text": "a", "human": [1]}, {"text": "b", "human": 2}]},
             "candidates[0]: human: expected a finite number, got [1]"),
            ({"candidates": [{"text": "a", "human": 1}, {"text": "b", "human": "x"}]},
             "candidates[1]: human: expected a finite number, got 'x'"),
            ({"candidates": [{"text": "a", "human": float("nan")}, {"text": "b", "human": 2}]},
             "candidates[0]: human: expected a finite number, got nan"),
            ({"candidates": [{"text": "a", "human": 1}, {"text": "b", "human": 10**400}]},
             "candidates[1]: human: expected a finite number"),
            ({"context": 5}, "'context' must be a string or a list of strings"),
            ({"id": 3.0}, "'id' must be a string, got 3.0"),
            ({"reference": None}, "'reference' must be a string, got None"),
            ({"candidates": [{"text": {"x": 1}, "human": 1}, {"text": "b", "human": 2}]},
             "candidates[0]: 'text' must be a string, got {'x': 1}"),
        ],
        ids=["candidates-strings", "human-list", "human-word", "human-nan", "human-beyond-float",
             "context-number", "id-number", "reference-null", "text-object"],
    )
    def test_bad_input_names_file_and_line_once(self, tmp_path, change, message):
        p = tmp_path / "c.jsonl"
        obj = {**json.loads(jsonl_line("s1", 5, 2)), **change}
        p.write_text(jsonl_line("s0", 4, 1) + "\n" + json.dumps(obj) + "\n")
        with pytest.raises(ValueError) as info:
            load_jsonl(p)
        assert str(info.value).startswith(f"{p}: line 2: {message}")
        assert str(info.value).count(str(p)) == 1

    def test_integer_past_digit_limit_names_line(self, tmp_path):
        p = tmp_path / "c.jsonl"
        long_human = jsonl_line("s1", 5, 2).replace('"human": 5', '"human": ' + "9" * 5000)
        p.write_text(jsonl_line("s0", 4, 1) + "\n" + long_human + "\n")
        with pytest.raises(ValueError) as info:
            load_jsonl(p)
        assert str(info.value).startswith(f"{p}: line 2: malformed JSON (")
        assert str(info.value).count(str(p)) == 1

    def test_numeric_strings_and_bools_parse_as_float(self, tmp_path):
        p = tmp_path / "c.jsonl"
        obj = json.loads(jsonl_line("s1", 5, 2))
        obj["candidates"] = [{"text": "a", "human": " 4.5 "}, {"text": "b", "human": True}]
        p.write_text(json.dumps(obj) + "\n")
        [ev] = load_jsonl(p)
        assert (ev.human_a, ev.human_b) == (4.5, 1.0)


def resp(text, *scores, is_reference=False):
    return AnnotatedResponse(text, tuple(float(s) for s in scores), is_reference)


class TestBuildUsrSets:
    def test_four_distinct_scores(self):
        ctx = ((), "ref", [resp("r0", 1), resp("r1", 2), resp("r2", 3), resp("r3", 4)])
        sets = build_usr_sets([ctx])
        assert len(sets) == 6
        assert all(ev.human_a > ev.human_b for ev in sets)

    def test_tied_pair_excluded(self):
        ctx = ((), "ref", [resp("r0", 4), resp("r1", 4), resp("r2", 2)])
        sets = build_usr_sets([ctx])
        assert len(sets) == 2
        assert {ev.id for ev in sets} == {"usr-0-0-2", "usr-0-1-2"}

    def test_single_response_skipped(self):
        ctx = ((), "ref", [resp("r0", 3)])
        assert build_usr_sets([ctx]) == []

    def test_final_score_survives_a_sum_past_the_float_range(self):
        assert resp("r", 1e308, 1e308).final_score == 1e308
        assert resp("r", -1e308, -1e308, -1e308).final_score == -1e308
        # each third of the largest float rounds up, so dividing by the count
        # before summing would still overflow
        top = sys.float_info.max
        assert resp("r", top, top, top).final_score == top
        assert resp("r", -top, -top, -top).final_score == -top

    def test_final_score_keeps_the_plain_mean_bits(self):
        rng = random.Random(8)
        for _ in range(500):
            scores = [rng.choice([rng.uniform(-5, 5), rng.randint(1, 5)])
                      for _ in range(rng.randint(1, 7))]
            assert resp("r", *scores).final_score == sum(scores) / len(scores)

    def test_final_score_is_mean(self):
        ctx = ((), "ref", [resp("r0", 1, 2, 3), resp("r1", 5, 5, 5)])
        (ev,) = build_usr_sets([ctx])
        assert ev.human_b == pytest.approx(2.0)
        assert ev.human_a == pytest.approx(5.0)
        assert ev.candidate_a == "r1"

    def test_reference_flagged_response_excluded(self):
        ctx = (
            (),
            "ref",
            [
                AnnotatedResponse("the ref", (), is_reference=True),
                resp("r1", 4),
                resp("r2", 2),
            ],
        )
        sets = build_usr_sets([ctx])
        assert len(sets) == 1
        assert sets[0].candidate_a == "r1"

    def test_good_always_slot_a(self):
        rng = random.Random(6)
        responses = [resp(f"r{i}", rng.randint(1, 5)) for i in range(6)]
        sets = build_usr_sets([((), "ref", responses)])
        assert all(ev.human_a > ev.human_b for ev in sets)


class TestReservoirSample:
    def test_deterministic(self):
        items = list(range(100))
        a = reservoir_sample(items, 10, seed=3)
        b = reservoir_sample(items, 10, seed=3)
        assert a == b and len(a) == 10

    def test_preserves_stream_order(self):
        sample = reservoir_sample(list(range(500)), 20, seed=1)
        assert sample == sorted(sample)

    def test_short_stream_passthrough(self):
        assert reservoir_sample([1, 2, 3], 10, seed=0) == [1, 2, 3]

    def test_bad_k(self):
        with pytest.raises(ValueError):
            reservoir_sample([1], 0, seed=0)

    def test_roughly_uniform(self):
        counts = [0] * 20
        for seed in range(400):
            for v in reservoir_sample(list(range(20)), 5, seed=seed):
                counts[v] += 1
        # each index expected 100 times; allow generous slack
        assert all(60 <= c <= 140 for c in counts), counts


def curve_fractions(*dialogues):
    return [frac for _, frac in vote_gt_curve([("q", answers) for answers in dialogues])]


class TestNormalizeVotes:
    """vote_gt_curve bins each answer by its votes over its dialogue's maximum."""

    def test_division_by_max(self):
        answers = [ForumAnswer("x", 4, True), ForumAnswer("y", 2, True)]
        assert curve_fractions(answers) == [0.0] * 5 + [1.0] + [0.0] * 3 + [1.0]

    def test_all_zero(self):
        assert curve_fractions([ForumAnswer("x", 0, True)]) == [1.0] + [0.0] * 9

    def test_scale_free(self):
        answers = [ForumAnswer("x", 3, True), ForumAnswer("y", 9, True), ForumAnswer("z", 5, False)]
        scaled = [ForumAnswer(a.text, a.votes * 7, a.is_answer) for a in answers]
        once = curve_fractions(answers)
        assert once == [0.0] * 3 + [1.0] + [0.0] * 5 + [1.0]
        assert curve_fractions(scaled) == once
        # the maximum is taken per dialogue, not over all of them
        assert curve_fractions(answers, scaled) == once


class TestBuildForumSets:
    def test_single_pair(self):
        answers = [
            ForumAnswer("accepted", 1, True),
            ForumAnswer("five", 5, False),
            ForumAnswer("two", 2, False),
        ]
        sets = build_forum_sets([("q?", answers)])
        assert len(sets) == 1
        ev = sets[0]
        assert ev.reference == "accepted"
        assert ev.candidate_a == "five" and ev.candidate_b == "two"
        assert (ev.human_a, ev.human_b) == (5.0, 2.0)
        assert ev.context == ("q?",)

    def test_tied_votes_excluded(self):
        answers = [
            ForumAnswer("accepted", 0, True),
            ForumAnswer("x", 3, False),
            ForumAnswer("y", 3, False),
        ]
        assert build_forum_sets([("q", answers)]) == []

    def test_no_reference_skipped(self):
        answers = [ForumAnswer("x", 3, False), ForumAnswer("y", 1, False)]
        assert build_forum_sets([("q", answers)]) == []

    def test_extra_accepted_answers_held_out(self):
        answers = [
            ForumAnswer("first ref", 2, True),
            ForumAnswer("second ref", 9, True),
            ForumAnswer("x", 3, False),
            ForumAnswer("y", 1, False),
        ]
        sets = build_forum_sets([("q", answers)])
        assert len(sets) == 1
        assert sets[0].reference == "first ref"
        texts = {sets[0].candidate_a, sets[0].candidate_b}
        assert "second ref" not in texts

    def test_ids_encode_positions(self):
        answers = [
            ForumAnswer("ref", 0, True),
            ForumAnswer("x", 3, False),
            ForumAnswer("y", 1, False),
        ]
        sets = build_forum_sets([("q", answers)])
        assert sets[0].id == "forum-0-1-2"


class TestVoteGtCurve:
    def test_separated(self):
        answers = [
            ForumAnswer("ref", 10, True),
            ForumAnswer("a", 5, False),
            ForumAnswer("b", 2, False),
        ]
        curve = vote_gt_curve([("q", answers)])
        assert len(curve) == 10
        assert curve[9] == (0.9, 1.0)
        assert curve[5] == (0.5, 0.0)

    def test_no_ground_truth(self):
        answers = [ForumAnswer("a", 5, False), ForumAnswer("b", 2, False)]
        curve = vote_gt_curve([("q", answers)])
        assert all(frac == 0.0 for _, frac in curve)

    def test_bin_edges(self):
        curve = vote_gt_curve([])
        assert [low for low, _ in curve] == [b / 10 for b in range(10)]


def usr_file(second_item):
    """A USR file whose second context object is `second_item` over a valid one."""
    good = {"reference": "ref", "responses": [{"text": "r0", "quality": [3]}]}
    return json.dumps([good, {**good, **second_item}])


class TestLoadUsrJson:
    def test_reference_field(self, tmp_path):
        data = [
            {
                "context": "a question",
                "reference": "the answer",
                "responses": [
                    {"text": "r1", "quality": [4, 5]},
                    {"text": "r2", "quality": [2]},
                ],
            }
        ]
        p = tmp_path / "usr.json"
        p.write_text(json.dumps(data))
        [(context, reference, responses)] = load_usr_json(p)
        assert context == ("a question",)
        assert reference == "the answer"
        assert responses[0].final_score == pytest.approx(4.5)

    def test_flagged_reference(self, tmp_path):
        data = [
            {
                "context": ["turn 1", "turn 2"],
                "responses": [
                    {"text": "the ref", "is_reference": True},
                    {"text": "r1", "quality": [3]},
                ],
            }
        ]
        p = tmp_path / "usr.json"
        p.write_text(json.dumps(data))
        [(context, reference, responses)] = load_usr_json(p)
        assert reference == "the ref"
        assert context == ("turn 1", "turn 2")

    def test_ambiguous_reference(self, tmp_path):
        data = [{"responses": [{"text": "r1", "quality": [3]}]}]
        p = tmp_path / "usr.json"
        p.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="item 0"):
            load_usr_json(p)

    def test_not_an_array(self, tmp_path):
        p = tmp_path / "usr.json"
        p.write_text("{}")
        with pytest.raises(ValueError, match="array"):
            load_usr_json(p)

    def test_mean_of_three_largest_floats_loads(self, tmp_path):
        # each third of the largest float rounds up, so dividing by the count
        # before summing would still overflow; the mean is the largest float
        top = sys.float_info.max
        p = tmp_path / "usr.json"
        p.write_text(usr_file({"responses": [{"text": "r1", "quality": [top] * 3}]}))
        [_, (_, _, [response])] = load_usr_json(p)
        assert response.final_score == top

    @pytest.mark.parametrize(
        "text, message",
        [
            (usr_file({"responses": [{"text": "r1", "quality": [None]}]}),
             "item 1: responses[0]: quality[0]: expected a finite number, got None"),
            (usr_file({"responses": [{"text": "r1", "quality": [3, float("nan")]}]}),
             "item 1: responses[0]: quality[1]: expected a finite number, got nan"),
            (usr_file({"responses": [{"text": "r1"}]}),
             "item 1: responses[0]: 'quality' must list one score per annotator"),
            (usr_file({"responses": [["text"]]}), "item 1: responses[0]: expected a JSON object"),
            (usr_file({"context": 5}), "item 1: 'context' must be a string or a list of strings"),
            ('[\n{"reference": "r",\n "responses": [}\n]', "line 3: malformed JSON"),
            ('[{"reference": "r",\n "responses": [\n {"text": "a", "quality": [%s]}]}]'
             % ("3" * 5000), "line 3: malformed JSON (Exceeds the limit"),
            (usr_file({"responses": [{"text": "r1", "quality": [3], "is_reference": 0}]}),
             "item 1: responses[0]: 'is_reference' must be true or false, got 0"),
            (usr_file({"reference": None}), "item 1: 'reference' must be a string, got None"),
            (usr_file({"responses": [{"text": ["r1"], "quality": [3]}]}),
             "item 1: responses[0]: 'text' must be a string, got ['r1']"),
        ],
        ids=["quality-null", "quality-nan", "quality-missing", "response-not-object",
             "context-number", "malformed-json", "integer-past-digit-limit", "flag-number",
             "reference-null", "text-list"],
    )
    def test_bad_input_names_file_and_place_once(self, tmp_path, text, message):
        p = tmp_path / "usr.json"
        p.write_text(text)
        with pytest.raises(ValueError) as info:
            load_usr_json(p)
        assert str(info.value).startswith(f"{p}: {message}")
        assert str(info.value).count(str(p)) == 1


class TestLoadForumJson:
    def test_basic(self, tmp_path):
        data = [
            {
                "question": "how?",
                "answers": [
                    {"text": "ref", "votes": 3, "is_answer": True},
                    {"text": "a", "votes": 6},
                ],
            }
        ]
        p = tmp_path / "forum.json"
        p.write_text(json.dumps(data))
        [(question, answers)] = load_forum_json(p)
        assert question == "how?"
        assert answers[0].is_answer and not answers[1].is_answer
        # the accepted answer's 3 votes are half the dialogue's maximum of 6
        assert curve_fractions(answers) == [0.0] * 5 + [1.0] + [0.0] * 4

    def test_boolean_votes_rejected(self, tmp_path):
        data = [{"question": "q", "answers": [{"text": "a", "votes": True}]}]
        p = tmp_path / "forum.json"
        p.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="votes"):
            load_forum_json(p)

    def test_negative_votes_rejected(self, tmp_path):
        data = [{"question": "q", "answers": [{"text": "a", "votes": -1}]}]
        p = tmp_path / "forum.json"
        p.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="votes"):
            load_forum_json(p)

    def test_missing_text(self, tmp_path):
        data = [{"question": "q", "answers": [{"votes": 2}]}]
        p = tmp_path / "forum.json"
        p.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="answers\\[0\\]"):
            load_forum_json(p)

    @pytest.mark.parametrize(
        "text, message",
        [
            ('[{"question": "q", "answers": [["text"]]}]',
             "item 0: answers[0]: expected a JSON object"),
            ('[{"answers": []}, {"answers": [{"text": "a", "votes": 1%s}]}]' % ("0" * 400),
             "item 1: answers[0]: votes: expected a finite number"),
            ('[{"question": "q",\n "answers": [{"text": "a" "votes": 1}]}]',
             "line 2: malformed JSON"),
            ('[{"question": "q",\n "answers": [{"text": "a", "votes": %s}]}]' % ("7" * 5000),
             "line 2: malformed JSON (Exceeds the limit"),
            ('[{"question": "q", "answers": [{"text": "a", "votes": 1, "is_answer": "false"}]}]',
             "item 0: answers[0]: 'is_answer' must be true or false, got 'false'"),
            ('[{"question": "q", "answers": [{"text": null, "votes": 1}]}]',
             "item 0: answers[0]: 'text' must be a string, got None"),
            ('[{"question": ["q"], "answers": []}]',
             "item 0: 'question' must be a string, got ['q']"),
        ],
        ids=["answer-not-object", "votes-beyond-float", "malformed-json",
             "integer-past-digit-limit", "flag-string", "text-null", "question-list"],
    )
    def test_bad_input_names_file_and_place_once(self, tmp_path, text, message):
        p = tmp_path / "forum.json"
        p.write_text(text)
        with pytest.raises(ValueError) as info:
            load_forum_json(p)
        assert str(info.value).startswith(f"{p}: {message}")
        assert str(info.value).count(str(p)) == 1


class TestGlobalInvariants:
    def test_no_emitted_ties_anywhere(self):
        rng = random.Random(40)
        contexts = []
        for ci in range(10):
            responses = [resp(f"r{ci}-{k}", rng.randint(1, 5)) for k in range(4)]
            contexts.append(((), f"ref{ci}", responses))
        for ev in build_usr_sets(contexts):
            assert ev.human_a != ev.human_b

        dialogues = []
        for di in range(10):
            answers = [ForumAnswer("ref", 0, True)] + [
                ForumAnswer(f"a{k}", rng.randint(0, 4), False) for k in range(4)
            ]
            dialogues.append((f"q{di}", answers))
        for ev in build_forum_sets(dialogues):
            assert ev.human_a != ev.human_b
