import json
import random
import re

import numpy as np
import pytest

from classim import responses as responses_module
from classim.classroom import SkillLevel
from classim.gateway import CompletionRecord, CompletionRequest, RequestKey
from classim.promptgen import PromptKind, RenderedPrompt
from classim.responses import (
    NO_STUDENT,
    ParsedAnswer,
    ParseStatus,
    ResponseLog,
    ResponseMatrix,
    SimulatedResponse,
    build_matrix,
    direct_estimates,
    grade,
    grade_disagreement,
    parse_answer,
    parse_percentage,
    response_line,
)

from classim.corpus import parse_corpus_records
from conftest import OUT_OF_DOMAIN, OUT_OF_DOMAIN_IDS, make_item_record

LETTERS = ("A", "B", "C", "D")


def status(text):
    return parse_answer(text, LETTERS).status


def chosen(text):
    return parse_answer(text, LETTERS).chosen


class TestParseAnswer:
    def test_clean_json(self):
        reply = '{"reasoning": "summed the parts", "answer key": "C"}'
        parsed = parse_answer(reply, LETTERS)
        assert (parsed.chosen, parsed.status) == ("C", ParseStatus.PARSED)

    def test_json_after_preamble(self):
        reply = 'Okay, thinking as myself:\n{"reasoning": "...", "answer key": "B"}'
        assert chosen(reply) == "B"

    def test_single_quoted_object(self):
        reply = "{'reasoning': 'it doubled', 'answer key': 'd'}"
        parsed = parse_answer(reply, LETTERS)
        assert (parsed.chosen, parsed.status) == ("D", ParseStatus.PARSED)

    def test_key_spelling_variants(self):
        assert chosen('{"Answer Key": "A"}') == "A"
        assert chosen('{"answer_key": "A"}') == "A"
        assert chosen('{"ANSWER KEY": "a"}') == "A"

    def test_explicitly_empty_answer_fails(self):
        reply = "{'reasoning': 'I have no idea', 'answer key': ''}"
        parsed = parse_answer(reply, LETTERS)
        assert parsed.chosen is None
        assert parsed.status == ParseStatus.FAILED

    def test_duplicate_keys_last_wins(self):
        reply = '{"answer key": "A", "reasoning": "wait, no", "answer key": "B"}'
        assert chosen(reply) == "B"

    def test_two_objects_last_wins(self):
        reply = (
            '{"reasoning": "first try", "answer key": "A"}\n'
            'Correction: {"reasoning": "recheck", "answer key": "C"}'
        )
        assert chosen(reply) == "C"

    def test_marker_line(self):
        reply = "Let me solve it.\n3 + 4 = 7.\nAnswer Key: B"
        parsed = parse_answer(reply, LETTERS)
        assert (parsed.chosen, parsed.status) == ("B", ParseStatus.PARSED)

    def test_marker_with_brackets(self):
        assert chosen("Answer Key: [C]") == "C"
        assert chosen("Answer Key: (a)") == "A"

    def test_last_marker_wins(self):
        reply = "Answer Key: A\nOn reflection that was wrong.\nAnswer Key: D"
        assert chosen(reply) == "D"

    def test_broken_json_falls_back_to_field_scan(self):
        reply = '{"reasoning": "unterminated, "answer key": "B"}'
        parsed = parse_answer(reply, LETTERS)
        assert (parsed.chosen, parsed.status) == ("B", ParseStatus.PARSED)

    def test_lone_letter_final_line_is_recovered(self):
        reply = "The total is 14, so the third option.\n\nC"
        parsed = parse_answer(reply, LETTERS)
        assert (parsed.chosen, parsed.status) == ("C", ParseStatus.RECOVERED)

    def test_lone_letter_with_punctuation(self):
        parsed = parse_answer("I pick:\n(B).", LETTERS)
        assert (parsed.chosen, parsed.status) == ("B", ParseStatus.RECOVERED)

    def test_letter_before_final_line_does_not_count(self):
        reply = "B\nbut actually I cannot decide between the options."
        assert status(reply) == ParseStatus.FAILED

    def test_out_of_range_letter_fails(self):
        parsed = parse_answer('{"answer key": "F"}', LETTERS)
        assert parsed.chosen is None
        assert parsed.status == ParseStatus.FAILED
        assert status("Answer Key: E") == ParseStatus.FAILED

    def test_out_of_range_does_not_fall_through(self):
        # a stated-but-invalid answer must not be rescued by a later line
        reply = 'Answer Key: Z\nB'
        assert status(reply) == ParseStatus.FAILED

    def test_refusal_fails(self):
        assert status("I cannot answer this question.") == ParseStatus.FAILED
        assert status("") == ParseStatus.FAILED

    def test_mentioning_answer_key_without_colon_is_not_a_commitment(self):
        reply = "I am not sure which answer key fits best.\nD"
        parsed = parse_answer(reply, LETTERS)
        assert (parsed.chosen, parsed.status) == ("D", ParseStatus.RECOVERED)

    def test_five_choice_range(self):
        assert parse_answer("Answer Key: E", "ABCDE").chosen == "E"

    @pytest.mark.parametrize(
        "reply, expected",
        [
            ("[" * 3000, (None, ParseStatus.FAILED)),
            ("1+" * 100_000 + "1", (None, ParseStatus.FAILED)),
            ("-" * 100_000 + "1", (None, ParseStatus.FAILED)),
            ("Answer Key: B {" + "1+" * 100_000 + "1}", ("B", ParseStatus.PARSED)),
            ("[" * 3000 + "\nC", ("C", ParseStatus.RECOVERED)),
        ],
        ids=["deep-list", "long-sum", "deep-negation", "marker-beside-a-deep-span",
             "letter-after-a-deep-list"],
    )
    def test_a_reply_no_decoder_accepts_falls_through_to_the_other_routes(
        self, reply, expected
    ):
        parsed = parse_answer(reply, LETTERS)
        assert (parsed.chosen, parsed.status) == expected


class TestParsePercentage:
    def test_plain_integer(self):
        assert parse_percentage("Percentage Correct: 63") == 0.63

    def test_decimal_and_percent_sign(self):
        assert parse_percentage("Percentage Correct: 47.5%") == 0.475

    def test_bracketed_instruction_echo_then_value(self):
        text = 'I will end with "Percentage Correct: [percentage]".\nPercentage Correct: 82'
        assert parse_percentage(text) == 0.82

    def test_last_marker_wins(self):
        text = "Percentage Correct: 10\nRevised.\nPercentage Correct: 35"
        assert parse_percentage(text) == 0.35

    def test_clamped_to_bounds(self):
        assert parse_percentage("Percentage Correct: 250") == 1.0

    def test_missing_marker(self):
        assert parse_percentage("Most students will get this right.") is None
    def test_case_insensitive(self):
        assert parse_percentage("percentage correct: 44") == 0.44


def test_grade():
    assert grade("B", "B") == 1
    assert grade("A", "B") == 0
    assert grade(None, "B") == 0


def make_response(item="it1", student=0, replicate=0, skill="Basic", correct=1,
                  status_value="parsed", chosen_letter="A"):
    return SimulatedResponse(
        item_id=item,
        student_index=student,
        replicate=replicate,
        skill=skill,
        raw='{"answer key": "%s"}' % chosen_letter,
        chosen=chosen_letter if status_value != "failed" else None,
        correct=correct,
        parse_status=status_value,
    )


class TestLog:
    def test_record_round_trip(self):
        response = make_response()
        line = response_line(response)
        record = json.loads(line)
        assert set(record) == {
            "item_id",
            "student_index",
            "replicate",
            "skill",
            "raw",
            "chosen",
            "correct",
            "parse_status",
        }
        assert SimulatedResponse.from_record(record) == response

    @pytest.mark.parametrize(
        "raw, chosen",
        [
            ('{"reasoning": "J\'ai compté: ½ + ¼ = ¾ — 3/4", "answer key": "C"}', "C"),
            ('She said "B", then \\ "answer key": "B"', "B"),
            ("first line\nsecond line\r\n\tAnswer Key: D\u2028", "D"),
            ("I ran out of time and could not pick one.", None),
            ("数学の答え: \U0001F600 \x00\x1f", None),
        ],
        ids=["non-ascii", "quoted", "multi-line", "no-choice", "control"],
    )
    def test_line_is_json_dumps_of_the_record(self, raw, chosen):
        response = SimulatedResponse(
            item_id="g8-0001", student_index=3, replicate=0, skill="Basic", raw=raw,
            chosen=chosen, correct=0, parse_status="failed" if chosen is None else "parsed",
        )
        line = response_line(response)
        assert line == json.dumps(response._asdict(), ensure_ascii=False)
        assert SimulatedResponse.from_record(json.loads(line)) == response

    def test_append_and_read(self, tmp_path):
        log = ResponseLog(str(tmp_path / "r.jsonl"))
        batch = [make_response(student=i) for i in range(3)]
        log.append_batch(batch)
        log.append_batch([make_response(student=3)])
        assert log.read_all({}) == batch + [make_response(student=3)]

    def test_torn_final_line_is_repaired(self, tmp_path):
        path = tmp_path / "r.jsonl"
        log = ResponseLog(str(path))
        log.append_batch([make_response(student=i) for i in range(3)])
        intact = path.read_bytes()
        path.write_bytes(intact + b'{"item_id": "it1", "stu')
        responses = log.open_resumable({})
        assert path.read_bytes() == intact
        assert len(responses) == 3

    def test_unicode_line_separators_stay_inside_one_record(self, tmp_path):
        # json writes these raw; str.splitlines would break a line at each
        path = tmp_path / "r.jsonl"
        log = ResponseLog(str(path))
        odd = make_response(student=1)._replace(raw="one\u2028two\u2029three\x85four")
        batch = [make_response(student=0), odd, make_response(student=2)]
        log.append_batch(batch)
        written = path.read_bytes()
        assert written.count(b"\n") == 3 and "\u2028".encode("utf-8") in written
        assert log.read_all({}) == batch
        assert log.open_resumable({}) == batch
        assert path.read_bytes() == written

    def test_missing_file_is_empty(self, tmp_path):
        log = ResponseLog(str(tmp_path / "nope.jsonl"))
        responses = log.open_resumable({})
        assert responses == []
        assert (tmp_path / "nope.jsonl").read_bytes() == b""

    def test_corrupt_interior_line_is_an_error(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text('not json\n{"also": "incomplete"}\n', encoding="utf-8")
        with pytest.raises(ValueError):
            ResponseLog(str(path)).read_all({})


    def test_record_reads_the_fields_in_declaration_order(self):
        response = make_response()
        record = json.loads(response_line(response))
        assert list(record) == list(SimulatedResponse._fields)
        assert [*record.values()] == list(response)

    @pytest.mark.parametrize("field, value", OUT_OF_DOMAIN, ids=OUT_OF_DOMAIN_IDS)
    def test_a_value_outside_its_field_is_named(self, field, value):
        record = {**make_response()._asdict(), field: value}
        with pytest.raises(ValueError, match=rf"^response field '{field}' must be "):
            SimulatedResponse.from_record(record)

    @pytest.mark.parametrize(
        "field, value",
        [("student_index", NO_STUDENT), ("student_index", 2**1000), ("replicate", 0),
         ("replicate", 2**1000), ("correct", 0), ("correct", 1),
         *(("parse_status", status.value) for status in ParseStatus)],
    )
    def test_a_value_at_the_edge_of_its_field_is_read(self, field, value):
        record = {**make_response()._asdict(), field: value}
        assert SimulatedResponse.from_record(record)._asdict() == record

    @pytest.mark.parametrize(
        "make, fields, change",
        [
            (lambda: RenderedPrompt("s", "u", PromptKind.STUDENT),
             ("system", "user", "kind"), {"user": "v"}),
            (lambda: CompletionRequest(
                RenderedPrompt("s", "u", PromptKind.STUDENT), RequestKey("it1", 0, 0), 0.7),
             ("prompt", "key", "temperature", "skill"), {"skill": SkillLevel.BASIC}),
            (lambda: CompletionRecord(
                CompletionRequest(
                    RenderedPrompt("s", "u", PromptKind.KNOWLEDGE), RequestKey("it1", -1, 0), 0.0
                ),
                "Answer Key: A", True, 1),
             ("request", "text", "ok", "attempts", "error"), {"ok": False, "error": "x"}),
            (lambda: ParsedAnswer("A", ParseStatus.PARSED),
             ("chosen", "status"), {"chosen": None, "status": ParseStatus.FAILED}),
            (make_response,
             ("item_id", "student_index", "replicate", "skill", "raw", "chosen", "correct",
              "parse_status"), {"correct": 0}),
        ],
        ids=["RenderedPrompt", "CompletionRequest", "CompletionRecord", "ParsedAnswer",
             "SimulatedResponse"],
    )
    def test_per_request_values_are_immutable_tuples(self, make, fields, change):
        value = make()
        assert isinstance(value, tuple) and type(value)._fields == fields
        assert not hasattr(value, "__dict__")
        name = next(iter(change))
        with pytest.raises(AttributeError):
            setattr(value, name, change[name])
        assert value == make() and hash(value) == hash(make())
        assert {value, make()} == {value}
        changed = value._replace(**change)
        assert changed != value and value == make()
        assert [getattr(changed, field) for field in change] == list(change.values())


class TestRecords:
    def test_records_come_one_at_a_time_in_file_order(self, tmp_path):
        log = ResponseLog(str(tmp_path / "r.jsonl"))
        batch = [make_response(student=i) for i in range(4)]
        log.append_batch(batch)
        records = log.records({})
        assert not isinstance(records, list)
        assert next(records) == batch[0]
        assert list(records) == batch[1:]
        assert log.read_all({}) == batch

    def test_a_corrupt_line_fails_when_it_is_reached(self, tmp_path):
        path = tmp_path / "r.jsonl"
        log = ResponseLog(str(path))
        batch = [make_response(student=i) for i in range(3)]
        log.append_batch(batch)
        path.write_bytes(path.read_bytes() + b'{"item_id": "it1"}\n' + response_line(batch[0]).encode() + b"\n")
        records = log.records({})
        assert [next(records) for _ in batch] == batch
        with pytest.raises(
            ValueError,
            match=rf"^{re.escape(str(path))}:4: corrupt response line: .*'student_index'",
        ):
            next(records)

    def test_a_line_nested_too_deeply_is_a_corrupt_line(self, tmp_path):
        path = tmp_path / "r.jsonl"
        log = ResponseLog(str(path))
        log.append_batch([make_response()])
        path.write_bytes(path.read_bytes() + b"[" * 100_000 + b"\n")
        records = log.records({})
        assert next(records) == make_response()
        where = re.escape(f"{path}:2: corrupt response line: ")
        with pytest.raises(ValueError, match=f"^{where}"):
            next(records)

    def test_a_missing_file_is_an_error(self, tmp_path):
        records = ResponseLog(str(tmp_path / "nope.jsonl")).records({})
        with pytest.raises(FileNotFoundError, match="nope.jsonl"):
            next(records)

    def test_a_consumer_that_stops_early_leaves_no_open_file(self, tmp_path, monkeypatch):
        log = ResponseLog(str(tmp_path / "r.jsonl"))
        log.append_batch([make_response(student=i) for i in range(3)])
        opened = []

        def recording_open(*args, **kwargs):
            opened.append(open(*args, **kwargs))
            return opened[-1]

        monkeypatch.setattr(responses_module, "open", recording_open, raising=False)
        for _ in log.records({}):
            break
        assert len(opened) == 1 and opened[0].closed
        records = log.records({})
        next(records)
        assert not opened[1].closed
        del records
        assert opened[1].closed


class TestGradeAgreement:
    # make_item_record(1) is item g8-0001, with letters A-D and key B
    ITEMS = parse_corpus_records([make_item_record(1)]).by_id

    @pytest.mark.parametrize(
        "chosen, correct, status",
        [("B", 1, "parsed"), ("C", 0, "recovered"), (None, 0, "failed"), (None, 0, "parsed")],
        ids=["right", "wrong", "failed", "no-letter"],
    )
    def test_the_grades_classim_writes_agree(self, chosen, correct, status):
        response = make_response(item="g8-0001")._replace(
            chosen=chosen, correct=correct, parse_status=status
        )
        assert grade_disagreement(response, self.ITEMS["g8-0001"]) is None

    @pytest.mark.parametrize(
        "chosen, correct, status, named",
        [
            (
                "C", 1, "parsed",
                "disagrees with the corpus: it chose 'C' and is graded 1, "
                "but the corpus key of item 'g8-0001' is 'B'",
            ),
            (
                "B", 0, "recovered",
                "disagrees with the corpus: it chose 'B' and is graded 0, "
                "but the corpus key of item 'g8-0001' is 'B'",
            ),
            (
                None, 1, "failed",
                "disagrees with the corpus: it chose None and is graded 1, "
                "but the corpus key of item 'g8-0001' is 'B'",
            ),
            ("B", 1, "failed", "is a failed parse holding letter 'B'"),
            (
                "E", 0, "parsed",
                "disagrees with the corpus: it chose 'E', but the corpus gives item "
                "'g8-0001' the letters ['A', 'B', 'C', 'D']",
            ),
        ],
        ids=["wrong-graded-right", "right-graded-wrong", "no-letter-graded-right",
             "failed-with-letter", "foreign-letter"],
    )
    def test_a_grade_that_disagrees_with_its_letter_is_named(
        self, chosen, correct, status, named
    ):
        response = make_response(item="g8-0001", student=3)._replace(
            chosen=chosen, correct=correct, parse_status=status
        )
        problem = grade_disagreement(response, self.ITEMS["g8-0001"])
        assert problem == f"reply ('g8-0001', 3, 0) {named}"

    def test_records_check_grades_of_the_items_given_only(self, tmp_path):
        path = tmp_path / "r.jsonl"
        log = ResponseLog(str(path))
        right = make_response(item="g8-0001")._replace(chosen="B")
        foreign = make_response(item="elsewhere", chosen_letter="Z", correct=0)
        misgraded = right._replace(student_index=1, correct=0)
        log.append_batch([right, foreign, misgraded])
        assert log.read_all({}) == [right, foreign, misgraded]
        records = log.records(self.ITEMS)
        assert [next(records), next(records)] == [right, foreign]
        where = re.escape(
            f"{path}:3: reply ('g8-0001', 1, 0) disagrees with the corpus: it chose 'B'"
        )
        with pytest.raises(ValueError, match=f"^{where}"):
            next(records)


class TestMatrix:
    def test_basic_shape_and_values(self):
        responses = [
            make_response(item="i1", student=0, correct=1),
            make_response(item="i2", student=0, correct=0),
            make_response(item="i1", student=1, correct=0, skill="Advanced"),
            make_response(item="i2", student=1, correct=1, skill="Advanced"),
        ]
        matrix = build_matrix(responses, ["i1", "i2"])
        assert matrix.n_students == 2 and matrix.n_items == 2
        assert matrix.skills == ("Basic", "Advanced")
        assert matrix.data.tolist() == [[1, 0], [0, 1]]
        assert matrix.mask.all()
        assert matrix.item_success_rates().tolist() == [0.5, 0.5]

    def test_majority_vote_including_exact_tie(self):
        responses = [
            make_response(item="i1", student=0, replicate=0, correct=1),
            make_response(item="i1", student=0, replicate=1, correct=1),
            make_response(item="i1", student=0, replicate=2, correct=0),
            make_response(item="i2", student=0, replicate=0, correct=1),
            make_response(item="i2", student=0, replicate=1, correct=0),
        ]
        matrix = build_matrix(responses, ["i1", "i2"])
        assert matrix.data.tolist() == [[1, 0]]  # 2/3 yes; tie resolves down

    def test_failed_parse_counts_as_wrong_by_default(self):
        responses = [
            make_response(item="i1", student=0, correct=0, status_value="failed"),
        ]
        matrix = build_matrix(responses, ["i1"])
        assert matrix.mask[0, 0]
        assert matrix.data[0, 0] == 0

    def test_failed_parse_can_be_masked_out(self):
        responses = [
            make_response(item="i1", student=0, correct=0, status_value="failed"),
            make_response(item="i2", student=0, correct=1),
        ]
        matrix = build_matrix(responses, ["i1", "i2"], mask_failed=True)
        assert not matrix.mask[0, 0]
        assert matrix.mask[0, 1]
        rates = matrix.item_success_rates()
        assert np.isnan(rates[0]) and rates[1] == 1.0

    def test_unknown_items_are_ignored(self):
        responses = [make_response(item="mystery", student=0)]
        matrix = build_matrix(responses, ["i1"])
        assert matrix.n_students == 0

    def test_inconsistent_skill_rejected(self):
        responses = [
            make_response(item="i1", student=0, skill="Basic"),
            make_response(item="i2", student=0, skill="Advanced"),
        ]
        with pytest.raises(ValueError):
            build_matrix(responses, ["i1", "i2"])

    def test_group_counts_match_brute_force(self):
        rng = np.random.default_rng(5)
        data = rng.integers(0, 2, size=(7, 3)).astype(np.int8)
        mask = rng.random((7, 3)) < 0.7
        matrix = ResponseMatrix(
            ("i1", "i2", "i3"), tuple(range(7)), ("Basic",) * 7, data, mask
        )
        members = np.array([[1, 1, 0, 0, 1, 0, 1], [0, 1, 1, 1, 1, 0, 0]], dtype=bool)
        observed, correct = matrix.group_counts(members)
        for g, rows in enumerate(members):
            assert observed[g].tolist() == mask[rows].sum(axis=0).tolist()
            assert correct[g].tolist() == (data * mask)[rows].sum(axis=0).tolist()

    def test_no_students_count_nothing(self):
        matrix = build_matrix([], ["i1", "i2"])
        observed, correct = matrix.group_counts(np.ones((1, 0), dtype=bool))
        assert observed.tolist() == correct.tolist() == [[0.0, 0.0]]
        assert np.isnan(matrix.item_success_rates()).all()

    def test_shape_mismatch_rejected(self):
        from classim.responses import ResponseMatrix

        with pytest.raises(ValueError):
            ResponseMatrix(
                item_ids=("i1",),
                student_indices=(0,),
                skills=("Basic",),
                data=np.zeros((2, 2), dtype=np.int8),
                mask=np.ones((2, 2), dtype=bool),
            )


def test_direct_estimates_average_and_null():
    parsed = [
        ("i1", 0.4),
        ("i1", 0.6),
        ("i1", None),
        ("i2", None),
        ("ignored", 0.9),
    ]
    estimates = direct_estimates(parsed, ["i1", "i2"])
    assert estimates["i1"] == pytest.approx(0.5)
    assert estimates["i2"] is None
    assert "ignored" not in estimates


def reference_build_matrix(responses, item_ids, mask_failed=False):
    """build_matrix as a dict of per-cell vote lists, the reference the
    flat builder must match."""
    column = {item_id: j for j, item_id in enumerate(item_ids)}
    votes = {}
    skills = {}
    for response in responses:
        if response.item_id not in column:
            continue
        if mask_failed and response.parse_status == ParseStatus.FAILED.value:
            continue
        prior = skills.setdefault(response.student_index, response.skill)
        if prior != response.skill:
            raise ValueError(
                f"student {response.student_index} appears with skills "
                f"{prior!r} and {response.skill!r}"
            )
        votes.setdefault((response.student_index, response.item_id), []).append(
            response.correct
        )
    students = tuple(sorted(skills))
    row = {student_index: i for i, student_index in enumerate(students)}
    data = np.zeros((len(students), len(column)), dtype=np.int8)
    mask = np.zeros((len(students), len(column)), dtype=bool)
    for (student_index, item_id), scores in votes.items():
        i, j = row[student_index], column[item_id]
        mask[i, j] = True
        data[i, j] = 1 if sum(scores) * 2 > len(scores) else 0
    return ResponseMatrix(
        item_ids=tuple(item_ids),
        student_indices=students,
        skills=tuple(skills[s] for s in students),
        data=data,
        mask=mask,
    )


def _random_replies(rng, item_ids, clash):
    students = rng.sample([-5, 0, 1, 2, 3, 7, 11, 40, 2**40, 10**20], rng.randint(1, 7))
    skill = {s: rng.choice(("BelowBasic", "Basic", "Proficient", "Advanced")) for s in students}
    replies = []
    for student in students:
        for item_id in [*item_ids, "unknown-1", "unknown-2"]:
            if rng.random() < 0.2:
                continue  # an unobserved cell
            for replicate in range(rng.randint(1, 4)):
                correct = rng.randint(0, 1)
                replies.append(
                    SimulatedResponse(
                        item_id=item_id,
                        student_index=student,
                        replicate=replicate,
                        skill=skill[student],
                        raw="",
                        chosen=None,
                        correct=correct,
                        parse_status=rng.choice(("parsed", "recovered", "failed")),
                    )
                )
    rng.shuffle(replies)
    if clash:
        at = rng.randrange(len(replies))
        replies[at] = replies[at]._replace(skill="Other")
    return replies


@pytest.mark.parametrize("mask_failed", [False, True], ids=["counted", "masked"])
@pytest.mark.parametrize("seed", range(60))
def test_build_matrix_matches_the_per_cell_reference(seed, mask_failed):
    rng = random.Random(seed)
    item_ids = [f"i{j}" for j in range(rng.randint(1, 5))]
    replies = _random_replies(rng, item_ids, clash=seed % 5 == 4)
    try:
        expected = reference_build_matrix(replies, item_ids, mask_failed)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            build_matrix(iter(replies), item_ids, mask_failed)
        assert str(raised.value) == str(exc)
        return
    matrix = build_matrix(iter(replies), item_ids, mask_failed)
    assert matrix.item_ids == expected.item_ids
    assert matrix.student_indices == expected.student_indices
    assert matrix.skills == expected.skills
    assert matrix.data.dtype == expected.data.dtype == np.int8
    assert matrix.data.tolist() == expected.data.tolist()
    assert matrix.mask.tolist() == expected.mask.tolist()


def test_build_matrix_ties_follow_the_majority_rule():
    cells = {"tie": [1, 0], "two-thirds": [1, 1, 0], "one-third": [0, 1, 0],
             "tie-of-four": [0, 1, 1, 0], "three-fifths": [1, 0, 1, 0, 1]}
    replies = [
        make_response(item=item_id, replicate=r, correct=grade)
        for item_id, grades in cells.items()
        for r, grade in enumerate(grades)
    ]
    matrix = build_matrix(replies, list(cells))
    assert matrix.data.tolist() == [[0, 1, 0, 0, 1]]
    assert matrix.data.tolist() == reference_build_matrix(replies, list(cells)).data.tolist()


@pytest.mark.parametrize("grade", [2, -1, 10**30])
def test_build_matrix_rejects_a_grade_other_than_0_or_1(grade):
    replies = [make_response(correct=1), make_response(student=1, correct=grade)]
    with pytest.raises(ValueError, match=rf"^reply \('it1', 1, 0\) is graded {grade}$"):
        build_matrix(replies, ["it1"])
