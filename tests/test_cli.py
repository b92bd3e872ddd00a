import random

import pytest

from braidnf import cli, engine
from braidnf.braidword import parse_word
from braidnf.bench import CSV_HEADER, bench_rows
from braidnf.cli import main
from braidnf.errors import InternalStateError, MalformedWordError, ResourceLimitError
from braidnf.gbase import MAX_TEXT_STRANDS, format_gbase
from braidnf.solver import process_word


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_normal_form_prints_gbase(capsys):
    code, out, _ = run(capsys, "normal-form", "--strands", "2", "1")
    assert code == 0
    assert out == "(-1,0) (2,0) (-1,0) (2,1) (1,0) (-1,0)\n"


def test_normal_form_empty_word(capsys):
    code, out, _ = run(capsys, "normal-form", "--strands", "3", "")
    assert code == 0
    assert out == "(-1,0) (1,0) (-1,0) (2,0) (-1,0) (3,0) (-1,0)\n"


def test_normal_form_bad_index_exits_2(capsys):
    code, out, err = run(capsys, "normal-form", "--strands", "2", "5")
    assert code == 2
    assert out == ""
    assert "error" in err


@pytest.mark.parametrize("text, n", [("0", 3), ("3", 3), ("-3", 3), ("1", 1)])
def test_letter_out_of_range_is_refused(text, n, capsys):
    with pytest.raises(MalformedWordError, match="out of range"):
        parse_word(text, n)
    for argv in (["normal-form", text], ["equal", text, ""], ["identity", text]):
        code, out, err = run(capsys, argv[0], "--strands", str(n), *argv[1:])
        assert (code, out) == (2, "")
        assert f"generator index {text.lstrip('-')} out of range for {n} strands" in err


def test_equal_true_exits_0(capsys):
    code, out, _ = run(capsys, "equal", "--strands", "3", "1 2 1", "2 1 2")
    assert (code, out) == (0, "true\n")


def test_equal_false_exits_1(capsys):
    code, out, _ = run(capsys, "equal", "--strands", "2", "1", "-1")
    assert (code, out) == (1, "false\n")


def test_identity_true(capsys):
    code, out, _ = run(capsys, "identity", "--strands", "2", "1 -1")
    assert (code, out) == (0, "true\n")


def test_oracle_equal_matches_solver(capsys):
    code, out, _ = run(capsys, "oracle-equal", "--strands", "4", "1 3", "3 1")
    assert (code, out) == (0, "true\n")
    code, out, _ = run(capsys, "oracle-equal", "--strands", "2", "1", "")
    assert (code, out) == (1, "false\n")


def test_identity_batch_file(tmp_path, capsys):
    path = tmp_path / "words.txt"
    path.write_text("1 -1\n\n1\n", encoding="utf-8")
    code, out, _ = run(capsys, "identity", "--strands", "2", "--file", str(path))
    assert code == 1
    assert out == "true\ntrue\nfalse\n"


def test_normal_form_batch_file(tmp_path, capsys):
    path = tmp_path / "words.txt"
    path.write_text("\n1\n", encoding="utf-8")
    code, out, _ = run(capsys, "normal-form", "--strands", "2", "--file", str(path))
    assert code == 0
    assert out.splitlines() == [
        "(-1,0) (1,0) (-1,0) (2,0) (-1,0)",
        "(-1,0) (2,0) (-1,0) (2,1) (1,0) (-1,0)",
    ]


def test_normal_form_file_prints_the_process_word_normal_forms(tmp_path, capsys):
    rng = random.Random(5)
    words = [
        " ".join(str(rng.randint(1, 7) * rng.choice((1, -1))) for _ in range(rng.randint(0, 24)))
        for _ in range(12)
    ]
    words.append("1 3 5 -1 2 -3 -5")
    path = tmp_path / "words.txt"
    path.write_text("".join(word + "\n" for word in words), encoding="utf-8")
    code, out, _ = run(capsys, "normal-form", "--strands", "8", "--file", str(path))
    assert code == 0
    assert out == "".join(
        format_gbase(process_word(parse_word(word, 8))[0]) + "\n" for word in words
    )


def test_batch_file_prints_results_before_a_malformed_line(tmp_path, capsys):
    path = tmp_path / "words.txt"
    path.write_text("1 -1\n1\n5\n", encoding="utf-8")
    code, out, err = run(capsys, "normal-form", "--strands", "2", "--file", str(path))
    assert code == 2
    assert out.splitlines() == [
        "(-1,0) (1,0) (-1,0) (2,0) (-1,0)",
        "(-1,0) (2,0) (-1,0) (2,1) (1,0) (-1,0)",
    ]
    assert "error" in err
    code, out, err = run(capsys, "identity", "--strands", "2", "--file", str(path))
    assert (code, out) == (2, "true\nfalse\n")
    assert "error" in err


def test_word_and_file_together_exit_2(capsys):
    for verb in ("identity", "normal-form"):
        code, out, err = run(capsys, verb, "--strands", "2", "1", "--file", "x")
        assert (code, out) == (2, "")
        assert "exactly one" in err


def test_strand_count_beyond_the_engine_exits_2(capsys):
    strands = str(MAX_TEXT_STRANDS + 1)
    code, out, err = run(capsys, "normal-form", "--strands", strands, "1")
    assert (code, out) == (2, "")
    assert strands in err


def test_every_verb_refuses_strands_past_the_text_range(capsys):
    strands = str(MAX_TEXT_STRANDS + 1)
    refused = f"braidnf: error: strand count {strands} exceeds {MAX_TEXT_STRANDS}\n"
    for verb, *rest in (["normal-form", "1"], ["identity", "1 -1"], ["equal", "1", "1"],
                        ["oracle-equal", "1", "1"],
                        ["bench", "--length", "0", "--count", "0", "--seed", "1"]):
        code, out, err = run(capsys, verb, "--strands", strands, *rest)
        assert (code, out, err) == (2, "", refused), verb


def test_link_ceiling_exits_2(monkeypatch, capsys):
    # at n=3, 1 -2 1 -2 1 grows the list to 8, 12, 21, 37, 63 links
    monkeypatch.setattr("braidnf.gbase.MAX_LINKS", 62)
    refused = "letter 4 (1): list of 63 links exceeds MAX_LINKS (62)"
    for argv in (["normal-form", "--strands", "3", "1 -2 1 -2 1"],
                 ["equal", "--strands", "3", "1 -2 1 -2 1 2 2", "2 2 1 -2 1 -2 1"],
                 ["identity", "--strands", "3", "1 -2 1 -2 1 -2"]):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"braidnf: error: {refused}\n"), argv
    code, out, err = run(capsys, "bench", "--strands", "3", "--length", "32",
                         "--count", "2", "--seed", "7")
    assert (code, out) == (2, "")
    assert err.startswith("braidnf: error: letter ") and "exceeds MAX_LINKS (62)" in err


def test_visit_ceiling_exits_2(monkeypatch, capsys):
    # at n=3, 1 -2 1 -2 1 visits 294 links over its five letters
    monkeypatch.setattr("braidnf.gbase.MAX_VISITS", 293)
    refused = "letter 4 (1): 294 links visited exceed MAX_VISITS (293)"
    for argv in (["normal-form", "--strands", "3", "1 -2 1 -2 1"],
                 ["equal", "--strands", "3", "1 -2 1 -2 1 2 2", "2 2 1 -2 1 -2 1"],
                 ["identity", "--strands", "3", "1 -2 1 -2 1 -2"]):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"braidnf: error: {refused}\n"), argv
    # 32 letters visit at least 32 * 7 links, under the ceiling, so the loop refuses
    code, out, err = run(capsys, "bench", "--strands", "3", "--length", "32",
                         "--count", "2", "--seed", "7")
    assert (code, out) == (2, "")
    assert err.startswith("braidnf: error: letter ") and "exceed MAX_VISITS (293)" in err


def test_bench_refuses_words_past_the_visit_floor_before_drawing(monkeypatch, capsys):
    # each letter visits at least its input list, which holds at least the
    # 2n + 1 links of the standard g-base: 10 letters at n=3 visit at least 70
    monkeypatch.setattr("braidnf.gbase.MAX_VISITS", 70)
    code, out, err = run(capsys, "bench", "--strands", "3", "--length", "10",
                         "--count", "0", "--seed", "1")
    assert (code, out) == (0, CSV_HEADER + "\n")
    monkeypatch.setattr("braidnf.gbase.MAX_VISITS", 69)
    refused = ("braidnf: error: 10 letters over 3 strands visit at least 70 links, "
               "which exceed MAX_VISITS (69)\n")
    for count in ("0", "1"):
        code, out, err = run(capsys, "bench", "--strands", "3", "--length", "10",
                             "--count", count, "--seed", "1")
        assert (code, out, err) == (2, "", refused), count
    with pytest.raises(ResourceLimitError, match="visit at least 70 links"):
        bench_rows(3, 10, 0, 1)
    # under the real ceiling, at the most strands a word may hold, 135
    # letters are refused and 134 are not (count 0 draws nothing either way)
    monkeypatch.undo()
    n = MAX_TEXT_STRANDS
    assert 134 * (2 * n + 1) <= 10**8 < 135 * (2 * n + 1)
    assert bench_rows(n, 134, 0, 1) == []
    with pytest.raises(ResourceLimitError, match=r"exceed MAX_VISITS \(100000000\)$"):
        bench_rows(n, 135, 0, 1)


def test_internal_error_exits_3_and_prints_no_verdict(monkeypatch, capsys):
    def step(text, index, sign):
        raise InternalStateError("broken invariant")

    monkeypatch.setattr(engine, "step", step)
    code, out, err = run(capsys, "equal", "--strands", "3", "1 2 1", "2 1 2")
    assert (code, out) == (3, "")
    assert err == "braidnf: internal error: letter 0 (1): broken invariant\n"


def test_integer_past_the_digit_limit_exits_2(capsys):
    code, out, err = run(capsys, "equal", "--strands", "3", "1 " + "1" * 5000, "1")
    assert (code, out) == (2, "")
    assert "too many digits" in err and "set_int_max_str_digits" not in err


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "normal-form", "--strands", "2", "--file", "/nonexistent")
    assert code == 2


def test_missing_flags_exit_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["equal", "1", "2"])
    assert excinfo.value.code == 2


def test_one_parser_serves_calls_in_sequence(capsys):
    def outcome(argv):
        try:
            code = main(argv)
        except SystemExit as usage_error:
            code = usage_error.code
        return (code, *capsys.readouterr())

    calls = [
        ["normal-form", "--strands", "2", "1"],
        ["equal", "--strands", "3", "1 2 1", "2 1 2"],
        ["equal", "1", "2"],  # usage error: --strands is missing
        ["normal-form", "--strands", "2", "1"],
    ]
    fresh = []
    for argv in calls:
        cli._build_parser.cache_clear()
        fresh.append(outcome(argv))
    assert [outcome(argv) for argv in calls] == fresh
    assert [code for code, _, _ in fresh] == [0, 0, 2, 0]
    assert cli._build_parser() is cli._build_parser()


def test_bench_header_and_determinism(capsys):
    code1, out1, _ = run(capsys, "bench", "--strands", "4", "--length", "8",
                         "--count", "2", "--seed", "7")
    code2, out2, _ = run(capsys, "bench", "--strands", "4", "--length", "8",
                         "--count", "2", "--seed", "7")
    assert code1 == code2 == 0
    lines1, lines2 = out1.splitlines(), out2.splitlines()
    assert lines1[0] == "n,word_length,seed,final_list_length,max_list_length,links_visited,time_ns"
    assert len(lines1) == 3
    # everything but the timing column is workload, and must reproduce exactly
    assert [l.rsplit(",", 1)[0] for l in lines1] == [l.rsplit(",", 1)[0] for l in lines2]


def test_bench_count_zero_prints_header_only(capsys):
    code, out, _ = run(capsys, "bench", "--strands", "3", "--length", "4",
                       "--count", "0", "--seed", "1")
    assert code == 0
    assert out.splitlines() == [
        "n,word_length,seed,final_list_length,max_list_length,links_visited,time_ns"
    ]


def test_bench_rejects_bad_flags(capsys):
    code, out, err = run(capsys, "bench", "--strands", "0", "--length", "4",
                         "--count", "1", "--seed", "1")
    assert (code, out) == (2, "")
    code, out, err = run(capsys, "bench", "--strands", "1", "--length", "4",
                         "--count", "1", "--seed", "1")
    assert (code, out) == (2, "")
    assert "1 strand" in err
    # the rows are built before the header is printed
    code, out, err = run(capsys, "bench", "--strands", str(MAX_TEXT_STRANDS + 1), "--length",
                         "0", "--count", "1", "--seed", "1")
    assert (code, out) == (2, "")


def test_bench_checks_its_flags_before_drawing(capsys):
    assert 400000 > MAX_TEXT_STRANDS
    for strands, length in (("400000", "0"), ("1", "4")):
        code, out, err = run(capsys, "bench", "--strands", strands, "--length", length,
                             "--count", "0", "--seed", "1")
        assert (code, out) == (2, "")
    # scripts/doubling_experiment.py calls bench_rows directly
    with pytest.raises(ResourceLimitError, match="strand count 400000 exceeds"):
        bench_rows(400000, 0, 0, 1)
