import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idempart import cli, formula, verify
from idempart.cli import main
from idempart.symmetric import PERMUTATION_ENUM_LIMIT
from idempart.verify import CheckResult


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def json_records(out):
    return [json.loads(line) for line in out.splitlines()]


def strip_elapsed(records):
    return [{k: v for k, v in r.items() if k != "elapsed_ms"} for r in records]


def test_pn_formula(capsys):
    code, out = run_cli(capsys, "pn", "3", "--method", "formula", "--json")
    assert code == 0
    (rec,) = json_records(out)
    assert rec["p"] == "3"
    assert rec["method"] == "formula"
    assert rec["n"] == "3"


def test_pn_pentagonal_zero(capsys):
    code, out = run_cli(capsys, "pn", "0", "--method", "pentagonal", "--json")
    assert code == 0
    assert json_records(out)[0]["p"] == "1"


def test_pn_burnside(capsys):
    code, out = run_cli(capsys, "pn", "5", "--method", "burnside", "--json")
    assert code == 0
    assert json_records(out)[0]["p"] == "7"


def test_pn_values_are_decimal_strings(capsys):
    # exact value beyond 2^64, must arrive as a string
    code, out = run_cli(capsys, "pn", "200", "--method", "pentagonal", "--json")
    assert code == 0
    rec = json_records(out)[0]
    assert isinstance(rec["p"], str)
    assert rec["p"] == "3972999029388"


def test_pn_methods_agree(capsys):
    for n in range(1, 7):
        values = set()
        for method in ("formula", "pentagonal", "burnside"):
            code, out = run_cli(capsys, "pn", str(n), "--method", method, "--json")
            assert code == 0
            values.add(json_records(out)[0]["p"])
        assert len(values) == 1


def test_pn_out_of_range_exits_2(capsys):
    assert main(["pn", "99", "--method", "burnside"]) == 2
    capsys.readouterr()
    assert main(["pn", "201", "--method", "formula"]) == 2
    capsys.readouterr()
    assert main(["pn", "201", "--method", "pentagonal"]) == 2
    capsys.readouterr()
    assert main(["types", "61"]) == 2
    capsys.readouterr()
    assert main(["idempotents", "0"]) == 2
    capsys.readouterr()
    assert main(["idempotents", "201"]) == 2
    capsys.readouterr()


def test_pn_formula_matches_pentagonal_beyond_types_cap(capsys):
    for n in ("61", "200"):
        values = set()
        for method in ("formula", "pentagonal"):
            code, out = run_cli(capsys, "pn", n, "--method", method, "--json")
            assert code == 0
            values.add(json_records(out)[0]["p"])
        assert len(values) == 1


def test_pn_remainder_exits_1(capsys, monkeypatch):
    exact = formula._type_sum_by_size
    monkeypatch.setattr(formula, "_type_sum_by_size", lambda n: exact(n) + 1)
    assert main(["pn", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "not divisible" in captured.err


def test_idempotents_counts(capsys):
    # every count without --list, below the listing cap too, is the
    # size-by-size sum; the closed form sum_j C(n,j) j^(n-j) checks it
    from math import comb

    for n, count in ((1, "1"), (3, "10"), (4, "41")):
        code, out = run_cli(capsys, "idempotents", str(n), "--json")
        assert code == 0
        assert json_records(out)[-1]["count"] == count
    for n in range(1, 9):
        code, out = run_cli(capsys, "idempotents", str(n), "--json")
        assert code == 0
        (rec,) = json_records(out)
        assert rec["method"] == "size-by-size"
        expected = sum(comb(n, j) * j ** (n - j) for j in range(1, n + 1))
        assert rec["count"] == str(expected)


def test_idempotents_count_beyond_listing_cap(capsys):
    # image-size oracle: choose a k-point image, retract the rest onto it
    from math import comb

    for n in (12, 200):
        code, out = run_cli(capsys, "idempotents", str(n), "--json")
        assert code == 0
        rec = json_records(out)[-1]
        assert rec["method"] == "size-by-size"
        expected = sum(comb(n, k) * k ** (n - k) for k in range(1, n + 1))
        assert rec["count"] == str(expected)


def test_idempotents_listing(capsys):
    code, out = run_cli(capsys, "idempotents", "2", "--list", "--json")
    assert code == 0
    records = json_records(out)
    values = [r["values"] for r in records if r["command"] == "idempotent"]
    assert values == [["1", "1"], ["1", "2"], ["2", "2"]]
    assert records[-1]["count"] == "3"


def test_idempotents_listing_cap(capsys):
    assert main(["idempotents", "8", "--list"]) == 2
    capsys.readouterr()


def test_orbits_n3(capsys):
    code, out = run_cli(capsys, "orbits", "3", "--json")
    assert code == 0
    records = json_records(out)
    rows = [r for r in records if r["command"] == "orbit"]
    table = {r["type"]: (r["orbit_size"], r["stabilizer_order"]) for r in rows}
    assert table == {
        "(3,0,0)": ("1", "6"),
        "(1,1,0)": ("6", "1"),
        "(0,0,1)": ("3", "2"),
    }
    assert all(r["product_check"] is True for r in rows)
    assert records[-1]["orbits"] == "3"


def test_orbits_n1_and_n2(capsys):
    code, out = run_cli(capsys, "orbits", "1", "--json")
    assert code == 0
    assert json_records(out)[-1]["orbits"] == "1"

    code, out = run_cli(capsys, "orbits", "2", "--json")
    assert code == 0
    rows = [r for r in json_records(out) if r["command"] == "orbit"]
    sizes = {r["type"]: r["orbit_size"] for r in rows}
    assert sizes == {"(2,0)": "1", "(0,1)": "2"}


def test_orbits_guard(capsys):
    assert main(["orbits", "9"]) == 2
    capsys.readouterr()


def test_types_n3(capsys):
    code, out = run_cli(capsys, "types", "3", "--json")
    assert code == 0
    records = json_records(out)
    rows = {r["type"]: r for r in records if r["command"] == "type"}
    assert rows["(3,0,0)"]["idempotents"] == "1"
    assert rows["(3,0,0)"]["stabilizer_order"] == "6"
    assert rows["(1,1,0)"]["idempotents"] == "6"
    assert rows["(1,1,0)"]["stabilizer_order"] == "1"
    assert rows["(0,0,1)"]["idempotents"] == "3"
    assert rows["(0,0,1)"]["stabilizer_order"] == "2"
    summary = records[-1]
    assert summary["sum"] == "18"
    assert summary["quotient"] == "3"


def test_types_n4_five_rows(capsys):
    code, out = run_cli(capsys, "types", "4", "--json")
    assert code == 0
    summary = json_records(out)[-1]
    assert summary["types"] == "5"
    assert summary["quotient"] == "5"


def test_every_check_record_carries_its_time(capsys, monkeypatch):
    def two_checks(exhaustive, formula):
        yield CheckResult("first", True)
        time.sleep(0.02)
        yield CheckResult("second", True)

    monkeypatch.setattr(verify, "run_verification", two_checks)
    code, out = run_cli(capsys, "verify", "--json")
    assert code == 0
    first, second, summary = json_records(out)
    assert [first["name"], second["name"]] == ["first", "second"]
    assert all(isinstance(r["elapsed_ms"], float) for r in (first, second))
    assert 0 <= first["elapsed_ms"] < second["elapsed_ms"]
    assert second["elapsed_ms"] >= 20
    assert first["elapsed_ms"] + second["elapsed_ms"] <= summary["elapsed_ms"]


VERIFY_ARGV = ["verify", "--exhaustive", "3", "--formula", "8", "--json"]


@pytest.fixture(scope="module")
def verify_run():
    """Exit code and records of one in-process run of VERIFY_ARGV.

    Every verify run checks all class-group shapes, whatever its depths,
    so the tests below share this run instead of making their own.
    """
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(VERIFY_ARGV)
    return code, json_records(out.getvalue())


def test_verify_moderate_passes(verify_run):
    code, records = verify_run
    assert code == 0
    assert records[-1]["failures"] == "0"
    checks = [r for r in records if r["command"] == "check"]
    assert checks and all(r["ok"] is True for r in checks)


def test_verify_guard_exits_2(capsys):
    assert main(["verify", "--exhaustive", "9", "--formula", "5"]) == 2
    capsys.readouterr()
    assert main(["verify", "--exhaustive", "2", "--formula", "0"]) == 2
    capsys.readouterr()
    assert main(["verify", "--exhaustive", "1", "--formula", "61"]) == 2
    capsys.readouterr()


def test_brute_force_rows_stop_at_the_enumeration_limit(capsys, monkeypatch):
    for argv in (
        ["orbits", "9"],
        ["pn", "9", "--method", "burnside"],
        ["verify", "--exhaustive", "9"],
    ):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "<= 8" in captured.err
    # no environment variable moves the limit any more
    monkeypatch.setenv("IDEMPART_BRUTE_CAP", "banana")
    code, out = run_cli(capsys, "orbits", "3", "--json")
    assert code == 0
    assert json_records(out)[-1]["orbits"] == "3"


def test_orbits_7_through_main(capsys):
    code, out = run_cli(capsys, "orbits", "7", "--json")
    assert code == 0
    *rows, summary = json_records(out)
    assert len(rows) == 15
    assert all(r["command"] == "orbit" and r["product_check"] is True for r in rows)
    assert summary["command"] == "orbits"
    assert summary["orbits"] == "15"
    assert summary["all_products_equal_factorial"] is True


def _must_not_run(args):
    raise AssertionError(f"{args.command} ran with out-of-range arguments")


def _outside(low, high):
    return st.one_of(
        st.integers(min_value=-(10**12), max_value=low - 1),
        st.integers(min_value=high + 1, max_value=10**12),
    )


@settings(deadline=None)
@given(data=st.data())
def test_every_limits_row_rejects_values_outside_it(data):
    row = data.draw(st.sampled_from(sorted(cli._LIMITS)))
    option = data.draw(st.sampled_from(sorted(cli._LIMITS[row])))
    low, high = cli._LIMITS[row][option]
    value = data.draw(_outside(low, high))
    argv = row.split() + ([str(value)] if option == "n" else [option, str(value)])
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        for name in ("pn", "idempotents", "orbits", "types", "verify"):
            mp.setattr(cli, f"cmd_{name}", _must_not_run)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code == 2
    assert out.getvalue() == ""
    (line,) = err.getvalue().splitlines()
    assert line.startswith("error: ")


def test_limits_rows_stay_inside_the_library_guards():
    # these rows enumerate all n! permutations of [n] and must stay
    # inside enumerate_permutations' guard
    brute_rows = {
        "pn --method burnside": "n",
        "orbits": "n",
        "verify": "--exhaustive",
    }
    for row, option in brute_rows.items():
        assert cli._LIMITS[row][option][1] <= PERMUTATION_ENUM_LIMIT, row


def test_internal_value_error_is_not_reported_as_bad_arguments(monkeypatch, capsys):
    def broken(n):
        raise ValueError("internal fault")

    monkeypatch.setattr(cli, "p_pentagonal", broken)
    assert main(["pn", "5", "--method", "pentagonal"]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    # one line, and no traceback
    assert err == "error: internal error: ValueError('internal fault')\n"


class _FullDisk(io.StringIO):
    """A stdout on a full disk: every write raises, as /dev/full does."""

    def write(self, text):
        raise OSError(28, "No space left on device")


def test_an_output_error_exits_3_with_one_error_line(monkeypatch, capsys):
    full = _FullDisk()
    monkeypatch.setattr(sys, "stdout", full)
    assert main(["types", "20"]) == 3
    # the rest of the output goes to the null device, so the flush at
    # exit cannot fail again
    assert sys.stdout is not full
    sys.stdout.close()
    err = capsys.readouterr().err
    assert err == "error: cannot write the output: [Errno 28] No space left on device\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_an_output_error_of_a_real_process_exits_3_without_a_traceback():
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "idempart", "types", "20"],
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
        )
    assert proc.returncode == 3
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


def _dense_key_by_list(n, g):
    counts = [0] * n
    for k, gk in g:
        counts[k - 1] = gk
    return "(" + ",".join(map(str, counts)) + ")"


def test_type_key_matches_a_filled_dense_list():
    for n in range(1, 21):
        for g, _, _ in formula.type_terms(n):
            assert cli._type_key(n, g) == _dense_key_by_list(n, g), (n, g)


def plain_lines(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    assert code == 0
    return re.sub(r"elapsed_ms=\S+", "elapsed_ms=*", out).splitlines()


def test_plain_output_format(capsys):
    assert plain_lines(capsys, "pn", "10") == [
        "pn  n=10  p=42  method=formula  elapsed_ms=*",
    ]
    assert plain_lines(capsys, "idempotents", "2", "--list") == [
        "idempotent  n=2  values=['1', '1']  type=(0,1)",
        "idempotent  n=2  values=['1', '2']  type=(2,0)",
        "idempotent  n=2  values=['2', '2']  type=(0,1)",
        "idempotents  n=2  count=3  method=constructive  elapsed_ms=*",
    ]
    assert plain_lines(capsys, "types", "3") == [
        "type  n=3  type=(0,0,1)  idempotents=3  stabilizer_order=2  summand=6",
        "type  n=3  type=(1,1,0)  idempotents=6  stabilizer_order=1  summand=6",
        "type  n=3  type=(3,0,0)  idempotents=1  stabilizer_order=6  summand=6",
        "types  n=3  types=3  sum=18  quotient=3  method=formula  elapsed_ms=*",
    ]


def test_verify_failure_is_reported_and_exits_1(capsys, monkeypatch):
    failing = CheckResult("formula-pn n=1", False, "term sum 0")
    monkeypatch.setattr(verify, "run_verification", lambda e, f: iter([failing]))
    code, out = run_cli(capsys, "verify", "--exhaustive", "1", "--formula", "1")
    assert code == 1
    assert re.sub(r"elapsed_ms=\S+", "elapsed_ms=*", out).splitlines() == [
        "check  name=formula-pn n=1  ok=False  detail=term sum 0  elapsed_ms=*",
        "verify  exhaustive=1  formula=1  checks=1  failures=1"
        "  first_failure=formula-pn n=1  elapsed_ms=*",
    ]


def test_machine_output_is_deterministic(capsys):
    # verify's determinism is checked across processes, in
    # test_verify_still_loads_and_passes_the_group_layer
    outs = []
    for _ in range(2):
        code, out = run_cli(capsys, "types", "5", "--json")
        assert code == 0
        # drop the elapsed field, then require byte-identical lines
        lines = []
        for line in out.splitlines():
            rec = json.loads(line)
            rec.pop("elapsed_ms", None)
            lines.append(json.dumps(rec, sort_keys=True, separators=(",", ":")))
        outs.append("\n".join(lines))
    assert outs[0] == outs[1]


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "idempart", "pn", "6", "--json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["p"] == "11"


GROUP_LAYER = {
    "idempart.stabilizer",
    "idempart.symmetric",
    "idempart.transformations",
    "idempart.representations",
    "idempart.verify",
}

# runs main on each argv of sys.argv[1] in one fresh interpreter; the last
# stdout line lists the exit codes and the idempart modules then loaded
_LOADED_AFTER_MAIN = """
import json, sys
from idempart.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
loaded = sorted(m for m in sys.modules if m.startswith("idempart."))
print(json.dumps({"codes": codes, "loaded": loaded}))
"""


def _loaded_after_main(*argvs):
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED_AFTER_MAIN, json.dumps(argvs)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    *out, last = proc.stdout.splitlines()
    result = json.loads(last)
    return result["codes"], set(result["loaded"]), out


def test_pn_and_the_size_by_size_count_load_no_group_layer():
    codes, loaded, out = _loaded_after_main(
        ["pn", "48", "--json"],
        ["pn", "48", "--method", "pentagonal"],
        ["idempotents", "12"],
        ["idempotents", "5"],
    )
    assert codes == [0, 0, 0, 0]
    assert json.loads(out[0])["p"] == "147273"
    assert "count=157329097  method=size-by-size" in out[2]
    assert "count=196  method=size-by-size" in out[3]
    assert not loaded & GROUP_LAYER, sorted(loaded)


def test_verify_still_loads_and_passes_the_group_layer(verify_run):
    codes, loaded, out = _loaded_after_main(VERIFY_ARGV)
    assert codes == [0]
    assert GROUP_LAYER <= loaded, sorted(loaded)
    # a fresh interpreter draws its own hash seed, and its records must
    # still equal the in-process run's, elapsed times aside
    assert strip_elapsed(json_records("\n".join(out))) == strip_elapsed(verify_run[1])


def test_closed_pipe_ends_quietly():
    proc = subprocess.Popen(
        [sys.executable, "-m", "idempart", "types", "30"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    # the full listing far exceeds a pipe buffer, so the writer is still
    # running when the reader goes away
    proc.stdout.readline()
    proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    code = proc.wait(timeout=60)
    assert "Traceback" not in err
    assert code not in (1, 2)


def test_unknown_command_exits_2():
    proc = subprocess.run(
        [sys.executable, "-m", "idempart", "frobnicate"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2


def _reference_main(argv):
    """main on the full five-command parser: parse, check limits, run."""
    args = cli.build_parser().parse_args(argv)
    problem = cli._limit_error(args)
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    return args.func(args)


def _outcome(capsys, call, *args):
    """Exit code, stdout and stderr of call(*args), elapsed_ms masked."""
    try:
        code = call(*args)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    masked = [
        re.sub(r'elapsed_ms("?[=:])[-0-9.e]+', r"elapsed_ms\1*", text)
        for text in (captured.out, captured.err)
    ]
    return code, *masked


def _two_checks(exhaustive, formula):
    yield CheckResult(f"first e={exhaustive}", True)
    yield CheckResult(f"second f={formula}", True, "detail")


@pytest.mark.parametrize(
    "argv",
    [
        ["pn", "5", "--json"],
        ["pn", "7", "--meth=pentagonal"],
        ["pn", "5", "--method", "burnside", "--js"],
        ["pn", "201"],
        ["idempotents", "3", "--list", "--js"],
        ["idempotents", "12"],
        ["orbits", "3", "--json"],
        ["types", "4"],
        ["verify", "--exhaustive", "2", "--formula", "4", "--json"],
        ["verify", "--exh", "9"],
        [],
        ["-h"],
        ["pn", "-h"],
        ["pn"],
        ["pn", "x"],
        ["pn", "5", "extra"],
        ["pn", "5", "5"],
        ["pn", "5", "--method", "nope"],
        ["bogus", "3"],
        ["--json", "pn", "5"],
        ["pn", "\u0661\u0662"],
        ["pn", "1_0"],
        ["pn", "+5"],
        ["pn", "-5"],
        ["pn", "--json", "5"],
        ["pn", "5", "--method=formula"],
        ["pn", "5", "--method", "formula", "--method", "pentagonal"],
        ["pn", "5", "--json", "--json"],
        ["pn", "--", "5"],
        ["verify", "--formula", "12", "--exhaustive", "3"],
        ["idempotents", "3", "--list", "--list"],
        ["pn", "9" * 5000],
    ],
    ids=lambda argv: " ".join(argv)[:60],
)
def test_main_matches_the_full_parser(capsys, monkeypatch, argv):
    monkeypatch.setattr(verify, "run_verification", _two_checks)
    expected = _outcome(capsys, _reference_main, argv)
    assert _outcome(capsys, main, argv) == expected


def test_main_reads_sys_argv_when_given_none(capsys, monkeypatch):
    for argv in (["pn", "5", "--json"], ["pn", "5", "extra"], ["-h"]):
        monkeypatch.setattr(sys, "argv", ["idempart", *argv])
        assert _outcome(capsys, main) == _outcome(capsys, _reference_main, argv)


_DIGITS = st.sampled_from(["0", "1", "3", "12", "48"])


def _argv_words():
    """Commands, every option string in full, abbreviated and with =value,
    choice values, and numbers that int() reads but are not ASCII digits."""
    words = {"--", "-h", "", "0", "12", "+5", "-5", "1_0", "\u0661\u0662", "\uff15"}
    for name, (_, _, options) in cli._COMMANDS.items():
        words.add(name)
        for option, kind, _, _ in options:
            words |= {option, option[:4], f"{option}=3", f"{option}=formula"}
            if isinstance(kind, tuple):
                words |= set(kind)
    return sorted(words)


_WORDS = st.sampled_from(_argv_words())


@st.composite
def _argvs(draw):
    """A plainly spelled argv after up to three edits, each of which puts
    a word of _WORDS in, takes a word out, or replaces one."""
    name = draw(st.sampled_from(sorted(cli._COMMANDS)))
    _, takes_n, options = cli._COMMANDS[name]
    pieces = [[draw(_DIGITS)]] if takes_n else []
    for option, kind, _, _ in draw(st.lists(st.sampled_from(options), max_size=3)):
        if kind is bool:
            pieces.append([option])
        else:
            value = _DIGITS if kind is int else st.sampled_from(kind)
            if not draw(st.integers(0, 3)):  # one value in four may be wrong
                value = _WORDS
            pieces.append([option, draw(value)])
    argv = [name, *(word for piece in draw(st.permutations(pieces)) for word in piece)]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(argv)))
        argv[i : i + draw(st.integers(0, 1))] = draw(st.lists(_WORDS, max_size=1))
    return argv


@settings(max_examples=300, deadline=None)
@given(_argvs())
def test_plain_reading_is_the_full_parsers_or_none(argv):
    plain = cli._plain(argv)
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            expected = cli.build_parser().parse_args(argv)
    except SystemExit:
        assert plain is None
    else:
        assert plain is None or vars(plain) == vars(expected)


# runs main(["pn", "48", "--json"]) in a fresh interpreter and prints the
# modules it added to those loaded before the call
_NEW_MODULES_OF_MAIN = """
import json, sys
from idempart.cli import main
before = set(sys.modules)
code = main(["pn", "48", "--json"])
print(json.dumps({"code": code, "new": sorted(set(sys.modules) - before)}))
"""


def test_plain_argv_builds_no_parser(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    monkeypatch.setattr(verify, "run_verification", _two_checks)
    for argv in (
        ["pn", "5", "--json"],
        ["verify", "--exhaustive", "1", "--formula", "1", "--json"],
    ):
        assert main(argv) == 0
        assert built == []
    # an abbreviation is left to the full parser with all five commands
    assert main(["pn", "7", "--meth=pentagonal"]) == 0
    assert built == ["idempart", *(f"idempart {name}" for name in cli._COMMANDS)]
    capsys.readouterr()

    proc = subprocess.run(
        [sys.executable, "-c", _NEW_MODULES_OF_MAIN],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["code"] == 0
    assert "locale" not in result["new"], result["new"]


def test_every_command_has_limits_and_every_limits_row_a_command():
    assert {row.split()[0] for row in cli._LIMITS} == set(cli._COMMANDS)
