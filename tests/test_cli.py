import io
import json
import math
import time

import pytest

from monadica import core, expr, sets
from monadica.cli import main
from monadica.errors import DomainError


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def strict_json(text):
    """Parse one JSON document, refusing Infinity and NaN."""

    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=refuse)


class TestEval:
    def test_exponential_of_an_impulse(self, capsys):
        code, out = run(capsys, "eval", "exp(x)", "--at", '{"shadow":0,"d":{"e:1":1}}')
        assert code == 0
        assert json.loads(out) == {"shadow": 1.0, "d": {"e:1": 1.0}}

    def test_output_round_trips_bit_exactly(self, capsys):
        payload = '{"shadow":0.1,"d":{"h":0.3333333333333333}}'
        code, out = run(capsys, "eval", "x", "--at", payload)
        assert code == 0
        assert core.from_json(out) == core.from_json(payload)

    def test_domain_error_exit_code(self, capsys):
        code, out = run(capsys, "eval", "log(x)", "--at", '{"shadow":-1,"d":{}}')
        assert code == 1
        assert "error" in json.loads(out)

    def test_an_overflowing_result_is_named_as_a_result(self, capsys):
        # the coefficient 2e200 of h overflows; the input itself is finite
        code, out = run(capsys, "eval", "x*x", "--at", '{"shadow":1e200,"d":{"h":1}}')
        assert code == 1
        assert strict_json(out) == {"error": "the extension is not finite at shadow 1e+200"}


class TestDiff:
    def test_first_derivative(self, capsys):
        code, out = run(capsys, "diff", "x^2", "--at", '{"shadow":3,"d":{}}')
        assert code == 0
        assert json.loads(out) == 6.0

    def test_higher_order(self, capsys):
        code, out = run(capsys, "diff", "x^2", "--at", '{"shadow":3,"d":{}}', "--order", "2")
        assert json.loads(out) == 2.0

    def test_overflowing_literal_is_a_domain_error(self, capsys):
        code, out = run(capsys, "diff", "1e400*x", "--at", '{"shadow":1,"d":{}}')
        assert code == 1
        assert "1e400" in strict_json(out)["error"]

    def test_non_finite_result_is_an_error_not_infinity(self, capsys):
        code, out = run(
            capsys, "diff", "1e300*x^2", "--at", '{"shadow":1e10,"d":{}}', "--order", "0"
        )
        assert code == 1
        assert "not finite" in strict_json(out)["error"]

    def test_expression_starting_with_minus_after_double_dash(self, capsys):
        code, out = run(capsys, "eval", "--at", '{"shadow":3,"d":{}}', "--", "-x^2")
        assert code == 0
        assert strict_json(out) == {"shadow": -9.0, "d": {}}


class TestOverflow:
    @pytest.mark.parametrize("verb", ["eval", "diff"])
    @pytest.mark.parametrize(
        "expr, at",
        [
            ("exp(x)", '{"shadow":1000,"d":{}}'),
            ("x^400", '{"shadow":10,"d":{}}'),
            ("sin(exp(x)*exp(x))", '{"shadow":400,"d":{}}'),
        ],
    )
    def test_overflow_is_a_json_error(self, capsys, verb, expr, at):
        code, out = run(capsys, verb, expr, "--at", at)
        assert code == 1
        assert "overflows" in strict_json(out)["error"]

    @pytest.mark.parametrize(
        "center, at, expr",
        [
            ("-1e308", '{"shadow":0.5,"d":{}}', "0"),  # h**k overflows
            ("-1e308", '{"shadow":1e308,"d":{}}', "x"),  # h itself overflows
        ],
    )
    def test_taylor_overflow_is_a_json_error(self, capsys, center, at, expr):
        code, out = run(capsys, "taylor", f"--center={center}", "--order", "2", "--at", at, "--", expr)
        assert code == 1
        assert "overflows" in strict_json(out)["error"]

    def test_a_partial_sum_that_is_not_finite_is_a_json_error(self, capsys):
        code, out = run(
            capsys, "taylor", "x*1e306", "--center", "0.5", "--order", "1",
            "--at", '{"shadow":1000,"d":{}}',
        )
        assert code == 1 and len(out.splitlines()) == 1
        assert strict_json(out) == {
            "error": "partial sum inf of the expansion about 0.5 is not finite"
        }


class TestStrictNumbers:
    def test_string_shadow_is_a_domain_error(self, capsys):
        code, out = run(capsys, "diff", "exp(x)", "--at", '{"shadow":"abc","d":{}}')
        assert code == 1
        assert "numbers expected" in strict_json(out)["error"]

    def test_boolean_coefficient_is_a_domain_error(self, capsys):
        code, out = run(capsys, "eval", "x", "--at", '{"shadow":1,"d":{"h":true}}')
        assert code == 1
        assert "numbers expected" in strict_json(out)["error"]

    @pytest.mark.parametrize(
        "bad",
        [
            '{"points":[true, "1.5"]}',
            '{"points":["1.5"]}',
            '{"extras":[false]}',
            '{"intervals":[{"lo":true,"hi":2}]}',
            '{"intervals":[{"lo":0,"hi":"2"}]}',
        ],
    )
    def test_set_decoders_take_numbers_only(self, capsys, bad):
        code, out = run(capsys, "sets", "union", bad, "{}")
        assert code == 1
        assert "error" in strict_json(out)

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "x", "--at", '{"shadow":1%s,"d":{}}' % ("0" * 400)],
            ["eval", "x", "--at", '{"shadow":1,"d":{"h":-1%s}}' % ("0" * 400)],
            ["diff", "x^2", "--at", '{"shadow":1%s,"d":{}}' % ("0" * 400)],
            ["diff", "x^2", "--at", '{"shadow":1%s,"d":{}}' % ("0" * 5000)],
            ["sets", "union", '{"points":[1%s]}' % ("0" * 400), "{}"],
            ["sets", "union", '{"extras":[-1%s]}' % ("0" * 400), "{}"],
            ["sets", "union", '{"intervals":[{"lo":0,"hi":1%s}]}' % ("0" * 400), "{}"],
            ["sets", "sup", '{"points":[1%s]}' % ("0" * 5000)],
        ],
    )
    def test_integers_beyond_the_float_range_are_domain_errors(self, capsys, argv):
        code, out = run(capsys, *argv)
        assert code == 1
        error = strict_json(out)["error"]
        assert "beyond the float range" in error or "invalid JSON" in error

    def test_slope_beyond_the_float_range_is_an_error(self, capsys):
        # the shadow squared underflows; the slope -1/s^2 overflows
        code, out = run(capsys, "eval", "1/x", "--at", '{"shadow":1e-200,"d":{"h":1}}')
        assert code == 1
        assert "finite" in strict_json(out)["error"]

    def test_infinite_endpoints_stay_valid(self, capsys):
        ray = '{"intervals":[{"lo":"-inf","hi":3,"lo_closed":false,"hi_closed":true}]}'
        code, out = run(capsys, "sets", "sup", ray)
        assert code == 0
        assert strict_json(out) == 3.0


class TestTaylor:
    def test_exponential(self, capsys):
        code, out = run(
            capsys,
            "taylor",
            "exp(x)",
            "--center",
            "0",
            "--order",
            "3",
            "--at",
            '{"shadow":0.5,"d":{}}',
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["partial_sum"] == pytest.approx(1.6458333333333333)
        assert 0 < doc["theta"] < 1

    def test_negative_center_in_equals_form(self, capsys):
        code, out = run(
            capsys, "taylor", "exp(x)", "--center=-7e-05", "--order", "2",
            "--at", '{"shadow":0.5,"d":{}}',
        )
        assert code == 0
        assert 0 < strict_json(out)["theta"] < 1

    @pytest.mark.parametrize("order, code", [("169", 0), ("170", 1), ("400", 1)])
    def test_the_order_is_at_most_169(self, capsys, order, code):
        got, out = run(
            capsys, "taylor", "exp(x)", "--center", "0", "--order", order,
            "--at", '{"shadow":0.5,"d":{}}',
        )
        doc = strict_json(out)
        assert got == code and len(out.splitlines()) == 1
        if code:
            assert doc == {"error": f"expansion order must be an integer from 0 to 169, not {order}"}
        else:
            assert doc["partial_sum"] == pytest.approx(1.6487212707001282)


class TestHighOrders:
    # 17 nodes whose derivatives build equal subtrees again and again; the
    # copies grow about 2.7-fold per order unless equal nodes are one object
    F = "exp(sin(x))*x^3 + log(2+cos(x))/(1+x^2)"

    @pytest.mark.parametrize(
        "argv",
        [
            ["diff", "--order", "14"],
            ["taylor", "--center", "0.3", "--order", "10"],
        ],
        ids=["diff", "taylor"],
    )
    def test_high_orders_finish_at_once(self, capsys, argv):
        start = time.perf_counter()
        code, out = run(capsys, *argv, "--at", '{"shadow":0.5,"d":{}}', "--", self.F)
        assert time.perf_counter() - start < 2.0
        assert code == 0 and len(out.splitlines()) == 1
        strict_json(out)

    @pytest.mark.parametrize(
        "argv",
        [
            ["diff", "--order", "22"],
            ["diff", "--order", "40"],
            ["taylor", "--center", "0.3", "--order", "21"],
            ["taylor", "--center", "0.3", "--order", "30"],
        ],
        ids=["diff-22", "diff-40", "taylor-21", "taylor-30"],
    )
    def test_orders_past_the_recursion_limit_answer(self, capsys, argv):
        # each order's tree is more than 490 levels deep, which the walks
        # took by recursion; they run a plan now
        code, out = run(capsys, *argv, "--at", '{"shadow":0.5,"d":{}}', "--", self.F)
        assert code == 0 and len(out.splitlines()) == 1
        doc = strict_json(out)
        if argv[0] == "diff":
            assert doc == expr.differentiate(expr.parse(self.F), int(argv[2])).eval_real(0.5)
        else:
            assert math.isfinite(doc["partial_sum"]) and math.isfinite(doc["remainder_bound"])

    @pytest.mark.parametrize(
        "text, first, period",
        [("x", 2, 1), ("sin(x)", 0, 4), ("exp(x)", 0, 1), ("x^3", 4, 1)],
        ids=["x", "sin", "exp", "cube"],
    )
    def test_a_derivative_cycle_answers_at_once(self, capsys, text, first, period):
        start = time.perf_counter()
        code, out = run(capsys, "diff", "--order", "1000000000", "--at", '{"shadow":0.5,"d":{}}', text)
        assert time.perf_counter() - start < 1.0
        reduced = first + (10**9 - first) % period
        assert code == 0 and json.loads(out) == expr.differentiate(expr.parse(text), reduced).eval_real(0.5)


class TestSeq:
    def test_prefix(self, capsys):
        code, out = run(capsys, "seq", "print", '{"shadow":2,"d":{"e:1":1}}', "--terms", "3")
        assert code == 0
        assert json.loads(out) == [3.0, 2.0, 2.0]

    def test_unknown_generator_is_a_domain_error(self, capsys):
        code, out = run(capsys, "seq", "print", '{"shadow":0,"d":{"bogus":1}}')
        assert code == 1
        assert "bogus" in json.loads(out)["error"]

    def test_negative_term_count_is_rejected(self, capsys):
        code, out = run(capsys, "seq", "print", '{"shadow":2,"d":{}}', "--terms", "-3")
        assert code == 1
        want = "number of terms must be an integer from 0 to 100000, not -3"
        assert strict_json(out)["error"] == want

    def test_a_term_count_beyond_the_limit_is_refused_at_once(self, capsys):
        start = time.perf_counter()
        code, out = run(
            capsys, "seq", "print", '{"shadow":0.5,"d":{"e:1":1}}', "--terms", "100000000"
        )
        assert time.perf_counter() - start < 1.0
        assert code == 1
        want = "number of terms must be an integer from 0 to 100000, not 100000000"
        assert strict_json(out) == {"error": want}


class TestSets:
    CLOSED_01 = '{"intervals":[{"lo":0,"hi":1,"lo_closed":true,"hi_closed":true}],"points":[],"extras":[]}'

    def test_interior(self, capsys):
        code, out = run(capsys, "sets", "interior", self.CLOSED_01)
        assert code == 0
        doc = json.loads(out)
        assert doc["intervals"] == [
            {"lo": 0.0, "hi": 1.0, "lo_closed": False, "hi_closed": False}
        ]

    def test_length_and_sup(self, capsys):
        assert json.loads(run(capsys, "sets", "length", self.CLOSED_01)[1]) == 1.0
        assert json.loads(run(capsys, "sets", "sup", self.CLOSED_01)[1]) == 1.0

    def test_a_length_beyond_the_float_range_is_an_error(self, capsys):
        wide = '{"intervals":[{"lo":-1e308,"hi":1e308}],"points":[],"extras":[]}'
        code, out = run(capsys, "sets", "length", wide)
        assert code == 1
        assert strict_json(out)["error"] == (
            "the length of Interval(lo=-1e+308, hi=1e+308, lo_closed=True, hi_closed=True) "
            "exceeds the float range"
        )

    def test_member(self, capsys):
        code, out = run(
            capsys, "sets", "member", '{"shadow":0.5,"d":{"e:1":1}}', self.CLOSED_01
        )
        assert json.loads(out) is True

    def test_union(self, capsys):
        other = '{"intervals":[{"lo":1,"hi":2,"lo_closed":true,"hi_closed":true}],"points":[],"extras":[]}'
        code, out = run(capsys, "sets", "union", self.CLOSED_01, other)
        doc = json.loads(out)
        assert doc["intervals"] == [
            {"lo": 0.0, "hi": 2.0, "lo_closed": True, "hi_closed": True}
        ]

    def test_arity_errors(self, capsys):
        code, out = run(capsys, "sets", "union", self.CLOSED_01)
        assert code == 1
        assert "error" in json.loads(out)

    @pytest.mark.parametrize(
        "bad",
        [
            '{"intervals":[{"lo":0}]}',
            '{"intervals":[3]}',
            '{"intervals":{"lo":0,"hi":1}}',
            '{"points":["abc"]}',
            '{"extras":[null]}',
        ],
    )
    def test_malformed_set_is_a_domain_error(self, capsys, bad):
        code, out = run(capsys, "sets", "union", bad, "{}")
        assert code == 1
        assert "malformed" in strict_json(out)["error"]

    @pytest.mark.parametrize("bad", ['{"extras":[1e400]}', '{"extras":[NaN]}', '{"extras":[1e400,null]}'])
    def test_a_non_finite_extra_is_refused(self, capsys, bad):
        # json reads 1e400 as inf; the wire reader checks each extra once, in
        # document order, so the first fault is the error
        code, out = run(capsys, "sets", "union", bad, "{}")
        assert code == 1
        assert strict_json(out) == {"error": "extra points must be finite reals"}

    @pytest.mark.parametrize("closed", ['"false"', "0", "1", "null"])
    def test_closedness_must_be_a_json_boolean(self, capsys, closed):
        bad = '{"intervals":[{"lo":0,"hi":1,"lo_closed":%s}]}' % closed
        code, out = run(capsys, "sets", "union", bad, "{}")
        assert code == 1
        assert "closedness" in strict_json(out)["error"]

    def test_monad_of_invalid_json_is_a_domain_error(self, capsys):
        code, out = run(capsys, "sets", "monad", "{")
        assert code == 1
        assert "invalid JSON" in strict_json(out)["error"]

    def test_monad_takes_a_real_set(self, capsys):
        code, out = run(
            capsys, "sets", "monad", '{"intervals":[],"points":[2.5]}'
        )
        assert code == 0
        assert json.loads(out) == {"intervals": [], "points": [2.5], "extras": []}

    def test_monad_keeps_the_extras(self, capsys):
        # the shadow of a bare real is that real, so its monad is kept
        code, out = run(capsys, "sets", "monad", '{"intervals":[],"points":[],"extras":[5]}')
        assert code == 0
        assert strict_json(out) == {"intervals": [], "points": [5.0], "extras": []}

    def test_pretty_output_is_indented(self, capsys):
        code, out = run(capsys, "sets", "shadow", self.CLOSED_01, "--pretty")
        assert code == 0 and out.startswith("{\n")


# Set documents and the exact output of one command per `sets` op.
_A = '{"intervals":[{"lo":0,"hi":1,"lo_closed":true,"hi_closed":false},{"lo":2,"hi":"+inf","lo_closed":false,"hi_closed":false}],"points":[1.5,-0.0],"extras":[]}'
_B = '{"intervals":[{"lo":0.5,"hi":3}],"points":[-1],"extras":[-2]}'
_C = '{"intervals":[{"lo":0,"hi":1,"lo_closed":false,"hi_closed":false}],"extras":[3]}'
_R = '{"intervals":[{"lo":0,"hi":1,"lo_closed":false,"hi_closed":false},{"lo":1,"hi":2,"lo_closed":false}],"points":[1]}'
_SET_OP_OUTPUTS = {
    "union": ((_A, _B), '{"intervals": [{"lo": 0.0, "hi": "+inf", "lo_closed": true, "hi_closed": false}], "points": [-1.0], "extras": [-2.0]}'),
    "intersect": ((_A, _B), '{"intervals": [{"lo": 0.5, "hi": 1.0, "lo_closed": true, "hi_closed": false}, {"lo": 2.0, "hi": 3.0, "lo_closed": false, "hi_closed": true}], "points": [1.5], "extras": []}'),
    "difference": ((_A, _B), '{"intervals": [{"lo": 0.0, "hi": 0.5, "lo_closed": true, "hi_closed": false}, {"lo": 3.0, "hi": "+inf", "lo_closed": false, "hi_closed": false}], "points": [], "extras": []}'),
    "monad": ((_R,), '{"intervals": [{"lo": 0.0, "hi": 2.0, "lo_closed": false, "hi_closed": true}], "points": [], "extras": []}'),
    "shadow": ((_B,), '{"intervals": [{"lo": 0.5, "hi": 3.0, "lo_closed": true, "hi_closed": true}], "points": [-2.0, -1.0]}'),
    "interior": ((_A,), '{"intervals": [{"lo": 0.0, "hi": 1.0, "lo_closed": false, "hi_closed": false}, {"lo": 2.0, "hi": "+inf", "lo_closed": false, "hi_closed": false}], "points": [], "extras": []}'),
    "exterior": ((_A,), '{"intervals": [{"lo": "-inf", "hi": 0.0, "lo_closed": false, "hi_closed": false}, {"lo": 1.0, "hi": 1.5, "lo_closed": false, "hi_closed": false}, {"lo": 1.5, "hi": 2.0, "lo_closed": false, "hi_closed": false}], "points": [], "extras": []}'),
    "boundary": ((_A,), '{"intervals": [], "points": [0.0, 1.0, 1.5, 2.0], "extras": []}'),
    "closure": ((_A,), '{"intervals": [{"lo": 0.0, "hi": 1.0, "lo_closed": true, "hi_closed": true}, {"lo": 2.0, "hi": "+inf", "lo_closed": true, "hi_closed": false}], "points": [1.5], "extras": []}'),
    "is_open": ((_A,), "false"),
    "is_closed": ((_A,), "false"),
    "is_compact": ((_A,), "false"),
    "is_connected": ((_R,), "true"),
    "length": (('{"intervals":[{"lo":1,"hi":4,"lo_closed":false}]}',), "3.0"),
    "sup": ((_C,), "3.0"),
    "inf": ((_C,), "0.0"),
    "max": ((_C,), "3.0"),
    "min": ((_C,), "null"),
    "member": (('{"shadow":1.5,"d":{"e:1":1}}', _A), "true"),
}


def test_every_set_op_has_a_recorded_output():
    assert set(_SET_OP_OUTPUTS) == set(sets.JSON_OPS)


@pytest.mark.parametrize("op", sorted(_SET_OP_OUTPUTS))
def test_set_op_output(capsys, op):
    args, expected = _SET_OP_OUTPUTS[op]
    assert run(capsys, "sets", op, *args) == (0, expected + "\n")


class TestVerify:
    def test_single_suite_passes(self, capsys):
        code, out = run(capsys, "verify", "--suite", "identities")
        assert code == 0
        assert "PASS identities." in out
        summary = json.loads(out.strip().splitlines()[-1])
        assert summary["failed"] == 0

    def test_seed_is_reported(self, capsys):
        code, out = run(capsys, "verify", "--suite", "ode", "--seed", "3")
        summary = json.loads(out.strip().splitlines()[-1])
        assert summary["seed"] == 3

    def test_environment_seed_is_the_default(self, capsys, monkeypatch):
        monkeypatch.setenv("MONADICA_SEED", "11")
        code, out = run(capsys, "verify", "--suite", "ode")
        summary = json.loads(out.strip().splitlines()[-1])
        assert summary["seed"] == 11

    @pytest.mark.parametrize("text", ["abc", "1.5"])
    def test_environment_seed_must_be_an_integer(self, capsys, monkeypatch, text):
        monkeypatch.setenv("MONADICA_SEED", text)
        code, out = run(capsys, "verify", "--suite", "ode")
        assert code == 1
        assert strict_json(out) == {"error": f"MONADICA_SEED must be an integer, not {text!r}"}

    def test_empty_environment_seed_is_zero(self, capsys, monkeypatch):
        monkeypatch.setenv("MONADICA_SEED", "")
        code, out = run(capsys, "verify", "--suite", "ode")
        assert code == 0
        assert json.loads(out.strip().splitlines()[-1])["seed"] == 0

    def test_any_failure_exits_two(self, capsys, monkeypatch):
        from monadica import verify
        from monadica.verify import CheckResult

        broken = dict(verify.SUITES)
        broken["doomed"] = lambda seed: [CheckResult("doomed", "never", False, "x")]
        monkeypatch.setattr(verify, "SUITES", broken)
        code, out = run(capsys, "verify", "--suite", "doomed")
        assert code == 2
        assert "FAIL doomed.never" in out

    def test_a_law_that_raises_fails_its_suite_and_the_rest_run(self, capsys, monkeypatch):
        from monadica import verify

        def raising(*args):
            raise DomainError("no mean value point")

        monkeypatch.setattr(verify, "mean_value_point", raising)
        code, out = run(capsys, "verify")
        lines = out.strip().splitlines()
        assert code == 2
        assert "FAIL mvt.raised — DomainError: no mean value point" in lines
        for suite in ("identities", "ode", "higher", "seq"):
            assert any(line.startswith(f"PASS {suite}.") for line in lines), suite
        summary = strict_json(lines[-1])
        assert summary["failed"] == 1 and "mvt" in summary["suites"]


class TestRepl:
    VALUE = 'eval "exp(x)" --at \'{"shadow":0,"d":{"e:1":1}}\''
    ANSWER = {"shadow": 1.0, "d": {"e:1": 1.0}}

    def repl(self, capsys, monkeypatch, *lines):
        """Feed lines to ``monadica repl``; its exit code and stdout documents."""
        monkeypatch.setattr("sys.stdin", io.StringIO("".join(f"{line}\n" for line in lines)))
        code, out = run(capsys, "repl")
        return code, [strict_json(line) for line in out.splitlines()]

    def test_blank_and_comment_lines_are_skipped(self, capsys, monkeypatch):
        assert self.repl(capsys, monkeypatch, "", "   ", "# a note", self.VALUE) == (
            0,
            [self.ANSWER],
        )

    def test_quit_stops_reading(self, capsys, monkeypatch):
        assert self.repl(capsys, monkeypatch, self.VALUE, "quit", self.VALUE) == (
            0,
            [self.ANSWER],
        )

    def test_repl_does_not_nest(self, capsys, monkeypatch):
        assert self.repl(capsys, monkeypatch, "repl", self.VALUE) == (
            0,
            [{"error": "repl cannot nest"}, self.ANSWER],
        )

    def test_usage_error_reads_on(self, capsys, monkeypatch):
        # argparse reports the missing --at on stderr; stdout stays JSON
        assert self.repl(capsys, monkeypatch, 'eval "exp(x)"', self.VALUE) == (0, [self.ANSWER])

    def test_domain_error_prints_json_and_reads_on(self, capsys, monkeypatch):
        code, docs = self.repl(
            capsys, monkeypatch, 'eval "log(x)" --at \'{"shadow":-1,"d":{}}\'', self.VALUE
        )
        assert code == 0
        assert list(docs[0]) == ["error"] and docs[1] == self.ANSWER

    def test_unbalanced_quote_prints_json_and_reads_on(self, capsys, monkeypatch):
        assert self.repl(capsys, monkeypatch, 'eval "exp(x) --at 1', self.VALUE) == (
            0,
            [{"error": "cannot split the line: No closing quotation"}, self.ANSWER],
        )


def test_usage_errors_exit_nonzero():
    with pytest.raises(SystemExit) as info:
        main(["eval"])  # missing --at
    assert info.value.code != 0


# Each verb runs once, in a fresh interpreter (``verb_run`` in conftest.py);
# test_namespace.py checks the exact set of library modules of the same runs.
def test_each_verb_loads_only_the_modules_it_uses(verb_run):
    code, loaded = verb_run
    assert code == 0, code
    # No verb loads the self-check suite or numpy.
    assert not loaded & {"monadica.verify", "numpy"}, sorted(loaded & {"monadica.verify", "numpy"})
