"""Standard string format validators (vspec/formats.py built-ins)."""

import pytest

from jschon_ray.vspec.formats import all_registered, enabled_formats

CASES = {
    "date": (["2024-02-29", "1999-12-31"],
             ["2023-02-29", "2024-13-01", "2024-1-01", "24-01-01"]),
    "time": (["23:59:59Z", "00:00:00+05:30", "12:30:45.5z"],
             ["24:00:00Z", "12:61:00Z", "12:00:00", "1:00:00Z"]),
    "date-time": (["2024-06-01T12:00:00Z", "2024-06-01t23:59:60+00:00"],
                  ["2024-06-01 12:00:00Z", "2024-02-30T12:00:00Z",
                   "2024-06-01T25:00:00Z"]),
    "duration": (["P1Y2M3DT4H5M6S", "PT0.5S", "P3W", "PT1H"],
                 ["P", "PT", "1Y", "P1S", "P1YT"]),
    "email": (["a@b.co", "user.name+tag@example.org"],
              ["a@b", "@x.com", "a b@c.com", "a@-bad.com"]),
    "uuid": (["123e4567-e89b-12d3-a456-426614174000"],
             ["123e4567e89b12d3a456426614174000", "123e4567-e89b-12d3"]),
    "hostname": (["example.com", "a-b.c-d.e", "localhost"],
                 ["-bad.com", "bad-.com", "a..b", "a" * 64 + ".com"]),
    "ipv4": (["1.2.3.4", "255.255.255.255"],
             ["256.1.1.1", "1.2.3", "01.2.3.4", "1.2.3.4.5"]),
    "ipv6": (["::1", "2001:db8::8a2e:370:7334"],
             ["1.2.3.4", "2001:::1", "g::1"]),
    "uri": (["https://example.com/a?b=c#d", "urn:uuid:x"],
            ["/relative/path", "no spaces in scheme://x"]),
}


@pytest.mark.parametrize("attr", sorted(CASES))
def test_format_cases(attr):
    fn, types = all_registered()[attr]
    assert types == ("string",)
    good, bad = CASES[attr]
    for v in good:
        fn(v)
    for v in bad:
        with pytest.raises(ValueError):
            fn(v)


def test_formats_opt_in_through_both_engines():
    """format asserts only when enabled — same contract as the reference
    (/root/reference/jschon/vocabulary/format.py:14-32), in both the row
    oracle and the vectorized engine."""
    import pyarrow as pa

    from jschon_ray.vspec.evaluator import compile_spec
    from jschon_ray.vspec.row_oracle import RowEvaluator

    spec = {"type": "object",
            "properties": {"when": {"type": "string",
                                    "format": "date-time"}}}
    rows = [{"when": "2024-06-01T12:00:00Z"}, {"when": "nope"}]
    fmts = enabled_formats("date-time")
    ev = RowEvaluator(formats=fmts)
    got = [ev.evaluate(dict(spec), r).valid for r in rows]
    assert got == [True, False]
    # annotation-only (not enabled): both rows valid
    ev0 = RowEvaluator()
    assert [ev0.evaluate(dict(spec), r).valid for r in rows] == [True, True]

    t = pa.table({"when": pa.array([r["when"] for r in rows])})
    cs = compile_spec(spec, t.schema, formats=fmts)
    out = cs.check_batch(t)
    assert out["valid"].to_pylist() == [True, False]


def test_idn_hostname_zwnj_between_joining_letters():
    """A ZWNJ between two dual-joining Arabic letters is valid (the
    upstream suite's 'zwnj preceded by Joining_Type D' case)."""
    from jschon_ray.vspec.formats import validate_idn_hostname

    validate_idn_hostname("\u0628\u064a\u200c\u0628\u064a")
