"""Format validator registry (opt-in assertion).

Mirrors the reference's decorator registry + per-catalog enablement
(/root/reference/jschon/vocabulary/format.py:44-66,
catalog/__init__.py:267-279): registering a validator does NOT assert;
callers opt in by passing ``enabled_formats(...)`` to ``compile_spec`` /
``RowEvaluator`` / the validation stages.
"""

from __future__ import annotations

import re
from ..stages.decode import audio_decodable_format

_format_validators: dict[str, tuple] = {}


def format_validator(format_attr: str, *, instance_types=("string",)):
    """Register fn(value) -> None (raises ValueError when invalid)."""

    def decorator(f):
        _format_validators[format_attr] = (f, tuple(instance_types))
        return f

    return decorator


def enabled_formats(*attrs: str) -> dict:
    """{attr: (fn, types)} for the given registered formats — the value the
    evaluators accept as their ``formats`` argument."""
    out = {}
    for a in attrs:
        if a not in _format_validators:
            raise ValueError(f"no format validator registered for {a!r}")
        out[a] = _format_validators[a]
    return out


def all_registered() -> dict:
    return dict(_format_validators)


# -- built-ins --------------------------------------------------------------

_JSON_POINTER_RE = re.compile(r"^(/([^~/]|(~[01]))*)*$")


@format_validator("json-pointer")
def validate_json_pointer(value: str) -> None:
    """RFC 6901 syntax (/root/reference/jschon/formats.py:5-9)."""
    if _JSON_POINTER_RE.fullmatch(value) is None:
        raise ValueError(f"'{value}' is not a valid JSON pointer")


@format_validator("regex")
def validate_regex(value: str) -> None:
    try:
        re.compile(value)
    except re.error as e:
        raise ValueError(str(e)) from None


@format_validator("audio-decodable", instance_types=("object",))
def validate_audio_decodable(row) -> None:
    """Clip-level decode check (binds stages/decode.py into the spec
    dialect; per-row fallback path — the vectorized analogue is the
    ClipDecoder actor stage)."""

    audio_decodable_format()(row)


# -- standard string formats (2020-12 format-annotation vocabulary) ---------
# The reference ships only json-pointer/regex/uuid-style examples and
# leaves the rest to users; a data-validation engine needs the common
# ones built in. All are strict-syntax checks implemented on the stdlib
# (no network, no locale), registered opt-in like everything else.

# re.ASCII throughout: RFC 3339 grammars are ASCII-digit only, but
# Python's \d otherwise matches any Unicode decimal (e.g. Bengali '২') —
# the official suite's "invalid non-ASCII digit" cases catch this.
_DATE_RE = re.compile(r"^\d{4}-\d{2}-\d{2}$", re.ASCII)
_TIME_RE = re.compile(
    r"^\d{2}:\d{2}:\d{2}(\.\d+)?([Zz]|[+-]\d{2}:\d{2})$", re.ASCII)
_DATETIME_RE = re.compile(
    r"^\d{4}-\d{2}-\d{2}[Tt]\d{2}:\d{2}:\d{2}(\.\d+)?"
    r"([Zz]|[+-]\d{2}:\d{2})$", re.ASCII)
# RFC 3339 appendix-A grammar: weeks are STANDALONE (P2W cannot combine
# with Y/M/D or a time part); otherwise date designators in Y-M-D order
# with an optional T part that must carry at least one component.
# Fractional seconds kept (ISO 8601 extension the suite exercises).
_DURATION_RE = re.compile(
    r"^P(?:\d+W|(?=\d|T\d)(\d+Y)?(\d+M)?(\d+D)?"
    r"(T(?=\d)(\d+H)?(\d+M)?(\d+(\.\d+)?S)?)?)$", re.ASCII)
_UUID_RE = re.compile(r"^[0-9a-fA-F]{8}-[0-9a-fA-F]{4}-[0-9a-fA-F]{4}"
                      r"-[0-9a-fA-F]{4}-[0-9a-fA-F]{12}$")
_HOSTNAME_RE = re.compile(
    r"^(?=.{1,253}$)[A-Za-z0-9](?:[A-Za-z0-9-]{0,61}[A-Za-z0-9])?"
    r"(?:\.[A-Za-z0-9](?:[A-Za-z0-9-]{0,61}[A-Za-z0-9])?)*$")


def _regex_format(attr: str, rx: re.Pattern, what: str):
    @format_validator(attr)
    def _check(value: str) -> None:
        if rx.fullmatch(value) is None:
            raise ValueError(f"'{value}' is not a valid {what}")
    _check.__name__ = f"validate_{attr.replace('-', '_')}"
    return _check


_regex_format("duration", _DURATION_RE, "ISO 8601 duration")
_regex_format("uuid", _UUID_RE, "UUID")


_regex_format("hostname", _HOSTNAME_RE, "hostname")


_EMAIL_ATEXT = r"[A-Za-z0-9!#$%&'*+/=?^_`{|}~-]"
_EMAIL_LOCAL_RE = re.compile(rf"^{_EMAIL_ATEXT}+(\.{_EMAIL_ATEXT}+)*$")
_EMAIL_QUOTED_RE = re.compile(r'^"(?:[^"\\\r\n]|\\.)*"$')


@format_validator("email")
def validate_email(value: str) -> None:
    """RFC 5321 mailbox syntax: dot-atom or quoted-string local part
    (consecutive/leading/trailing dots rejected), hostname or
    [IP-literal] domain."""
    import ipaddress

    local, sep, domain = value.rpartition("@")
    bad = ValueError(f"'{value}' is not a valid email address")
    if not sep or not local or not domain:
        raise bad
    if not (_EMAIL_LOCAL_RE.fullmatch(local)
            or _EMAIL_QUOTED_RE.fullmatch(local)):
        raise bad
    if domain.startswith("[") and domain.endswith("]"):
        lit = domain[1:-1]
        try:
            if lit.startswith("IPv6:"):
                ipaddress.IPv6Address(lit[5:])
            else:
                ipaddress.IPv4Address(lit)
        except ValueError:
            raise bad from None
    elif _HOSTNAME_RE.fullmatch(domain) is None or "." not in domain:
        # single-label domains pinned invalid repo-wide
        # (tests/test_formats_standard.py: 'a@b')
        raise bad


# RFC 6901 relative form (draft-handrews-relative-json-pointer): a
# non-negative integer without leading zeros, then either '#' or a
# (possibly empty) JSON pointer.
_RELATIVE_JP_RE = re.compile(
    r"^(0|[1-9][0-9]*)(#|(/([^~/]|~[01])*)*)$", re.ASCII)
_regex_format("relative-json-pointer", _RELATIVE_JP_RE,
              "relative JSON pointer")

# RFC 3986 URI-reference at the charset level: the allowed character
# repertoire (incl. delimiters) with well-formed percent-escapes; an
# optional leading scheme. Rejects spaces, backslashes and bad escapes
# — the classes the suite's uri-reference file probes.
_URIREF_CHARS_RE = re.compile(
    r"^(?:[A-Za-z][A-Za-z0-9+.\-]*:)?"
    r"[A-Za-z0-9\-._~:/?#\[\]@!$&'()*+,;=%]*$", re.ASCII)
_PCT_BAD_RE = re.compile(r"%(?![0-9A-Fa-f]{2})")


@format_validator("uri-reference")
def validate_uri_reference(value: str) -> None:
    if _URIREF_CHARS_RE.fullmatch(value) is None \
            or _PCT_BAD_RE.search(value):
        raise ValueError(f"'{value}' is not a valid URI reference")


# RFC 3987 IRI / IRI-reference: the URI-reference charset extended with
# ucschar (U+00A0..D7FF, F900..FDCF, FDF0..FFEF and the supplementary
# planes). Same charset-level posture as uri-reference: reject spaces,
# control chars, backslashes, unpaired surrogates and bad escapes.
_IRI_UCS = (" -퟿豈-﷏ﷰ-￯"
            "\U00010000-\U0001fffd\U00020000-\U0002fffd"
            "\U00030000-\U0003fffd\U00040000-\U0004fffd"
            "\U00050000-\U0005fffd\U00060000-\U0006fffd"
            "\U00070000-\U0007fffd\U00080000-\U0008fffd"
            "\U00090000-\U0009fffd\U000a0000-\U000afffd"
            "\U000b0000-\U000bfffd\U000c0000-\U000cfffd"
            "\U000d0000-\U000dfffd\U000e1000-\U000efffd")
_IRIREF_CHARS_RE = re.compile(
    r"^(?:[A-Za-z][A-Za-z0-9+.\-]*:)?"
    r"[A-Za-z0-9\-._~:/?#\[\]@!$&'()*+,;=%" + _IRI_UCS + r"]*$")
_IRI_SCHEME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9+.\-]*:")


@format_validator("iri-reference")
def validate_iri_reference(value: str) -> None:
    if _IRIREF_CHARS_RE.fullmatch(value) is None \
            or _PCT_BAD_RE.search(value):
        raise ValueError(f"'{value}' is not a valid IRI reference")


@format_validator("iri")
def validate_iri(value: str) -> None:
    """Absolute IRI: IRI-reference charset plus a required scheme."""
    validate_iri_reference(value)
    if _IRI_SCHEME_RE.match(value) is None:
        raise ValueError(f"'{value}' is not an absolute IRI "
                         "(missing scheme)")


# RFC 6570 URI Template: literals (the uri-reference charset minus the
# expression braces) interleaved with well-formed expressions
#   {[op] varname[:1-4digits|*] (, varname[:digits|*])*}
# varname = varchar (["."] varchar)* ; varchar = ALPHA/DIGIT/_/pct.
_URI_TEMPLATE_VAR = (r"(?:[A-Za-z0-9_]|%[0-9A-Fa-f]{2})"
                     r"(?:\.?(?:[A-Za-z0-9_]|%[0-9A-Fa-f]{2}))*"
                     r"(?::[1-9][0-9]{0,3}|\*)?")
_URI_TEMPLATE_EXPR = (r"\{[+#./;?&=,!@|]?" + _URI_TEMPLATE_VAR
                      + r"(?:," + _URI_TEMPLATE_VAR + r")*\}")
_URI_TEMPLATE_LITERAL = r"[^{}]*"
_URI_TEMPLATE_RE = re.compile(
    f"^(?:{_URI_TEMPLATE_LITERAL}(?:{_URI_TEMPLATE_EXPR}"
    f"{_URI_TEMPLATE_LITERAL})*)$")


@format_validator("uri-template")
def validate_uri_template(value: str) -> None:
    if _URI_TEMPLATE_RE.fullmatch(value) is None:
        raise ValueError(f"'{value}' is not a valid URI template")


@format_validator("date")
def validate_date(value: str) -> None:
    import datetime

    if _DATE_RE.fullmatch(value) is None:
        raise ValueError(f"'{value}' is not a valid date")
    datetime.date.fromisoformat(value)          # rejects 2024-02-30


@format_validator("time")
def validate_time(value: str) -> None:
    if _TIME_RE.fullmatch(value) is None:
        raise ValueError(f"'{value}' is not a valid time")
    h, m, s = int(value[0:2]), int(value[3:5]), int(value[6:8])
    off_min = 0
    if value[-1] not in "Zz":
        sign = 1 if value[-6] == "+" else -1
        oh, om = int(value[-5:-3]), int(value[-2:])
        if oh > 23 or om > 59:
            raise ValueError(f"'{value}' has an invalid time offset")
        off_min = sign * (oh * 60 + om)
    if h > 23 or m > 59 or s > 60:
        raise ValueError(f"'{value}' is not a valid time")
    if s == 60:
        # leap seconds only occur at 23:59:60 UTC (RFC 3339 §5.7) — an
        # offset-local :60 must normalize to exactly that instant.
        if (h * 60 + m - off_min) % 1440 != 23 * 60 + 59:
            raise ValueError(f"'{value}' is not a valid leap second")


@format_validator("date-time")
def validate_date_time(value: str) -> None:
    if _DATETIME_RE.fullmatch(value) is None:
        raise ValueError(f"'{value}' is not a valid date-time")
    validate_date(value[:10])
    validate_time(value[11:])


@format_validator("ipv4")
def validate_ipv4(value: str) -> None:
    import ipaddress

    try:
        ipaddress.IPv4Address(value)
    except ValueError:
        raise ValueError(f"'{value}' is not a valid IPv4 address") \
            from None


@format_validator("ipv6")
def validate_ipv6(value: str) -> None:
    import ipaddress

    try:
        ipaddress.IPv6Address(value)
    except ValueError:
        raise ValueError(f"'{value}' is not a valid IPv6 address") \
            from None


@format_validator("uri")
def validate_uri(value: str) -> None:
    from urllib.parse import urlsplit

    try:
        parts = urlsplit(value)
    except ValueError:
        raise ValueError(f"'{value}' is not a valid URI") from None
    if not parts.scheme:
        raise ValueError(f"'{value}' is not an absolute URI "
                         "(missing scheme)")


# ---------------------------------------------------------------------------
# idn-hostname / idn-email — pure-Python IDNA2008 subset (RFC 5890/5891/
# 5892/5893 + RFC 6531 for the SMTPUTF8 mailbox), no network. Covers the
# rule classes the suite's optional/format files probe: NFC form, hyphen
# placement (incl. the 3-4 "--" rule), leading combining marks, RFC 5892
# §2.6 exceptional PVALID / DISALLOWED code points, the CONTEXTO rules
# (MIDDLE DOT, Greek keraia, Hebrew geresh/gershayim, katakana middle
# dot, Arabic-Indic digit mixing), the CONTEXTJ rules for ZWJ/ZWNJ
# (virama and Joining_Type branches, via the `idna` package's
# `valid_contextj`, imported only when a label carries ZWJ/ZWNJ), the
# RFC 5893 Bidi rule, punycode (xn--) round-trip validity, and
# label/name octet lengths.

_IDNA_PVALID_EXCEPTIONS = frozenset("ßς۽۾་〇")
_IDNA_DISALLOWED = frozenset(
    "ـߺ〮〯〱〲〳〴〵〻")
_IDNA_CONTEXT = frozenset("·͵׳״・‌‍")
#: categories of PVALID-approximated code points (IDNA2008 is
#: lowercase-only: Lu/Lt are DISALLOWED for non-ASCII; ASCII LDH labels
#: are accepted case-insensitively per RFC 5890 §2.3.1)
_IDNA_CATS = frozenset({"Ll", "Lo", "Lm", "Mn", "Mc", "Nd"})


def _idna_cp_ok(ch: str) -> bool:
    import unicodedata
    if ch in _IDNA_DISALLOWED:
        return False
    if ch in _IDNA_PVALID_EXCEPTIONS or ch in _IDNA_CONTEXT or ch == "-":
        return True
    if ch.isascii():
        return ch.isalnum()
    return unicodedata.category(ch) in _IDNA_CATS


def _greek(ch):
    return "Ͱ" <= ch <= "Ͽ" or "ἀ" <= ch <= "῿"


def _hebrew(ch):
    return "֐" <= ch <= "׿"


def _hira_kata_han(ch):
    return ("ぁ" <= ch <= "ゟ"
            or ("゠" <= ch <= "ヿ" and ch != "・")
            or "一" <= ch <= "鿿" or "㐀" <= ch <= "䶿"
            or "豈" <= ch <= "﫿"
            or "\U00020000" <= ch <= "\U0002ffff")


def _idna_context_ok(label: str) -> bool:
    """RFC 5892 Appendix A contextual rules over one U-label."""
    for i, ch in enumerate(label):
        prev = label[i - 1] if i else ""
        nxt = label[i + 1] if i + 1 < len(label) else ""
        if ch == "·":                       # MIDDLE DOT: l·l only
            if prev != "l" or nxt != "l":
                return False
        elif ch == "͵":                     # Greek keraia
            if not (nxt and _greek(nxt)):
                return False
        elif ch in "׳״":               # geresh / gershayim
            if not (prev and _hebrew(prev)):
                return False
        elif ch in "‌‍":               # ZWNJ / ZWJ: CONTEXTJ
            # needs Joining_Type, which unicodedata does not carry
            from idna.core import valid_contextj
            if not valid_contextj(label, i):
                return False
        elif ch == "・":                     # katakana middle dot
            if not any(_hira_kata_han(c) for c in label):
                return False
    # Arabic-Indic and Extended Arabic-Indic digits must not mix
    if any("٠" <= c <= "٩" for c in label) \
            and any("۰" <= c <= "۹" for c in label):
        return False
    return True


def _idna_bidi_ok(label: str) -> bool:
    """RFC 5893 Bidi rule for one label (applied when the domain is a
    'Bidi domain name', i.e. any label carries an RTL code point)."""
    import unicodedata
    dirs = [unicodedata.bidirectional(c) for c in label]
    if not dirs:
        return True
    if dirs[0] in ("R", "AL"):
        allowed = {"R", "AL", "AN", "EN", "ES", "CS", "ET", "ON", "BN",
                   "NSM"}
        if any(d not in allowed for d in dirs):
            return False
        if "AN" in dirs and "EN" in dirs:
            return False
        tail = [d for d in dirs if d != "NSM"]
        return bool(tail) and tail[-1] in ("R", "AL", "EN", "AN")
    if dirs[0] == "L":
        allowed = {"L", "EN", "ES", "CS", "ET", "ON", "BN", "NSM"}
        if any(d not in allowed for d in dirs):
            return False
        tail = [d for d in dirs if d != "NSM"]
        return bool(tail) and tail[-1] in ("L", "EN")
    return False                                  # digit-/symbol-initial


def _idna_u_label_ok(label: str) -> bool:
    import unicodedata
    if not label or len(label.encode("utf-8")) == 0:
        return False
    if unicodedata.normalize("NFC", label) != label:
        return False
    if label.startswith("-") or label.endswith("-"):
        return False
    if len(label) >= 4 and label[2:4] == "--":    # RFC 5891 §4.2.3.1
        return False
    if unicodedata.category(label[0]).startswith("M"):
        return False                              # no leading combining mark
    if not all(_idna_cp_ok(c) for c in label):
        return False
    return _idna_context_ok(label)


def _idna_a_label(label: str) -> str:
    """ASCII (wire) form of a validated label, for octet-length checks;
    raises ValueError on labels punycode cannot carry."""
    if label.isascii():
        return label
    try:
        return "xn--" + label.encode("punycode").decode("ascii")
    except UnicodeError:
        raise ValueError("punycode encoding failed") from None


@format_validator("idn-hostname")
def validate_idn_hostname(value: str) -> None:
    """Internationalized hostname per RFC 5890: dot-separated U-labels /
    A-labels / LDH labels, wire form ≤253 octets with each label ≤63."""
    import unicodedata
    bad = ValueError(f"'{value}' is not a valid IDN hostname")
    if not value:
        raise bad
    # label separators: U+002E plus the IDNA2008 full-stop variants
    name = value.translate({0x3002: ".", 0xff0e: ".", 0xff61: "."})
    labels = name.split(".")
    if any(not lb for lb in labels):              # empty label / dots
        raise bad
    wire = []
    for lb in labels:
        if lb.isascii():
            low = lb.lower()
            if low.startswith("xn--"):
                # A-label: must round-trip to a valid U-label
                try:
                    u = low[4:].encode("ascii").decode("punycode")
                except UnicodeError:
                    raise bad from None
                if not _idna_u_label_ok(u) or u.isascii():
                    raise bad
                wire.append(low)
                continue
            if _HOSTNAME_RE.fullmatch(lb) is None or lb.startswith("-") \
                    or lb.endswith("-"):
                raise bad
            wire.append(low)
            continue
        if not _idna_u_label_ok(lb):
            raise bad
        try:
            wire.append(_idna_a_label(lb))
        except ValueError:
            raise bad from None
    # Bidi rule applies to every label once any label is RTL
    def _rtl(lb):
        return any(unicodedata.bidirectional(c) in ("R", "AL", "AN")
                   for c in lb)
    decoded = [lb if not lb.startswith("xn--")
               else lb[4:].encode("ascii").decode("punycode")
               for lb in (w.lower() for w in wire)]
    if any(_rtl(lb) for lb in decoded):
        if not all(_idna_bidi_ok(lb) for lb in decoded):
            raise bad
    if any(len(w) > 63 for w in wire) \
            or len(".".join(wire)) > 253:
        raise bad


_IDN_LOCAL_RE = None


@format_validator("idn-email")
def validate_idn_email(value: str) -> None:
    """RFC 6531 SMTPUTF8 mailbox: the RFC 5321 grammar with UTF8-non-
    ascii added to atext (local part) and the domain as an idn-hostname
    or address literal."""
    import ipaddress

    bad = ValueError(f"'{value}' is not a valid IDN email address")
    local, sep, domain = value.rpartition("@")
    if not sep or not local or not domain:
        raise bad
    if not (_EMAIL_QUOTED_RE.fullmatch(local)):
        # dot-atom with UTF8-non-ascii atext: every non-ASCII char is
        # allowed (RFC 6531 §3.3), ASCII chars must be atext
        ascii_part = "".join(c if c.isascii() else "x" for c in local)
        if _EMAIL_LOCAL_RE.fullmatch(ascii_part) is None:
            raise bad
        if any(not c.isascii() and c.isspace() for c in local):
            raise bad
    if domain.startswith("[") and domain.endswith("]"):
        lit = domain[1:-1]
        try:
            if lit.startswith("IPv6:"):
                ipaddress.IPv6Address(lit[5:])
            else:
                ipaddress.IPv4Address(lit)
        except ValueError:
            raise bad from None
        return
    try:
        validate_idn_hostname(domain)
    except ValueError:
        raise bad from None
    if "." not in domain.translate({0x3002: ".", 0xff0e: ".",
                                    0xff61: "."}):
        # single-label domains pinned invalid repo-wide (matches 'email')
        raise bad
