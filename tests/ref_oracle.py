"""Load the reference evaluator (/root/reference jschon) as a test oracle.

The sandbox lacks the ``rfc3986`` dependency and the metaschema git
submodules, so we provide a minimal urllib-based ``rfc3986`` shim and serve
minimal metaschema documents for the missing files. This module only *runs*
the reference for golden comparisons — no reference code is copied.

Returns None from ``load_reference()`` if anything fails; parity tests skip.
"""

from __future__ import annotations

import re
import sys
import types
from urllib.parse import urljoin

# The one skip reason of every test that needs the reference (its
# evaluator, a catalog or its corpus) and finds none.
REFERENCE_UNAVAILABLE = "reference jschon unavailable"

_SCHEME_RE = re.compile(r"^([A-Za-z][A-Za-z0-9+.\-]*):")


class _Ref:
    __slots__ = ("scheme", "authority", "path", "query", "fragment")

    def __init__(self, scheme, authority, path, query, fragment):
        self.scheme = scheme
        self.authority = authority
        self.path = path
        self.query = query
        self.fragment = fragment

    @classmethod
    def parse(cls, value: str) -> "_Ref":
        s = value
        fragment = query = scheme = authority = None
        if "#" in s:
            s, fragment = s.split("#", 1)
        if "?" in s:
            s, query = s.split("?", 1)
        m = _SCHEME_RE.match(s)
        if m:
            scheme = m.group(1)
            s = s[m.end():]
        if s.startswith("//"):
            rest = s[2:]
            slash = rest.find("/")
            if slash == -1:
                authority, s = rest, ""
            else:
                authority, s = rest[:slash], rest[slash:]
        return cls(scheme, authority, s, query, fragment)

    def unsplit(self) -> str:
        out = ""
        if self.scheme is not None:
            out += self.scheme + ":"
        if self.authority is not None:
            out += "//" + self.authority
        out += self.path or ""
        if self.query is not None:
            out += "?" + self.query
        if self.fragment is not None:
            out += "#" + self.fragment
        return out

    def resolve_with(self, base: "_Ref") -> "_Ref":
        return _Ref.parse(urljoin(base.unsplit(), self.unsplit()))

    def copy_with(self, scheme=None, authority=None, path=None, query=None,
                  fragment=None):
        def pick(new, old):
            return old if new is _USE_EXISTING else new
        return _Ref(pick(scheme, self.scheme), pick(authority, self.authority),
                    pick(path, self.path), pick(query, self.query),
                    pick(fragment, self.fragment))

    def is_absolute(self) -> bool:
        return self.scheme is not None and self.fragment is None

    def normalize(self) -> "_Ref":
        return _Ref(self.scheme.lower() if self.scheme else self.scheme,
                    self.authority.lower() if self.authority else self.authority,
                    self.path, self.query, self.fragment)

    def __eq__(self, other):
        if isinstance(other, _Ref):
            return self.unsplit() == other.unsplit()
        if isinstance(other, str):
            return self.unsplit() == other
        return NotImplemented

    def __hash__(self):
        return hash(self.unsplit())


class _USE_EXISTING:  # sentinel, compared with `is`
    pass


class _ValidationError(Exception):
    pass


def _install_rfc3986_shim():
    if "rfc3986" in sys.modules:
        return
    mod = types.ModuleType("rfc3986")
    mod.uri_reference = lambda value: _Ref.parse(value)

    exc = types.ModuleType("rfc3986.exceptions")
    exc.ValidationError = _ValidationError

    misc = types.ModuleType("rfc3986.misc")
    misc.UseExisting = _USE_EXISTING

    class Validator:
        def __init__(self):
            self._required = []

        def require_presence_of(self, *fields):
            self._required.extend(fields)
            return self

        def validate(self, ref):
            for f in self._required:
                if getattr(ref, f, None) is None:
                    raise _ValidationError(f"missing {f}")

    val = types.ModuleType("rfc3986.validators")
    val.Validator = Validator

    mod.exceptions, mod.misc, mod.validators = exc, misc, val
    sys.modules["rfc3986"] = mod
    sys.modules["rfc3986.exceptions"] = exc
    sys.modules["rfc3986.misc"] = misc
    sys.modules["rfc3986.validators"] = val


_CACHE = {}


def _patch_local_source(jcat):
    """Serve minimal metaschema docs for the absent submodule files,
    draft-appropriate per the source's base_dir."""
    if getattr(jcat.LocalSource, "_graft_patched", False):
        return
    orig_call = jcat.LocalSource.__call__

    def patched(self, relative_path):
        try:
            return orig_call(self, relative_path)
        except Exception:
            if "json-schema-next" in str(self.base_dir):
                uri = "https://json-schema.org/draft/next/" + relative_path
                return {
                    "$schema": "https://json-schema.org/draft/next/schema",
                    "$id": uri,
                    "$dynamicAnchor": "meta",
                }
            if "2019-09" in str(self.base_dir):
                uri = "https://json-schema.org/draft/2019-09/" + relative_path
                return {
                    "$schema": "https://json-schema.org/draft/2019-09/schema",
                    "$id": uri,
                    "$recursiveAnchor": True,
                }
            uri = "https://json-schema.org/draft/2020-12/" + relative_path
            return {
                "$schema": "https://json-schema.org/draft/2020-12/schema",
                "$id": uri,
                "$dynamicAnchor": "meta",
            }

    jcat.LocalSource.__call__ = patched
    jcat.LocalSource._graft_patched = True


def load_reference(draft: str = "2020-12"):
    """Return dict(catalog=, JSON=, JSONSchema=, URI=, meta=) or None."""
    if draft in _CACHE:
        return _CACHE[draft]
    try:
        _install_rfc3986_shim()
        if "/root/reference" not in sys.path:
            sys.path.insert(0, "/root/reference")
        import jschon.catalog as jcat

        _patch_local_source(jcat)

        from jschon import JSON, JSONSchema, URI, create_catalog

        catalog = create_catalog(draft, name=f"ref-oracle-{draft}")
        handle = {"catalog": catalog, "JSON": JSON, "JSONSchema": JSONSchema,
                  "URI": URI,
                  "meta": f"https://json-schema.org/draft/{draft}/schema"}
    except Exception as e:  # pragma: no cover
        import traceback
        traceback.print_exc()
        handle = None
    _CACHE[draft] = handle
    return handle


_META = "https://json-schema.org/draft/2020-12/schema"


def evaluate_with_reference(spec: dict, instance, handle=None, fmt="basic"):
    """Run the reference evaluator; returns its output(fmt) dict."""
    handle = handle or load_reference()
    schema = handle["JSONSchema"](
        dict(spec) if isinstance(spec, dict) else spec,
        catalog=handle["catalog"],
        metaschema_uri=handle["URI"](handle.get("meta", _META)))
    result = schema.evaluate(handle["JSON"](instance))
    return result.output(fmt)
