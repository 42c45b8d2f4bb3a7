"""Host-side spec parsers raise only named errors.

The ``--inject`` and ``--quota`` grammars, W3C ``traceparent`` headers
and enclosure policy literals all arrive from outside the simulator.
On any text each parser returns, or raises :class:`ConfigError`,
:class:`PolicyError` or ``ValueError`` — never another exception, so
the CLI can name the bad input instead of printing a traceback.  The
examples are derandomized and their number fixed, so every run checks
the same corpus: arbitrary text, text over each grammar's own
alphabet, and valid specs with one edit.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policy import parse_policy
from repro.errors import ConfigError, PolicyError
from repro.inject import parse_inject_spec
from repro.quota import parse_quota_spec
from repro.spans import TraceContext

NAMED = (ConfigError, PolicyError, ValueError)

PARSERS = {
    "inject": parse_inject_spec,
    "quota": parse_quota_spec,
    "traceparent": TraceContext.parse_traceparent,
    "policy": parse_policy,
}

#: Valid inputs of each parser, the seeds of the edited corpus.
VALID = {
    "inject": ["pkey@main_1:every=5",
               "pkey@main_1:every=4;sysdeny@main_1:every=4,after=2",
               "eagain@*:p=0.5,count=3,nr=0", "page@t_2:after=1"],
    "quota": ["x_1:spans=2", "t_1:steps=1000,spans=4;t_2:fds=2"],
    "traceparent": [
        "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"],
    "policy": ["", "secrets:R, none", "a:U b:R c:RW d:RWX, none",
               "net io", "all", "x:rwx"],
}

#: Characters each grammar gives meaning to, plus digits and letters.
ALPHABETS = {
    "inject": "pkeygasyndr@*_1:=,;.-+ 0123456789eEvtrfclnx",
    "quota": "xt_12:=,;-+ 0123456789stepandfo",
    "traceparent": "0123456789abcdefABCDEF-x ",
    "policy": "abcURWXrwx:, ionetprcslal_.1",
}

EXAMPLES = 300


def _edit(text: str, data) -> str:
    """One insertion, deletion or replacement at a drawn position."""
    at = data.draw(st.integers(0, len(text)))
    how = data.draw(st.sampled_from(["insert", "delete", "replace"]))
    junk = data.draw(st.text(max_size=4))
    if how == "insert":
        return text[:at] + junk + text[at:]
    if how == "delete":
        return text[:at] + text[at + 1:]
    return text[:at] + junk + text[at + len(junk):]


def _parses_or_names(parser: str, text: str) -> None:
    try:
        PARSERS[parser](text)
    except NAMED:
        pass


class TestSpecParsers:
    @settings(max_examples=EXAMPLES, derandomize=True, deadline=None)
    @given(st.sampled_from(sorted(PARSERS)), st.text(max_size=80))
    def test_arbitrary_text(self, parser, text):
        _parses_or_names(parser, text)

    @settings(max_examples=EXAMPLES, derandomize=True, deadline=None)
    @given(st.sampled_from(sorted(PARSERS)), st.data())
    def test_text_over_the_grammar(self, parser, data):
        text = data.draw(st.text(alphabet=ALPHABETS[parser], max_size=60))
        _parses_or_names(parser, text)

    @settings(max_examples=EXAMPLES, derandomize=True, deadline=None)
    @given(st.sampled_from(sorted(PARSERS)), st.data())
    def test_edited_valid_specs(self, parser, data):
        text = data.draw(st.sampled_from(VALID[parser]))
        for _ in range(data.draw(st.integers(1, 3))):
            text = _edit(text, data)
        _parses_or_names(parser, text)

    def test_valid_specs_parse(self):
        for parser, texts in VALID.items():
            for text in texts:
                assert PARSERS[parser](text) is not None, (parser, text)
