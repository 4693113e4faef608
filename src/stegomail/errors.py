"""Exception hierarchy shared by the library and the CLI exit-code map."""


class StegoError(Exception):
    """Base class for all library errors."""


class ConfigError(StegoError):
    """Invalid configuration: bad channel spec, bad key, bad parameter."""


class ProtocolError(StegoError):
    """Malformed protocol data: unknown address array, framing, bad trace."""


class CounterError(StegoError):
    """Counter discipline violated (overflow or detected desynchronization)."""


_QUOTE_MAX = 64  # characters of an input's repr that an error message quotes


def _quote(value: object) -> str:
    """``repr(value)`` for an error message, cut to _QUOTE_MAX characters.

    An input can be megabytes long: a longer repr keeps its first
    _QUOTE_MAX characters and says how long it was.
    """
    text = repr(value)
    if len(text) <= _QUOTE_MAX:
        return text
    return f"{text[:_QUOTE_MAX]}... ({len(text)} characters)"
