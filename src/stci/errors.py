"""Shared exception types, how their messages quote an input, the one
refusal of a parameter that is not an int, and the one refusal of an input
past a cost cap."""

# The most characters of text, or digits of an integer, that an error
# message quotes; longer input is named by its length, so that a refusal
# stays one short line whatever the input.
ECHO_CAP = 60
_ECHO_INT = 10**ECHO_CAP


class DomainError(ValueError):
    """An argument lies outside an operation's domain."""


class ParseError(DomainError):
    """A textual descriptor could not be parsed."""


def echo(value: object) -> str:
    """An input as an error message quotes it: ``repr``, or ``str`` for an
    int, unless text has more than ECHO_CAP characters or an int more than
    ECHO_CAP digits; then only that count."""
    if isinstance(value, int) and not -_ECHO_INT < value < _ECHO_INT:
        return f"<{_digits(abs(value))} digits>"
    if isinstance(value, str) and len(value) > ECHO_CAP:
        return f"<{len(value)} characters>"
    return str(value) if isinstance(value, int) else repr(value)


def integer(value: object, name: str) -> int:
    """value, if it is an int and not a bool; else a DomainError naming it.
    Exact arithmetic takes no float, and a bool is not a count."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise DomainError(f"{name} must be an int, got {echo(value)}")
    return value


def at_most(value: int, cap: int, name: str, why: str = "") -> int:
    """value, unless it exceeds cap: then a DomainError naming it, the cap
    and the value, with ``why`` (what grows with it) after a colon."""
    if value > cap:
        raise DomainError(f"{name} must be <= {cap}, got {echo(value)}" + (why and f": {why}"))
    return value


def _digits(value: int) -> int:
    """Decimal digits of value >= 1, without converting it to text."""
    k = (value.bit_length() - 1) * 3010299 // 10**7  # log10(2) > 0.3010299
    while 10 ** (k + 1) <= value:
        k += 1
    return k + 1
