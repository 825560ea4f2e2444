"""Shared exception types, how their messages quote an input, the one
refusal of a parameter that is not an int or not a rational, and the one
refusal of an input past a cost cap."""

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
    """An input as an error message quotes it: ``str`` for an int (as
    ``integer`` tests it), else ``repr``, unless text has more than ECHO_CAP
    characters or an int more than ECHO_CAP digits; then only that count."""
    if type(value) is int:
        return str(value) if -_ECHO_INT < value < _ECHO_INT else f"<{_digits(abs(value))} digits>"
    if isinstance(value, str) and len(value) > ECHO_CAP:
        return f"<{len(value)} characters>"
    return repr(value)


def integer(value: object, name: str) -> int:
    """value, if its type is int; else a DomainError naming it.  A float or a
    bool has no place in exact arithmetic, nor an IntEnum member in records."""
    if type(value) is not int:
        raise DomainError(f"{name} must be an int, got {echo(value)}")
    return value


def rational(value: object, name: str) -> "int | Fraction":
    """value, if its type is int or Fraction; else a DomainError naming it.
    A float or a text would be converted inexactly or without a size cap."""
    import fractions  # loaded by its callers, not at stci.cli's start; 5x cheaper than a from-import
    if type(value) not in (int, fractions.Fraction):
        raise DomainError(f"{name} must be an int or a Fraction, got {echo(value)}")
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
