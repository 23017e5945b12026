"""Command-line argument parsing shared by ``python -m repro`` commands."""


def parse_number(name: str, text: str, kind: type, usage: str):
    """``kind(text)``, or ``SystemExit`` with the command's ``usage`` line
    when ``text`` is not a number — a usage error like any other, not a
    ``ValueError`` traceback.

    >>> parse_number("--port", "x", int, "usage: serve [--port=P]")
    Traceback (most recent call last):
    SystemExit: --port: not a number: 'x'
    usage: serve [--port=P]
    """
    try:
        return kind(text)
    except ValueError:
        raise SystemExit(f"{name}: not a number: {text!r}\n{usage}") from None
