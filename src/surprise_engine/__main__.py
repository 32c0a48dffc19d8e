"""``python -m surprise_engine``: the command-line front end (see
:mod:`surprise_engine.cli`)."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
