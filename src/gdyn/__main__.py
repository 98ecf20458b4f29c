"""``python -m gdyn``: the command line of ``gdyn.cli``, with its exit codes."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
