"""Run the command-line interface: ``python -m proxdyn <command> ...``."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
