"""Run the command-line interface: ``python -m cavsqueeze <subcommand>``."""

from .cli import entry

if __name__ == "__main__":
    entry()
