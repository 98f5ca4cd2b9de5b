"""Run the command-line interface as ``python -m pascent``."""

from .cli import main_entry

if __name__ == "__main__":
    main_entry()
