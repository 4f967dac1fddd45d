"""``python -m temperedwalk``: the command-line driver of ``cli``."""

from .cli import main

if __name__ == "__main__":
    main()
