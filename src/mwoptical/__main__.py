"""``python -m mwoptical``: the same command line as the ``mwoptical`` script."""

from .cli import run

if __name__ == "__main__":
    run()
