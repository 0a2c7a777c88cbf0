"""`python -m ibpcheck`: the same command line as the `ibpcheck` script."""

from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()
