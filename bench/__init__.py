"""The repo's benchmark: six sim+live workloads measured from outside.

Entry point: ``python3 bench/run.py`` (see bench/README.md).
"""
