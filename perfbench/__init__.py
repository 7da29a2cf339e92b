"""Repository benchmark for the SG-tree system: see ``perfbench/README.md``."""
