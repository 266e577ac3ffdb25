"""Measurement code for the callab benchmark (see perfbench/README.md)."""
