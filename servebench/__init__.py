"""Serving benchmark for the repro stack: see run.py."""
