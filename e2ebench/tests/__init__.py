"""Tests of the end-to-end benchmark's own machinery."""
