"""End-to-end benchmark of the robust routing reproduction (see README.md)."""
