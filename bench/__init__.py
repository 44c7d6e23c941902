"""End-to-end and per-layer benchmark of the reconkit CLI; see README.md."""
