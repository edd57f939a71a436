"""Minimal dense-tensor arithmetic with reverse-mode autodiff and Adam."""
