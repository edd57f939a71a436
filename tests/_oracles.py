"""Naive reference implementations.

Deliberately independent of the package: the evaluation oracles use plain
loops, per-threshold recounts and no numpy vectorization, and the softmax
and Adam references are the textbook formulas on whole arrays, so they can
arbitrate the fast paths.
"""

from __future__ import annotations

import math

import numpy as np


def reference_softmax(a, axis):
    e = np.exp(a - a.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def reference_softmax_backward(y, g, axis):
    """Adjoint of ``reference_softmax`` given its output ``y`` and the
    output adjoint ``g``: y * (g - sum(g * y))."""
    return y * (g - (g * y).sum(axis=axis, keepdims=True))


def reference_adam_step(p, m, v, g, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Textbook Adam (Kingma & Ba, ICLR 2015) step ``t`` on whole arrays, in
    their dtype: the new (p, m, v)."""
    m = m * beta1 + (1.0 - beta1) * g
    v = v * beta2 + (1.0 - beta2) * (g * g)
    m_hat = m / (1.0 - beta1**t)
    v_hat = v / (1.0 - beta2**t)
    return p - lr * m_hat / (np.sqrt(v_hat) + eps), m, v


def naive_point_adjust(labels, preds):
    labels = list(labels)
    adjusted = list(preds)
    n = len(labels)
    i = 0
    while i < n:
        if labels[i] == 1:
            j = i
            while j < n and labels[j] == 1:
                j += 1
            if any(adjusted[i:j]):
                for t in range(i, j):
                    adjusted[t] = 1
            i = j
        else:
            i += 1
    return adjusted


def naive_kth_point_adjust(labels, preds, k):
    labels = list(labels)
    preds = list(preds)
    adjusted = list(preds)
    n = len(labels)
    i = 0
    while i < n:
        if labels[i] == 1:
            j = i
            while j < n and labels[j] == 1:
                j += 1
            hit = any(preds[i : min(i + k + 1, j)])
            for t in range(i, j):
                adjusted[t] = 1 if hit else 0
            i = j
        else:
            i += 1
    return adjusted


def naive_prf(labels, preds):
    tp = sum(1 for y, p in zip(labels, preds) if y == 1 and p == 1)
    fp = sum(1 for y, p in zip(labels, preds) if y == 0 and p == 1)
    fn = sum(1 for y, p in zip(labels, preds) if y == 1 and p == 0)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2.0 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def naive_best_f1(scores, labels, mode, k=None):
    """Recount the confusion from scratch at every candidate threshold."""
    scores = [float(s) for s in scores]
    labels = list(labels)
    candidates = sorted(set(scores)) + [math.inf]
    best = (math.inf, 0.0, 0.0, -1.0)
    for theta in candidates:
        preds = [1 if s >= theta else 0 for s in scores]
        if mode == "pa":
            adjusted = naive_point_adjust(labels, preds)
        elif mode == "kpa":
            adjusted = naive_kth_point_adjust(labels, preds, k)
        else:
            adjusted = preds
        precision, recall, f1 = naive_prf(labels, adjusted)
        if f1 > best[3]:
            best = (theta, precision, recall, f1)
    return best
