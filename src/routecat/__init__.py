"""Hierarchical text categorization with one centroid classifier per taxonomy node.

Documents are routed top-down through a category tree by inner-product
similarity against per-node centroids.  Each routing step yields a
confidence score relative to the competing siblings; a validation set
calibrates per-level weights and an equal-error-rate threshold, and test
documents whose weighted route confidence falls at or below the threshold
are rejected instead of labeled.
"""
