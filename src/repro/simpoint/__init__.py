"""SimPoint 3.0: random projection, k-means, BIC, point selection."""
