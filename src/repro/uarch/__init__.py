"""The BOOM-like out-of-order cycle model in three configurations."""
