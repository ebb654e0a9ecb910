"""Federation benchmark: seeded jobs, end-to-end metrics, traced layers."""
