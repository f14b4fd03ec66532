from .engine import simulate_network

__all__ = ["simulate_network"]
