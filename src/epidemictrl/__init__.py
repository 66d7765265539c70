"""Agent-based epidemic simulator with a DDPG schedule optimizer."""
