"""Contest-driven upload-rate allocation for skeleton-based avatar streaming.

Synthetic keypoint clips, a prize contest that decides how often each user
uploads, an exhaustive search oracle, and a small from-scratch DQN that tunes
the prize vector to cut total rendering loss.
"""

from . import config, contest, dqn, oracle, skeleton

__version__ = "0.1.0"
