"""Joint object detection and semantic segmentation at desk scale."""

__version__ = "0.1.0"
